"""Exact scalars for resurgence computations.

The exact coefficient ring used throughout the package is

    Q(i)[T, T^-1]  tensor  Q[ln 2, ln 3, ln 5, ...]

where ``T`` stands for 2*pi*i and ``ln p`` are commuting symbols, one per
prime, standing for the natural logarithms of the primes.  This is the
smallest ring that holds every quantity the symbolic layer produces:

* residues and singularity weights are Gaussian rationals times powers of
  2*pi*i (negative powers appear as soon as one divides a weight by the
  bridge constant 2*pi*i, which the hyperlogarithmic mould machinery does);
* i*pi is T/2, so half-turn branch jumps stay in the ring;
* branch values of logarithms at far singular points contribute log q for
  positive rational q, and log q splits over the primes dividing q.

Division is deliberately restricted: one may divide exactly by a *monomial*
(a single term c * T^k * ln2^a * ln3^b * ...), where the Gaussian coefficient
divides in the field Q(i), the T exponent just shifts (the ring is Laurent in
T), and the log exponents must not go negative.  Dividing by a sum of terms
raises :class:`~resurgence.errors.UnsupportedDivisionError`; nothing in the
supported calculus needs it, and refusing keeps the exactness guarantees
honest.

``ExactScalar.evaluate(prec)`` maps the symbols to numbers with mpmath at a
requested binary precision: T -> 2*pi*i and ln p -> log(p).  mpmath is
imported there and in ``arg`` only, so exact arithmetic never loads it.

The text form is built from Gaussian rationals printed like ``1/2+2/3*i``
and monomial factors ``T^k`` and ``lnp^e``, for example::

    (1/2+1/3*i)*T^2 + (-2)*T^-1*ln2

``parse_scalar`` accepts exactly what ``str`` produces (whitespace-tolerant),
and the JSON form round-trips bit-exactly.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import UnsupportedDivisionError

__all__ = [
    "GaussianRational",
    "ExactScalar",
    "parse_gaussian",
    "parse_scalar",
    "ZERO",
    "ONE",
    "TAU",
    "I_PI",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


class GaussianRational:
    """An element of Q(i): a rational real part plus a rational imaginary part.

    Supports field arithmetic, including exact division.  Hashable and
    immutable by convention.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """The field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        c = self * o.conjugate()
        return GaussianRational(c.re / n, c.im / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return GaussianRational(1) / self ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- misc ---------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def sort_key(self):
        return (self.re, self.im)

    def evaluate(self, prec: int = 53):
        """Return an mpmath mpc at binary precision ``prec``."""
        import mpmath

        with mpmath.workprec(prec):
            return mpmath.mpc(
                mpmath.mpf(self.re.numerator) / self.re.denominator,
                mpmath.mpf(self.im.numerator) / self.im.denominator,
            )

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag}*i"
        return f"{re}{sign}{imtxt}"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def parse_gaussian(text: str) -> GaussianRational:
    """Parse ``a/b``, ``c/d*i``, ``a/b+c/d*i``, ``i``, ``-i`` and friends."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty Gaussian rational")

    def one_part(part: str):
        # returns (fraction, is_imaginary)
        imag = part.endswith("i")
        if imag:
            part = part[:-1]
            if part.endswith("*"):
                part = part[:-1]
            if part in ("", "+"):
                return Fraction(1), True
            if part == "-":
                return Fraction(-1), True
        if not part:
            raise ValueError(f"cannot parse Gaussian rational {text!r}")
        return Fraction(part), imag

    # split into at most two signed parts
    parts = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/*" and s[k - 1] != "e":
            parts.append(s[start:k])
            start = k
    parts.append(s[start:])
    if len(parts) > 2:
        raise ValueError(f"cannot parse Gaussian rational {text!r}")

    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_im = seen_re = False
    for p in parts:
        val, imag = one_part(p)
        if imag:
            if seen_im:
                raise ValueError(f"two imaginary parts in {text!r}")
            im_part, seen_im = val, True
        else:
            if seen_re:
                raise ValueError(f"two real parts in {text!r}")
            re_part, seen_re = val, True
    return GaussianRational(re_part, im_part)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _factor(n: int) -> dict:
    """Prime factorization of a positive integer as {prime: exponent}."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class ExactScalar:
    """An element of Q(i)[T, T^-1] tensor Q[ln2, ln3, ...].

    Internally a mapping from term keys (tau_exponent, logs), with logs a
    sorted tuple of (prime, exp), to Gaussian-rational coefficients.
    Zero coefficients are dropped; the empty mapping is zero.  The mapping
    is filled only while a value is built, so the hash of its canonical
    key is computed on first use and kept in ``_hash``.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, coeff in terms.items():
                if not isinstance(coeff, GaussianRational):
                    coeff = GaussianRational(coeff)
                if coeff.is_zero():
                    continue
                tau, logs = key
                logs = tuple(sorted((int(p), int(e)) for p, e in logs if e))
                for p, e in logs:
                    if e < 0:
                        raise ValueError("log exponents must be nonnegative")
                    if not _is_prime(p):
                        raise ValueError(f"log generator must be prime, got {p}")
                k = (int(tau), logs)
                if k in clean:
                    c = clean[k] + coeff
                    if c.is_zero():
                        del clean[k]
                    else:
                        clean[k] = c
                else:
                    clean[k] = coeff
        self._terms = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "ExactScalar":
        return cls({(0, ()): GaussianRational(_as_fraction(q))})

    @classmethod
    def from_gaussian(cls, g: GaussianRational) -> "ExactScalar":
        return cls({(0, ()): g})

    @classmethod
    def tau(cls, k: int = 1) -> "ExactScalar":
        """T^k, i.e. (2*pi*i)^k; k may be negative."""
        return cls({(k, ()): GaussianRational(1)})

    @classmethod
    def i_pi(cls) -> "ExactScalar":
        """i*pi = T/2."""
        return cls({(1, ()): GaussianRational(Fraction(1, 2))})

    @classmethod
    def log_rational(cls, q) -> "ExactScalar":
        """log q for positive rational q, expanded over prime generators."""
        q = _as_fraction(q)
        if q <= 0:
            raise ValueError(f"log_rational needs a positive rational, got {q}")
        logs: dict[int, int] = {}
        for p, e in _factor(q.numerator).items():
            logs[p] = logs.get(p, 0) + e
        for p, e in _factor(q.denominator).items():
            logs[p] = logs.get(p, 0) - e
        terms: dict = {}
        for p, e in logs.items():
            key = (0, ((p, 1),))
            terms[key] = terms.get(key, GaussianRational(0)) + GaussianRational(e)
        return cls(terms)

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def coerce(x) -> "ExactScalar":
        if isinstance(x, ExactScalar):
            return x
        if isinstance(x, GaussianRational):
            return ExactScalar.from_gaussian(x)
        if isinstance(x, (int, Fraction)):
            return ExactScalar.from_rational(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to ExactScalar")

    # -- predicates and views -----------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_one(self) -> bool:
        return self._terms == {(0, ()): GaussianRational(1)}

    def is_gaussian(self) -> bool:
        """True when the value lies in Q(i) (no T, no logs)."""
        return not self._terms or set(self._terms) == {(0, ())}

    def is_rational(self) -> bool:
        return self.is_gaussian() and (self.is_zero() or self.gaussian_part().is_real())

    def gaussian_part(self) -> GaussianRational:
        """The coefficient of T^0 with no log factors."""
        return self._terms.get((0, ()), GaussianRational(0))

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not a rational number")
        return self.gaussian_part().re

    def as_gaussian(self) -> GaussianRational:
        if not self.is_gaussian():
            raise ValueError(f"{self} is not a Gaussian rational")
        return self.gaussian_part()

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def monomial_parts(self):
        """Return (coefficient, tau_exponent, logs) for a single-term scalar."""
        if not self.is_monomial():
            raise ValueError(f"{self} is not a monomial")
        (key, coeff), = self._terms.items()
        return coeff, key[0], key[1]

    def terms(self):
        """Iterate (tau_exponent, logs, coefficient) in canonical order."""
        for key in sorted(self._terms, key=lambda k: (k[0], k[1])):
            yield key[0], key[1], self._terms[key]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        terms = dict(self._terms)
        for key, coeff in o._terms.items():
            if key in terms:
                c = terms[key] + coeff
                if c.is_zero():
                    del terms[key]
                else:
                    terms[key] = c
            else:
                terms[key] = coeff
        out = ExactScalar.__new__(ExactScalar)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = ExactScalar.__new__(ExactScalar)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return o + (-self)

    @staticmethod
    def _merge_logs(a, b):
        logs = dict(a)
        for p, e in b:
            logs[p] = logs.get(p, 0) + e
        return tuple(sorted((p, e) for p, e in logs.items() if e))

    def __mul__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        terms: dict = {}
        for (t1, l1), c1 in self._terms.items():
            for (t2, l2), c2 in o._terms.items():
                key = (t1 + t2, self._merge_logs(l1, l2))
                c = c1 * c2
                if key in terms:
                    c = terms[key] + c
                if c.is_zero():
                    terms.pop(key, None)
                else:
                    terms[key] = c
        out = ExactScalar.__new__(ExactScalar)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if not o.is_monomial():
            raise UnsupportedDivisionError(
                f"can only divide by a monomial scalar, not {o}",
                divisor=str(o),
            )
        coeff, tau, logs = o.monomial_parts()
        neg_logs = tuple((p, -e) for p, e in logs)
        terms: dict = {}
        for (t, l), c in self._terms.items():
            new_logs = self._merge_logs(l, neg_logs)
            if any(e < 0 for _, e in new_logs):
                raise UnsupportedDivisionError(
                    f"division of {self} by {o} leaves a negative log exponent",
                    divisor=str(o),
                )
            terms[(t - tau, new_logs)] = c / coeff
        out = ExactScalar.__new__(ExactScalar)
        out._terms = terms
        return out

    def __rtruediv__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return ExactScalar.from_rational(1) / self ** (-n)
        out = ExactScalar.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- equality, hashing, ordering ----------------------------------------

    def _canonical(self):
        return tuple(
            (k[0], k[1], self._terms[k].re, self._terms[k].im)
            for k in sorted(self._terms, key=lambda k: (k[0], k[1]))
        )

    def __eq__(self, other):
        try:
            o = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        return self._terms == o._terms

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._canonical())
            return self._hash

    def sort_key(self):
        return self._canonical()

    # -- geometry helpers (used for passage moulds and collinearity) ---------

    def ray_direction(self) -> GaussianRational:
        """For a monomial with no log factors, a Gaussian rational pointing
        along the same ray from the origin: coeff * i^tau_exp.

        T^k = (2*pi)^k * i^k and (2*pi)^k > 0, so the direction only depends
        on the coefficient and on i^k.
        """
        coeff, tau, logs = self.monomial_parts()
        if logs:
            raise ValueError(f"{self} has log factors; its ray is not exact")
        return coeff * GaussianRational(0, 1) ** (tau % 4)

    def same_ray(self, other: "ExactScalar") -> bool:
        """Exact test: do self and other lie on the same open ray from 0?"""
        u = self.ray_direction()
        v = ExactScalar.coerce(other).ray_direction()
        w = u * v.conjugate()
        return w.im == 0 and w.re > 0

    def arg(self, prec: int = 53):
        """Numeric principal argument in (-pi, pi], as an mpmath mpf."""
        import mpmath

        val = self.evaluate(prec)
        if val == 0:
            raise ValueError("argument of zero")
        with mpmath.workprec(prec):
            return mpmath.arg(val)

    # -- numerics -----------------------------------------------------------

    def evaluate(self, prec: int = 53):
        """Numeric value as an mpmath mpc at binary precision ``prec``."""
        import mpmath

        with mpmath.workprec(prec + 16):
            tau_val = 2 * mpmath.pi * mpmath.mpc(0, 1)
            total = mpmath.mpc(0)
            for (t, logs), c in self._terms.items():
                term = mpmath.mpc(
                    mpmath.mpf(c.re.numerator) / c.re.denominator,
                    mpmath.mpf(c.im.numerator) / c.im.denominator,
                )
                if t:
                    term *= tau_val**t
                for p, e in logs:
                    term *= mpmath.log(mpmath.mpf(p)) ** e
                total += term
        with mpmath.workprec(prec):
            return +total

    def __complex__(self):
        return complex(self.evaluate(64))

    # -- text and JSON ------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for t, logs, c in self.terms():
            factors = [f"({c})"]
            if t == 1:
                factors.append("T")
            elif t:
                factors.append(f"T^{t}")
            for p, e in logs:
                factors.append(f"ln{p}" if e == 1 else f"ln{p}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<ExactScalar {self}>"

    def to_json(self) -> dict:
        return {
            "terms": [
                {
                    "tau": t,
                    "logs": [[p, e] for p, e in logs],
                    "re": str(c.re),
                    "im": str(c.im),
                }
                for t, logs, c in self.terms()
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "ExactScalar":
        terms = {}
        for item in data["terms"]:
            key = (int(item["tau"]), tuple((int(p), int(e)) for p, e in item["logs"]))
            terms[key] = GaussianRational(Fraction(item["re"]), Fraction(item["im"]))
        return cls(terms)


_TERM_RE = _re.compile(
    r"^\((?P<coeff>[^()]*)\)"
    r"(?P<factors>(?:\*(?:T(?:\^-?\d+)?|ln\d+(?:\^\d+)?))*)$"
)


def parse_scalar(text: str) -> ExactScalar:
    """Parse the text form produced by ``ExactScalar.__str__``.

    Also accepts a bare Gaussian rational (``3/2-i``) and the shorthand
    names ``T`` and ``2pii`` for 2*pi*i.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty scalar")
    if s in ("T", "2pii"):
        return ExactScalar.tau()
    if "(" not in s:
        return ExactScalar.from_gaussian(parse_gaussian(s))
    total = ExactScalar()
    for chunk in s.split(" + "):
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse scalar term {chunk!r}")
        coeff = parse_gaussian(m.group("coeff"))
        tau = 0
        logs: dict[int, int] = {}
        factors = m.group("factors")
        for f in factors.split("*"):
            if not f:
                continue
            if f.startswith("T"):
                tau += int(f[2:]) if f.startswith("T^") else 1
            elif f.startswith("ln"):
                if "^" in f:
                    base, exp = f[2:].split("^")
                    logs[int(base)] = logs.get(int(base), 0) + int(exp)
                else:
                    logs[int(f[2:])] = logs.get(int(f[2:]), 0) + 1
            else:
                raise ValueError(f"unknown factor {f!r} in scalar term {chunk!r}")
        key = (tau, tuple(sorted(logs.items())))
        total = total + ExactScalar({key: coeff})
    return total


ZERO = ExactScalar()
ONE = ExactScalar.from_rational(1)
TAU = ExactScalar.tau()
I_PI = ExactScalar.i_pi()
