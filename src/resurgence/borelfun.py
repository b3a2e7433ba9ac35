"""Representable Borel transforms: exact germs, branches, singularities.

The Borel plane objects the symbolic layer works with are built from a few
closed shapes, each carried exactly:

* :class:`RationalBF`: a rational function with factored denominator over a
  declared pole set (numerators and roots are exact scalars);
* :class:`LogPoleBF`: r_0(zeta) + sum of r_i(zeta) * log(1 - zeta/a_i), the
  shape produced by convolving simple poles, with an integer branch index
  per logarithm;
* :class:`StirlingBF`: the meromorphic minor zeta^-2 (zeta/2 coth(zeta/2) - 1)
  with its lattice of simple poles at 2*pi*i*k;
* :class:`DilogBF`: the dilogarithm minor with its loop monodromy at 1;
* :class:`PowerBF`: g(sigma) zeta^(sigma-1) (optionally times log zeta) for
  fractional-power monomials, evaluated in polar form so Hankel contours can
  track the argument continuously.

Each shape carries two interfaces.  The *exact* one, with defaults in
:class:`BorelFunction`, is what extraction and the alien operators read:

* ``log_form()`` gives (rational, [(a, r, k), ...]) for a shape that is a
  rational function plus rational multiples r of Log(1 - zeta/a) +
  2*pi*i*k, and None otherwise;
* ``singularity_at(omega)`` gives (a_0, chi) at omega on the current
  branch, ``taylor(order)`` the Taylor coefficients at the origin, and
  ``divide_linear(p)`` the shape divided by (zeta - p).  The defaults read
  all three off ``log_form`` and normalise through :func:`log_shape`; a
  shape without a log form refuses them with NotImplementedError unless
  it overrides them, as Stirling and the dilogarithm do for the first two;
* ``_with_branch_updates`` continues the shape past detours and loops.  The
  default returns the shape itself when it is ``single_valued`` or the
  path crosses nothing, and refuses any other path.

The *numeric* one holds the evaluators and the summation rules that
:mod:`.laplace` sums every shape through (``numeric_evaluator``,
``panel_sampler``, ``ellipse_rule``, ``tail_rule``, ...).  Their code is
in :mod:`._borelnum`, which imports mpmath and the spectral kernel and
sets each rule on its shape class; this module imports neither.
:mod:`.laplace` loads it at import, and otherwise a shape loads it on
its first numeric call (``BorelFunction.__getattr__``), so extraction,
continuation and convolution run without mpmath.  The one numeric method
here, ``RationalFunction.numeric_evaluator``, imports mpmath itself.

Branch bookkeeping follows one convention throughout the package: the
principal branch uses arg in (-pi, pi], a "+" detour passes *below* the
singular point (to the right when traveling outward), and a full
counterclockwise loop adds one to a log's branch integer k, the branch value
being  principal + 2*pi*i*k.  With that convention a "+" detour at a point
leaves k unchanged (the on-cut principal value is already the lower-side
limit continued through), while a "-" detour subtracts one.

``extract_singularity`` continues a shape along a path to omega and asks
the branch reached for its simple-singularity data there: the polar
weight a_0 and the log coefficient chi with

    f(omega + xi) = a_0 / (2*pi*i*xi) + chi(xi) log(xi) / (2*pi*i) + F(xi),

where F is branch-dependent and never stored.  Exactness policy: a_0 and
chi come out in the scalar ring whenever the configuration is collinear
with rational ratios (the supported calculus); genuinely non-simple input
raises :class:`~resurgence.errors.NotSimpleError`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._record import Record
from .errors import NotSimpleError, UnreachableBranchError
from .scalars import ExactScalar
from .series import (BorelSeries, _bernoulli, _binom_neg, _convolution,
                     _product)

__all__ = [
    "RationalFunction",
    "BorelFunction",
    "RationalBF",
    "LogPoleBF",
    "StirlingBF",
    "DilogBF",
    "PowerBF",
    "PathSpec",
    "SingularityData",
    "log_shape",
    "points_between",
    "continue_along",
    "continue_eval",
    "extract_singularity",
    "convolve",
    "euler_minor",
    "stirling_minor",
    "dilog_minor",
    "power_minor",
]


# -- exact univariate polynomial helpers (coefficient lists, index = power) --------


def _poly_trim(p):
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def _poly_divmod(num, den):
    """Exact polynomial division; the leading denominator coefficient must
    divide in the scalar ring (it is a monomial in every supported flow)."""
    den = _poly_trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    num = list(num)
    quot = [ExactScalar()] * max(0, len(num) - len(den) + 1)
    while True:
        num = _poly_trim(num)
        if len(num) < len(den):
            return _poly_trim(quot), num
        shift = len(num) - len(den)
        c = num[-1] / den[-1]
        quot[shift] = quot[shift] + c
        for i, d in enumerate(den):
            num[shift + i] = num[shift + i] - c * d


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else ExactScalar()
        b = q[i] if i < len(q) else ExactScalar()
        out.append(a + b)
    return _poly_trim(out)


def _poly_scale(p, c):
    return _poly_trim([v * c for v in p])


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [ExactScalar() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return _poly_trim(out)


def _poly_eval(p, x: ExactScalar) -> ExactScalar:
    acc = ExactScalar()
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_shift(p, a: ExactScalar):
    """Coefficients of p(x + a) (recentring at a)."""
    out = [ExactScalar() for _ in p]
    for k, c in enumerate(p):
        if c.is_zero():
            continue
        # (x + a)^k = sum of C(k, j) a^(k-j) x^j
        for j in range(k + 1):
            out[j] = out[j] + c * math.comb(k, j) * a ** (k - j)
    return _poly_trim(out)


class RationalFunction:
    """num(zeta) / (lead * product over poles of (zeta - p)^m), all exact.

    The denominator stays factored over its declared pole set; that keeps
    residues and local expansions exact without polynomial factoring.
    """

    def __init__(self, num, poles=None, lead=1):
        self.num = _poly_trim([ExactScalar.coerce(c) for c in num])
        clean = {}
        for p, m in (poles or {}).items():
            p = ExactScalar.coerce(p)
            if m < 0:
                raise ValueError("pole multiplicities must be >= 0")
            if m:
                clean[p] = clean.get(p, 0) + m
        self.poles = clean
        self.lead = ExactScalar.coerce(lead)
        if self.lead.is_zero():
            raise ZeroDivisionError("zero leading denominator coefficient")
        if not self.num:
            self.poles = {}
            self.lead = ExactScalar.from_rational(1)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls) -> "RationalFunction":
        return cls([])

    @classmethod
    def constant(cls, c) -> "RationalFunction":
        return cls([c])

    @classmethod
    def simple_pole(cls, p, residue=1) -> "RationalFunction":
        """residue / (zeta - p)."""
        return cls([residue], poles={p: 1})

    def is_zero(self) -> bool:
        return not self.num

    def denominator_poly(self):
        den = [self.lead]
        for p, m in self.poles.items():
            lin = [-ExactScalar.coerce(p), ExactScalar.from_rational(1)]
            for _ in range(m):
                den = _poly_mul(den, lin)
        return den

    # -- arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        # common denominator: union of pole multiplicities
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = max(poles.get(p, 0), m)
        lead = self.lead * other.lead

        def lift(rf, cofactor):
            extra = [cofactor]
            for p, m in poles.items():
                need = m - rf.poles.get(p, 0)
                lin = [-p, ExactScalar.from_rational(1)]
                for _ in range(need):
                    extra = _poly_mul(extra, lin)
            return _poly_mul(rf.num, extra)

        num = _poly_add(lift(self, other.lead), lift(other, self.lead))
        return RationalFunction(num, poles=poles, lead=lead)

    def __neg__(self):
        return RationalFunction(_poly_scale(self.num, -1), poles=self.poles,
                                lead=self.lead)

    def __sub__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        poles = dict(self.poles)
        for p, m in other.poles.items():
            poles[p] = poles.get(p, 0) + m
        return RationalFunction(
            _poly_mul(self.num, other.num), poles=poles,
            lead=self.lead * other.lead,
        )

    def scale(self, c) -> "RationalFunction":
        return RationalFunction(_poly_scale(self.num, c), poles=self.poles,
                                lead=self.lead)

    def divide_linear(self, p) -> "RationalFunction":
        """Divide by (zeta - p)."""
        poles = dict(self.poles)
        key = ExactScalar.coerce(p)
        poles[key] = poles.get(key, 0) + 1
        return RationalFunction(self.num, poles=poles, lead=self.lead)

    # -- analysis -------------------------------------------------------------------

    def _reduced_at(self, p):
        """(numerator, multiplicity) at p after cancelling numerator zeros."""
        m = self.poles.get(p, 0)
        num = self.num
        while m > 0 and num and _poly_eval(num, p).is_zero():
            # divide num by (zeta - p) synthetically; the remainder is 0
            quotient = []
            carry = ExactScalar()
            for c in reversed(num):
                carry = carry * p + c
                quotient.append(carry)
            num = _poly_trim(list(reversed(quotient[:-1])))
            m -= 1
        return num, m

    def pole_order(self, p) -> int:
        p = ExactScalar.coerce(p)
        return self._reduced_at(p)[1]

    def residue(self, p) -> ExactScalar:
        """Residue at a simple pole p (exact)."""
        p = ExactScalar.coerce(p)
        num, m = self._reduced_at(p)
        if m > 1:
            raise NotSimpleError(f"pole of order {m} at {p}", point=str(p),
                                 order=m)
        if m == 0:
            return ExactScalar()
        denom = self.lead
        for q, mq in self.poles.items():
            if q != p:
                denom = denom * (p - q) ** mq
        return _poly_eval(num, p) / denom

    def exact_eval(self, x) -> ExactScalar:
        x = ExactScalar.coerce(x)
        denom = self.lead
        for p, m in self.poles.items():
            diff = x - p
            if diff.is_zero():
                raise ZeroDivisionError(f"evaluation at pole {p}")
            denom = denom * diff**m
        return _poly_eval(self.num, x) / denom

    def numeric_evaluator(self, prec: int = 53):
        """A closure z -> value rounded to ``prec`` bits.

        The coefficients, the leading factor and the poles are evaluated
        once, at the prec + 16 bits the arithmetic runs at, so a caller
        that samples many points pays for the exact constants once.
        """
        import mpmath

        work = prec + 16
        coeffs = [c.evaluate(work) for c in reversed(self.num)]
        lead = self.lead.evaluate(work)
        poles = [(p.evaluate(work), m) for p, m in self.poles.items()]

        def evaluate(z):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(z)
                val = mpmath.mpc(0)
                for c in coeffs:
                    val = val * zv + c
                den = lead
                for p, m in poles:
                    den *= (zv - p) ** m
                out = val / den
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def numeric_eval(self, z, prec: int = 53):
        return self.numeric_evaluator(prec)(z)

    def taylor_at(self, center, order: int):
        """Exact Taylor coefficients at a regular point, as a list."""
        center = ExactScalar.coerce(center)
        num_local = _poly_shift(self.num, center)
        num_local += [ExactScalar()] * max(0, order + 1 - len(num_local))
        series = num_local[: order + 1]
        inv_lead = ExactScalar.from_rational(1) / self.lead
        series = [c * inv_lead for c in series]
        for p, m in self.poles.items():
            base = center - p
            if base.is_zero():
                raise ZeroDivisionError(f"Taylor expansion at the pole {p}")
            # 1/(xi + base)^m = base^-m * sum of C(-m, k) (xi/base)^k
            inv = [base ** (-(m + k)) * _binom_neg(m, k)
                   for k in range(order + 1)]
            series = _product(series, inv, order)
        return series

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        left = _poly_mul(self.num, other.denominator_poly())
        right = _poly_mul(other.num, self.denominator_poly())
        return left == right

    def __repr__(self):
        if self.is_zero():
            return "<RationalFunction 0>"
        ps = ", ".join(f"{p}^{m}" if m > 1 else f"{p}"
                       for p, m in self.poles.items())
        return f"<RationalFunction deg {len(self.num) - 1} / poles [{ps}]>"


# -- path specifications -----------------------------------------------------------


class PathSpec(Record, frozen=True):
    """A continuation path: the straight segment from 0 toward ``target``,
    with one sign per singular point crossed strictly inside the segment
    ("+" passes below, "-" above), plus optional full loops (point, turns)
    appended at the end (positive turns are counterclockwise).
    """

    target: object
    signs: tuple = ()
    loops: tuple = ()

    def __post_init__(self):
        for s in self.signs:
            if s not in ("+", "-", 1, -1):
                raise ValueError(f"detour sign must be '+' or '-', got {s!r}")

    def sign_values(self):
        return tuple(1 if s in ("+", 1) else -1 for s in self.signs)


def _segment_ratio(point: ExactScalar, target: ExactScalar):
    """Exact ratio point/target when it is a rational in (0, 1), else None."""
    try:
        q = point / target
    except Exception:
        return None
    if not q.is_rational():
        return None
    r = q.as_fraction()
    if 0 < r < 1:
        return r
    return None


def _intermediate_points(singular, target):
    """Singular points strictly inside the segment (0, target), in order."""
    found = []
    for s in singular:
        r = _segment_ratio(ExactScalar.coerce(s), ExactScalar.coerce(target))
        if r is not None:
            found.append((r, ExactScalar.coerce(s)))
    found.sort(key=lambda t: t[0])
    return [s for _, s in found]


# -- the Borel function variants ------------------------------------------------------


# the numeric rules, which :mod:`._borelnum` sets on the shape classes
_NUMERIC_RULES = frozenset({
    "numeric_eval", "numeric_evaluator", "polar_evaluator",
    "singular_values", "tail_rule", "ellipse_rule", "origin_head",
    "panel_sampler", "g_value", "g_prime_value", "_factors"})


class BorelFunction:
    """Base class of the Borel shapes.  A shape implements
    ``singular_points`` and ``numeric_evaluator``, plus ``log_form`` when it
    has one, and a proved ``tail_rule`` and ``ellipse_rule`` to be summed;
    the module docstring says what the exact defaults below do with them,
    and :mod:`._borelnum` what the numeric ones do."""

    # one sheet: both rays of a Hankel contour see the same values
    single_valued = False
    # the shape is the function it stands for, not a fitted model
    certified = True

    def __getattr__(self, name):
        """A numeric rule read before :mod:`._borelnum` is loaded: loading
        it sets the rules on the shape classes, so every later read finds
        them without this hook."""
        if name not in _NUMERIC_RULES:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}")
        from . import _borelnum  # noqa: F401
        return object.__getattribute__(self, name)

    def singular_points(self):
        raise NotImplementedError

    def points_within(self, omega: ExactScalar):
        """The singular points, at least all those that can lie inside the
        segment (0, omega): every shape but Stirling's lattice lists all
        of them."""
        return self.singular_points()

    def _with_branch_updates(self, passed_with_signs, loops):
        """Return a copy continued past the given (point, sign) list and
        loops; a single-valued shape is its own continuation."""
        if self.single_valued or not (passed_with_signs or loops):
            return self
        raise UnreachableBranchError(
            f"{type(self).__name__} carries no branch state for this path"
        )

    # -- the exact interface -------------------------------------------------

    def log_form(self):
        """(rational, [(a, r, k), ...]) when the shape is rational(zeta) plus
        the sum of r(zeta) [Log(1 - zeta/a) + 2*pi*i*k], else None."""
        return None

    def _exact_form(self, rule: str):
        form = self.log_form()
        if form is None:
            raise NotImplementedError(
                f"{type(self).__name__} has no exact {rule} rule")
        return form

    def singularity_at(self, omega: ExactScalar):
        """(a_0, chi) at omega on this branch: the polar weight and the log
        coefficient as a shape, or None when it vanishes."""
        rational, terms = self._exact_form("extraction")
        tau = ExactScalar.tau()
        a0 = tau * rational.residue(omega)
        chi = RationalFunction.zero()
        for a, r, k in terms:
            if a == omega:
                if r.pole_order(omega) > 0:
                    raise NotSimpleError(
                        f"log coefficient at {omega} is itself singular there",
                        point=str(omega),
                    )
                # r(omega + xi) log(-xi/omega): the log(xi) part feeds chi,
                # the branch constant multiplies an analytic factor (-> F)
                shifted = RationalFunction(
                    _poly_shift(r.num, omega),
                    poles={p - omega: m for p, m in r.poles.items()},
                    lead=r.lead,
                )
                chi = chi + shifted.scale(tau)
            else:
                rho = r.residue(omega)
                if not rho.is_zero():
                    a0 = a0 + tau * rho * _log_value(a, k, omega)
        return a0, (None if chi.is_zero() else RationalBF(chi))

    def taylor(self, order: int) -> BorelSeries:
        """Exact Taylor coefficients at the origin through ``order``."""
        rational, terms = self._exact_form("Taylor")
        coeffs = rational.taylor_at(ExactScalar(), order)
        for a, r, k in terms:
            # Log(1 - zeta/a) = - sum over m >= 1 of (zeta/a)^m / m
            logs = [ExactScalar.tau() * k]
            for m in range(1, order + 1):
                logs.append(a ** (-m) * Fraction(-1, m))
            rloc = r.taylor_at(ExactScalar(), order)
            prod = _product(rloc, logs, order)
            coeffs = [c + p for c, p in zip(coeffs, prod)]
        return BorelSeries(0, coeffs)

    def divide_linear(self, p) -> "BorelFunction":
        """The shape divided by (zeta - p)."""
        rational, terms = self._exact_form("division")
        return log_shape(rational.divide_linear(p),
                         [(a, r.divide_linear(p), k) for a, r, k in terms])


def _log_value(a: ExactScalar, k: int, point: ExactScalar) -> ExactScalar:
    """Exact branch value of Log(1 - point/a) + 2*pi*i*k.

    Supported when w = 1 - point/a is a nonzero rational: the value is
    log|w| (+ i*pi if w < 0) + 2*pi*i*k.  Other configurations are not
    representable in the scalar ring and raise ValueError.
    """
    w = ExactScalar.from_rational(1) - point / a
    if not w.is_rational() or w.is_zero():
        raise ValueError(
            f"branch value of log at {point} (base point {a}) is "
            f"not representable in the scalar ring"
        )
    q = w.as_fraction()
    if q > 0:
        val = ExactScalar.log_rational(q)
    else:
        val = ExactScalar.log_rational(-q) + ExactScalar.i_pi()
    return val + ExactScalar.tau() * k


def log_shape(rational: RationalFunction, log_terms) -> BorelFunction:
    """rational + the sum of r [Log(1 - zeta/a) + 2*pi*i*k] over the
    (a, r, k) terms: a LogPoleBF, or a RationalBF when no nonzero log term
    is left."""
    shape = LogPoleBF(rational, log_terms)
    return shape if shape.log_terms else RationalBF(rational)


class RationalBF(BorelFunction):
    single_valued = True

    def __init__(self, rat: RationalFunction):
        self.rat = rat

    def singular_points(self):
        return [p for p in self.rat.poles if self.rat.pole_order(p) > 0]

    def log_form(self):
        return self.rat, []

    def __repr__(self):
        return f"<RationalBF {self.rat!r}>"


class LogPoleBF(BorelFunction):
    """r_0(zeta) + sum of r_i(zeta) * [Log(1 - zeta/a_i) + 2*pi*i*k_i]."""

    def __init__(self, rational_part: RationalFunction, log_terms):
        self.rational_part = rational_part
        terms = []
        seen = set()
        for item in log_terms:
            if len(item) == 2:
                a, r = item
                k = 0
            else:
                a, r, k = item
            a = ExactScalar.coerce(a)
            if a.is_zero():
                raise ValueError("log branch point at the origin is not allowed")
            if a in seen:
                raise ValueError(f"duplicate log branch point {a}")
            seen.add(a)
            if not r.is_zero():
                terms.append((a, r, int(k)))
        self.log_terms = terms

    def singular_points(self):
        pts = {p for p in self.rational_part.poles
               if self.rational_part.pole_order(p) > 0}
        for a, r, _k in self.log_terms:
            pts.add(a)
            pts.update(p for p in r.poles if r.pole_order(p) > 0)
        return sorted(pts, key=lambda s: s.sort_key())

    def log_form(self):
        return self.rational_part, self.log_terms

    def _with_branch_updates(self, passed_with_signs, loops):
        ks = {a: k for a, _r, k in self.log_terms}
        for point, sign in passed_with_signs:
            if point in ks:
                # "+" (below) continues onto the principal on-cut branch,
                # "-" (above) drops one full turn
                if sign < 0:
                    ks[point] = ks[point] - 1
        for point, turns in loops:
            point = ExactScalar.coerce(point)
            if point in ks:
                ks[point] = ks[point] + int(turns)
            elif point not in self.singular_points():
                raise UnreachableBranchError(
                    f"loop around {point}, which is not a singular point",
                    point=str(point),
                )
        return LogPoleBF(
            self.rational_part,
            [(a, r, ks[a]) for a, r, _k in self.log_terms],
        )

    def __repr__(self):
        pts = ", ".join(f"{a}(k={k})" for a, _r, k in self.log_terms)
        return f"<LogPoleBF logs at [{pts}]>"


class StirlingBF(BorelFunction):
    """zeta^-2 (zeta/2 coth(zeta/2) - 1): simple poles at 2*pi*i*k, k != 0,
    with residue 1/(2*pi*i*k); single-valued.

    ``singular_points`` lists the first ``count`` conjugate pairs, and
    ``points_within`` as many as a path to a given point can cross.  Ray
    sums check the first 48 pairs."""

    single_valued = True

    def singular_points(self, count: int = 8):
        tau = ExactScalar.tau()
        out = []
        for k in range(1, count + 1):
            out.append(tau * k)
            out.append(tau * (-k))
        return out

    def points_within(self, omega: ExactScalar):
        """The pairs up to |omega / (2 pi i)| when that is rational: a point
        2 pi i k lies in (0, omega) at a rational ratio only then, with
        |k| below it."""
        q = omega / ExactScalar.tau()
        if not q.is_rational():
            return []
        return self.singular_points(count=int(abs(q.as_fraction())) + 1)

    def singularity_at(self, omega: ExactScalar):
        # a simple pole at omega = 2*pi*i*k, k != 0, residue 1/(2*pi*i*k)
        tau = ExactScalar.tau()
        q = omega / tau
        k = q.as_fraction() if q.is_rational() else Fraction(0)
        if k == 0 or k.denominator != 1:
            return ExactScalar(), None
        return tau * (ExactScalar.tau(-1) / int(k)), None

    def taylor(self, order: int) -> BorelSeries:
        coeffs = []
        for n in range(order + 1):
            if n % 2 == 1:
                coeffs.append(ExactScalar())
            else:
                k = n // 2
                coeffs.append(ExactScalar.from_rational(
                    _bernoulli(2 * k + 2) / math.factorial(2 * k + 2)))
        return BorelSeries(0, coeffs)

    def __repr__(self):
        return "<StirlingBF>"


class DilogBF(BorelFunction):
    """The dilogarithm sum of zeta^n / n^2, with loop monodromy at 1:
    each counterclockwise loop adds -2*pi*i*log(zeta), so the state is the
    loop count n (and the continued function then has a log branch point at
    the origin, carried by the secondary index m)."""

    def __init__(self, n: int = 0, m: int = 0):
        self.n = int(n)
        self.m = int(m)

    def singular_points(self):
        pts = [ExactScalar.from_rational(1)]
        if self.n:
            pts.insert(0, ExactScalar())
        return pts

    def _with_branch_updates(self, passed_with_signs, loops):
        n, m = self.n, self.m
        one = ExactScalar.from_rational(1)
        for point, sign in passed_with_signs:
            if point == one and sign < 0:
                # passing above the cut lands one sheet down, exactly as for
                # the plain logarithm
                n -= 1
        for point, turns in loops:
            point = ExactScalar.coerce(point)
            if point == one:
                n += int(turns)
            elif point.is_zero():
                m += int(turns)
            else:
                raise UnreachableBranchError(
                    f"the dilogarithm has no singular point at {point}",
                    point=str(point),
                )
        return DilogBF(n, m)

    def singularity_at(self, omega: ExactScalar):
        tau = ExactScalar.tau()
        if omega == ExactScalar.from_rational(1):
            # Li2(1 + xi) = pi^2/6 - log(1 + xi) log(-xi) - Li2(-xi):
            # chi / (2 pi i) = -log(1 + xi), no polar part
            return ExactScalar(), LogPoleBF(
                RationalFunction.zero(),
                [(-1, RationalFunction.constant(-tau), 0)],
            )
        if omega.is_zero() and self.n:
            # after n loops the germ at the origin is -n * 2*pi*i * log(zeta),
            # so chi = -n * (2*pi*i)^2 as a constant
            return ExactScalar(), RationalBF(
                RationalFunction.constant(tau * tau * (-self.n)))
        return ExactScalar(), None

    def taylor(self, order: int) -> BorelSeries:
        if self.n:
            raise ValueError("no Taylor expansion at 0 after a loop at 1")
        coeffs = [ExactScalar()]
        for k in range(1, order + 1):
            coeffs.append(ExactScalar.from_rational(Fraction(1, k * k)))
        return BorelSeries(0, coeffs)

    def __repr__(self):
        return f"<DilogBF loops={self.n}, origin branch={self.m}>"


class PowerBF(BorelFunction):
    """g(sigma) zeta^(sigma-1), optionally times log(zeta), with

        g(sigma) = e^(i pi sigma) Gamma(1 - sigma) / (2 pi i).

    These are the Borel shapes of the pure monomials z^-sigma and
    -z^-sigma log z.  Evaluation is polar: the caller supplies modulus and a
    *continuous* argument, so contours that wind around the origin stay on
    the right branch by construction.
    """

    def __init__(self, sigma, with_log: bool = False):
        self.sigma = Fraction(sigma)
        if self.sigma.denominator == 1:
            raise ValueError("sigma must be non-integer (integers are poles "
                             "of the normalization)")
        self.with_log = bool(with_log)

    def singular_points(self):
        return [ExactScalar()]

    def __repr__(self):
        return f"<PowerBF sigma={self.sigma}{' with log' if self.with_log else ''}>"


# -- continuation and extraction -------------------------------------------------------


def points_between(f: BorelFunction, omega) -> list:
    """Singular points of f strictly inside the segment (0, omega), in order.

    Membership is decided exactly: a point s counts when s/omega is a
    rational number in (0, 1) in the scalar ring."""
    omega = ExactScalar.coerce(omega)
    return _intermediate_points(f.points_within(omega), omega)


def continue_along(f: BorelFunction, path: PathSpec) -> BorelFunction:
    """The branch of f reached along the path (see PathSpec)."""
    target = ExactScalar.coerce(path.target)
    inter = points_between(f, target)
    signs = path.sign_values()
    if len(signs) != len(inter):
        raise UnreachableBranchError(
            f"path to {target} crosses {len(inter)} singular point(s) "
            f"{[str(s) for s in inter]} but {len(signs)} sign(s) were given",
            expected=len(inter),
            given=len(signs),
        )
    return f._with_branch_updates(list(zip(inter, signs)), tuple(
        (ExactScalar.coerce(p), t) for p, t in path.loops
    ))


def continue_eval(f: BorelFunction, path: PathSpec, zeta=None, prec: int = 53):
    """Numeric value of the continued branch, at the path target by default."""
    g = continue_along(f, path)
    point = path.target if zeta is None else zeta
    point_val = point.evaluate(prec) if isinstance(point, ExactScalar) else point
    return g.numeric_eval(point_val, prec)


class SingularityData(Record):
    """Simple-singularity data at a point reached along a path.

    ``a0`` is the coefficient of 1/(2*pi*i*xi); ``chi`` is the exact log
    coefficient (a BorelFunction, or None when it vanishes); ``chi_series``
    its Taylor expansion; the regular remainder is branch-dependent and
    deliberately not part of the data.
    """

    point: ExactScalar
    a0: ExactScalar
    chi: BorelFunction | None
    chi_series: BorelSeries
    path: PathSpec


def extract_singularity(f: BorelFunction, omega, signs=(), order: int = 8,
                        loops=()) -> SingularityData:
    """Extract (a_0, chi) at omega along the path with the given detour signs."""
    omega = ExactScalar.coerce(omega)
    path = PathSpec(target=omega, signs=tuple(signs), loops=tuple(loops))
    a0, chi = continue_along(f, path).singularity_at(omega)
    series = (chi.taylor(order) if chi is not None
              else BorelSeries(0, [ExactScalar()] * (order + 1)))
    return SingularityData(omega, a0, chi, series, path)


# -- convolution --------------------------------------------------------------------


def _split(r: RationalFunction):
    """(polynomial part, [(pole, residue), ...]) of a rational function
    with simple poles, by exact partial fractions; a pole whose residue is
    zero is removable and is left out."""
    for p in r.poles:
        if r.pole_order(p) > 1:
            raise NotImplementedError("convolution needs simple poles")
    quot, rem = _poly_divmod(r.num, r.denominator_poly())
    proper = RationalFunction(rem, poles=r.poles, lead=r.lead)
    residues = ((p, proper.residue(p)) for p in r.poles)
    return quot, [(p, rho) for p, rho in residues if not rho.is_zero()]


def convolve(f: BorelFunction, g: BorelFunction) -> BorelFunction:
    """Convolution product (f * g)(zeta) = integral of f(u) g(zeta-u).

    Each factor is split once into its polynomial part and its (pole,
    residue) pairs, and the result sums one rule per pair of pieces:
    polynomial x polynomial is the :func:`.series._convolution` of the
    coefficient lists, and simple pole x polynomial is a log term plus a
    polynomial (:func:`_pole_convolve_poly_part`).  Two factors that both
    keep a pole with nonzero residue are refused; a removable pole does
    not count.  The result is a LogPoleBF, or a RationalBF when no residue
    is left (:func:`log_shape`); everything stays exact.
    """
    if not isinstance(f, RationalBF) or not isinstance(g, RationalBF):
        raise TypeError("convolve supports rational shapes only")
    fpoly, fpoles = _split(f.rat)
    gpoly, gpoles = _split(g.rat)
    if fpoles and gpoles:
        raise NotImplementedError(
            "convolution of two singular factors is outside the supported shapes"
        )
    out_poly = _poly_trim(
        _convolution(fpoly, gpoly, len(fpoly) + len(gpoly) - 1))
    log_terms = []
    for poles, poly in ((fpoles, gpoly), (gpoles, fpoly)):
        for p, rho in poles:
            # (rho/(u - p)) * poly
            #     = rho poly(zeta - p) Log(1 - zeta/p) + a polynomial
            shifted = _poly_scale(_poly_shift(poly, -p), rho)
            log_terms.append((p, RationalFunction(shifted), 0))
            out_poly = _poly_add(out_poly,
                                 _pole_convolve_poly_part(p, rho, poly))
    return log_shape(RationalFunction(out_poly), log_terms)


def _pole_convolve_poly_part(p: ExactScalar, rho: ExactScalar, gpoly):
    """The polynomial remainder of (rho/(u-p)) * g for polynomial g.

    In y = zeta - p and v = u - p, g(zeta - u) = g(y - v) is the sum over
    m of g^(m)(y)/m! (-v)^m.  The m = 0 term gives the log; each m >= 1
    term integrates v^(m-1) from v = -p to y, so the remainder is

        rho * sum over m >= 1 of (-1)^m/m g^(m)(y)/m! (y^m - (-p)^m),

    built in y and recentred at zeta once.
    """
    out = [ExactScalar() for _ in gpoly]
    for m in range(1, len(gpoly)):
        coeff = rho * Fraction((-1) ** m, m)
        corner = (-p) ** m
        for k, gj in enumerate(gpoly[m:]):
            if gj.is_zero():
                continue
            # the y^k coefficient of g^(m)(y)/m! is C(k+m, m) g_(k+m)
            d = gj * math.comb(k + m, m) * coeff
            out[k + m] = out[k + m] + d
            out[k] = out[k] - d * corner
    return _poly_shift(out, -p)


# -- classical minors -------------------------------------------------------------------


def euler_minor() -> RationalBF:
    """1/(1+zeta), the Borel transform of the Euler series."""
    return RationalBF(RationalFunction.simple_pole(-1, 1))


def stirling_minor() -> StirlingBF:
    return StirlingBF()


def dilog_minor() -> DilogBF:
    return DilogBF()


def power_minor(sigma, with_log: bool = False) -> PowerBF:
    return PowerBF(sigma, with_log=with_log)
