"""Truncated formal series in 1/z and their Borel transforms.

A :class:`FormalSeries` stores exact coefficients c_0..c_N of

    phi(z) = c_0 + c_1 z^-1 + ... + c_N z^-N + O(z^-(N+1)),

the typical asymptotic expansion of a summable function at infinity.  The
order N is the highest stored inverse power; operations track how far the
result is reliable and truncate there.

The Borel transform drops the constant term into a delta coefficient and
divides the rest by factorials:

    B phi = c_0 delta + sum over n >= 0 of (c_{n+1} / n!) zeta^n.

:class:`BorelSeries` stores that delta coefficient and the Taylor
coefficients of the minor.  ``cauchy_product`` implements the convolution

    (f * g)(zeta) = integral from 0 to zeta of f(u) g(zeta - u) du

directly on Taylor coefficients (with the delta parts acting as the unit),
so the morphism property  borel(phi * psi) = cauchy_product(borel phi,
borel psi)  can be tested as two genuinely different computations.

The substitution group: ``substitute(phi, chi)`` computes phi(z + chi(z))
and ``group_inverse(chi)`` solves  psi + chi(z + psi) = 0  order by order,
so that substituting one after the other is the identity.

``predict_coefficients`` turns singularity data (location, leading weight)
into the classical large-order prediction

    c_{n+1} ~ -(1/(2*pi*i)) n! sum over omega of a_omega omega^(-n-1),

exactly in the scalar ring (omega^(-n-1) is a monomial inversion), and
``gevrey_bound`` fits the 1-Gevrey envelope |c_n| <= C M^n n! numerically.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from .scalars import ExactScalar

__all__ = [
    "FormalSeries",
    "BorelSeries",
    "borel",
    "inverse_borel",
    "cauchy_product",
    "substitute",
    "group_inverse",
    "predict_coefficients",
    "gevrey_bound",
    "euler_series",
    "stirling_series",
]


class FormalSeries:
    """Exact truncated series in z^-1 (see module docstring)."""

    def __init__(self, coeffs, order: int | None = None):
        coeffs = [ExactScalar.coerce(c) for c in coeffs]
        if order is None:
            order = len(coeffs) - 1
        if order < 0:
            raise ValueError("order must be >= 0")
        if len(coeffs) < order + 1:
            coeffs = coeffs + [ExactScalar()] * (order + 1 - len(coeffs))
        self.coeffs = coeffs[: order + 1]
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "FormalSeries":
        return cls([], order=order)

    @classmethod
    def constant(cls, value, order: int) -> "FormalSeries":
        return cls([value], order=order)

    @classmethod
    def inverse_power(cls, n: int, order: int, value=1) -> "FormalSeries":
        """value * z^-n as a series of the given order."""
        if n < 0:
            raise ValueError("only inverse powers are representable")
        coeffs = [ExactScalar()] * n + [ExactScalar.coerce(value)]
        return cls(coeffs, order=order)

    def one(self) -> "FormalSeries":
        return FormalSeries.constant(1, self.order)

    def __getitem__(self, n: int) -> ExactScalar:
        if n < 0:
            raise IndexError("no positive powers of z")
        if n > self.order:
            raise IndexError(
                f"coefficient {n} beyond the stored order {self.order}"
            )
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def truncate(self, order: int) -> "FormalSeries":
        if order >= self.order:
            return self
        return FormalSeries(self.coeffs[: order + 1], order=order)

    def agrees_with(self, other: "FormalSeries", order: int | None = None) -> bool:
        n = min(self.order, other.order) if order is None else order
        return all(self[k] == other[k] for k in range(n + 1))

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, FormalSeries):
            order = min(self.order, other.order)
            return FormalSeries(
                [self[n] + other[n] for n in range(order + 1)], order=order,
            )
        try:
            c = ExactScalar.coerce(other)
        except TypeError:
            return NotImplemented
        coeffs = list(self.coeffs)
        coeffs[0] = coeffs[0] + c
        return FormalSeries(coeffs, order=self.order)

    __radd__ = __add__

    def __neg__(self):
        return FormalSeries([-c for c in self.coeffs], order=self.order)

    def __sub__(self, other):
        if isinstance(other, (FormalSeries, int, Fraction, ExactScalar)):
            return self + (-other if isinstance(other, FormalSeries)
                           else -ExactScalar.coerce(other))
        return NotImplemented

    def scale(self, c) -> "FormalSeries":
        c = ExactScalar.coerce(c)
        return FormalSeries([v * c for v in self.coeffs], order=self.order)

    def __mul__(self, other):
        if isinstance(other, FormalSeries):
            order = min(self.order, other.order)
            out = [ExactScalar() for _ in range(order + 1)]
            for i in range(min(self.order, order) + 1):
                ci = self[i]
                if ci.is_zero():
                    continue
                for j in range(min(other.order, order - i) + 1):
                    out[i + j] = out[i + j] + ci * other[j]
            return FormalSeries(out, order=order)
        try:
            return self.scale(other)
        except TypeError:
            return NotImplemented

    __rmul__ = __mul__

    # -- calculus ---------------------------------------------------------------

    def differentiate(self) -> "FormalSeries":
        """d/dz; the result is reliable one order further."""
        out = [ExactScalar()] * (self.order + 2)
        for n in range(1, self.order + 1):
            out[n + 1] = self[n] * (-n)
        return FormalSeries(out, order=self.order + 1)

    def shift(self, k: int) -> "FormalSeries":
        """Multiply by z^-k (k >= 0), or by z^|k| when the leading
        coefficients vanish."""
        if k >= 0:
            coeffs = [ExactScalar()] * k + list(self.coeffs)
            return FormalSeries(coeffs, order=self.order + k)
        m = -k
        if any(not c.is_zero() for c in self.coeffs[:m]):
            raise ValueError(
                f"multiplying by z^{m} needs the first {m} coefficients to vanish"
            )
        return FormalSeries(self.coeffs[m:], order=self.order - m)

    # -- numerics ----------------------------------------------------------------

    def partial_sum(self, z, terms: int | None = None, prec: int = 53):
        """Numeric partial sum at z, using the first ``terms`` coefficients."""
        n_terms = self.order + 1 if terms is None else min(terms, self.order + 1)
        with mpmath.workprec(prec + 16):
            zv = mpmath.mpmathify(z)
            total = mpmath.mpc(0)
            power = mpmath.mpc(1)
            for n in range(n_terms):
                total += self.coeffs[n].evaluate(prec + 16) * power
                power /= zv
        with mpmath.workprec(prec):
            return +total

    # -- misc ---------------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FormalSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, tuple(self.coeffs)))

    def __repr__(self):
        bits = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if n == 0:
                bits.append(f"({c})")
            elif n == 1:
                bits.append(f"({c})/z")
            else:
                bits.append(f"({c})/z^{n}")
        body = " + ".join(bits) if bits else "0"
        return f"<FormalSeries {body} + O(1/z^{self.order + 1})>"

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [c.to_json() for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FormalSeries":
        return cls(
            [ExactScalar.from_json(c) for c in data["coeffs"]],
            order=data["order"],
        )


class BorelSeries:
    """delta coefficient plus the Taylor coefficients of the minor."""

    def __init__(self, delta, taylor):
        self.delta = ExactScalar.coerce(delta)
        self.taylor = [ExactScalar.coerce(t) for t in taylor]

    @property
    def order(self) -> int:
        return len(self.taylor) - 1

    def is_zero(self) -> bool:
        return self.delta.is_zero() and all(t.is_zero() for t in self.taylor)

    def __eq__(self, other):
        return (
            isinstance(other, BorelSeries)
            and self.delta == other.delta
            and self.taylor == other.taylor
        )

    def __repr__(self):
        head = f"({self.delta})*delta + " if not self.delta.is_zero() else ""
        return f"<BorelSeries {head}{len(self.taylor)} Taylor coefficients>"


def borel(phi: FormalSeries) -> BorelSeries:
    """c_0 delta + sum of c_{n+1}/n! zeta^n."""
    taylor = [
        phi[n + 1] / math.factorial(n) for n in range(phi.order)
    ]
    return BorelSeries(phi[0], taylor)


def inverse_borel(b: BorelSeries) -> FormalSeries:
    coeffs = [b.delta] + [
        t * math.factorial(n) for n, t in enumerate(b.taylor)
    ]
    return FormalSeries(coeffs, order=len(b.taylor))


def cauchy_product(f: BorelSeries, g: BorelSeries) -> BorelSeries:
    """Convolution with unit delta, computed from the integral formula."""
    n_out = min(len(f.taylor), len(g.taylor))
    taylor = []
    for n in range(n_out):
        acc = ExactScalar()
        # integral of u^i (zeta-u)^j from 0 to zeta = i! j! / (i+j+1)! zeta^(i+j+1)
        for i in range(n):
            j = n - 1 - i
            acc = acc + f.taylor[i] * g.taylor[j] * Fraction(
                math.factorial(i) * math.factorial(j), math.factorial(n)
            )
        acc = acc + f.delta * g.taylor[n] + g.delta * f.taylor[n]
        taylor.append(acc)
    return BorelSeries(f.delta * g.delta, taylor)


# -- the substitution group -------------------------------------------------------


def _binom_neg(n: int, k: int) -> Fraction:
    """Binomial coefficient C(-n, k) as an exact rational."""
    return Fraction((-1) ** k * math.comb(n + k - 1, k))


def substitute(phi: FormalSeries, chi: FormalSeries) -> FormalSeries:
    """phi(z + chi(z)) as a truncated series.

    Each extra power of chi/z raises the order by at least one, so the
    expansion below terminates at the stored order.
    """
    order = min(phi.order, chi.order)
    out = FormalSeries.zero(order)
    # powers of chi, truncated
    chi_t = chi.truncate(order)
    for n in range(phi.order + 1):
        c = phi[n]
        if c.is_zero():
            continue
        if n == 0:
            out = out + FormalSeries.constant(c, order)
            continue
        # (z + chi)^-n = sum over k of C(-n, k) chi^k z^(-n-k)
        chi_pow = FormalSeries.constant(1, order)
        for k in range(0, order - n + 1):
            if k > 0:
                chi_pow = chi_pow * chi_t
                if chi_pow.is_zero():
                    break
            term = chi_pow.shift(n + k).scale(c * _binom_neg(n, k))
            out = out + term.truncate(order)
    return out


def group_inverse(chi: FormalSeries) -> FormalSeries:
    """The series psi with  psi + chi(z + psi) = 0, so that the substitutions
    z -> z + chi and z -> z + psi undo each other."""
    order = chi.order
    psi = -chi
    for _ in range(order + 1):
        psi = -substitute(chi, psi)
    # fixed point check at the stored order
    residual = psi + substitute(chi, psi)
    if not residual.is_zero():
        raise ArithmeticError("group inverse iteration did not converge")
    return psi


# -- coefficient prediction and growth ----------------------------------------------


def predict_coefficients(singularities, n_values) -> list[ExactScalar]:
    """Large-order prediction from the nearest singularities.

    ``singularities`` is a list of (omega, weight) pairs with omega an exact
    scalar monomial (so omega^(-n-1) stays exact) and weight the delta
    coefficient of the singularity.  Returns the predicted c_{n+1} for each
    n in ``n_values``, exactly.
    """
    pairs = [(ExactScalar.coerce(omega), ExactScalar.coerce(weight))
             for omega, weight in singularities]
    out = []
    tau = ExactScalar.tau()
    for n in n_values:
        acc = ExactScalar()
        for omega, weight in pairs:
            acc = acc + omega ** (-(n + 1)) * weight
        out.append(-(acc / tau) * math.factorial(n))
    return out


def gevrey_bound(phi: FormalSeries, prec: int = 53, skip: int = 1):
    """Fit |c_n| ~ C M^n n! by least squares on log(|c_n| / n!).

    Returns (C, M, max_residual) as floats.  Zero coefficients are skipped;
    ``skip`` drops the first few coefficients from the fit.
    """
    import statistics

    xs, ys = [], []
    for n in range(skip, phi.order + 1):
        c = phi[n]
        if c.is_zero():
            continue
        mag = abs(c.evaluate(prec))
        ys.append(float(mpmath.log(mag) - mpmath.log(mpmath.factorial(n))))
        xs.append(n)
    if len(xs) < 2:
        raise ValueError("need at least two nonzero coefficients to fit")
    slope, intercept = statistics.linear_regression(xs, ys)
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(xs, ys))
    return float(math.exp(intercept)), float(math.exp(slope)), float(resid)


# -- classical examples ----------------------------------------------------------------


def euler_series(order: int) -> FormalSeries:
    """c_{p+1} = (-1)^p p!: the divergent solution of  -phi' + phi = 1/z."""
    coeffs = [ExactScalar()]
    for p in range(order):
        coeffs.append(ExactScalar.from_rational((-1) ** p * math.factorial(p)))
    return FormalSeries(coeffs, order=order)


def stirling_series(order: int) -> FormalSeries:
    """The Stirling tail: log Gamma(z) minus its elementary part.

    c_{2k+1} = B_{2k+2} / ((2k+1)(2k+2)), even coefficients vanish.
    """
    coeffs = [ExactScalar()] * (order + 1)
    for k in range(0, (order - 1) // 2 + 1):
        n = 2 * k + 1
        if n > order:
            break
        p, q = mpmath.bernfrac(2 * k + 2)
        coeffs[n] = ExactScalar.from_rational(
            Fraction(int(p), int(q)) / ((2 * k + 1) * (2 * k + 2))
        )
    return FormalSeries(coeffs, order=order)
