"""Alien operators and Stokes automorphisms on resurgent functions.

A resurgent function is carried here as a pair: its asymptotic expansion (a
:class:`~resurgence.series.FormalSeries` in 1/z) and, when available, the
exact Borel-plane shape of its minor (a
:class:`~resurgence.borelfun.BorelFunction`).  The alien operators read the
minor:

* a single lateral operator follows one detour path to omega and returns
  the simple-singularity data found there;
* ``alien_plus`` is the pointed operator along the all-"+" (always below)
  path;
* ``alien_derivation`` averages all 2^(r-1) lateral paths with the weights
  p! q! / r!, where p and q count "+" and "-" detours among the r - 1
  crossed points.  The weighting makes it a derivation, which no single
  lateral operator is.

The value of an alien operator is again a resurgent pair: the polar weight
a_0 becomes the constant term, and the Taylor coefficients chi_n of the
log coefficient contribute n! chi_n at z^(-n-1).  With that normalization
the classical anchors come out on the nose: the Euler-type series has
alien_plus at -1 equal to the constant 2*pi*i, and the Stirling-type
series has alien derivative 1/r at 2*pi*i*r.

``Transseries`` grades components by powers of e^(-omega z).  The Stokes
automorphism and its scalar powers act on it through alien actions that
are supplied as explicit maps (or derived from the exact minors when
available), with exponential weights w^r / r!.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ._record import Record
from .borelfun import (
    BorelFunction,
    RationalFunction,
    extract_singularity,
    log_shape,
    points_between,
    euler_minor,
    stirling_minor,
)
from .scalars import ExactScalar
from .series import (BorelSeries, FormalSeries, euler_series, inverse_borel,
                     stirling_series)
from .words import compositions

__all__ = [
    "ResurgentSeries",
    "Transseries",
    "lateral_data",
    "lateral_operator",
    "path_weights",
    "alien_plus",
    "alien_minus",
    "alien_derivation",
    "alien_exp",
    "z_derivative",
    "apply_stokes",
    "stokes_power",
    "transseries_product",
    "euler_resurgent",
    "stirling_resurgent",
]


def _zero_minor() -> BorelFunction:
    return log_shape(RationalFunction.zero(), [])


def _log_form(minor):
    return None if minor is None else minor.log_form()


def _add_minors(f, g):
    """Sum two Borel shapes, or None when the sum leaves the shape set.

    Log terms at the same branch point merge after moving the constant
    2*pi*i*k offsets into the rational part (the relative offsets stay
    constant under any further continuation, so this loses nothing)."""
    forms = [_log_form(f), _log_form(g)]
    if any(form is None for form in forms):
        return None
    tau = ExactScalar.tau()
    rational = RationalFunction.zero()
    merged = {}
    for rpart, terms in forms:
        rational = rational + rpart
        for a, r, k in terms:
            if k:
                rational = rational + r.scale(tau * k)
            merged[a] = merged.get(a, RationalFunction.zero()) + r
    return log_shape(rational, [(a, r, 0) for a, r in merged.items()])


def _map_minor(minor, f):
    """Apply f to every rational part of a minor with a log form; None
    for any other shape (or no minor)."""
    form = _log_form(minor)
    if form is None:
        return None
    rational, terms = form
    return log_shape(f(rational), [(a, f(r), k) for a, r, k in terms])


class ResurgentSeries:
    """An asymptotic expansion paired with the exact shape of its minor.

    The series is the cached truncation; its constant term and the minor
    are the primary data (the series below the constant must match the
    minor's Taylor expansion through the inverse Borel transform, which
    ``consistent`` checks).  ``minor`` may be None when the Borel-plane
    shape is not representable; alien operators require it and refuse to
    guess."""

    def __init__(self, series: FormalSeries, minor: BorelFunction | None):
        self.series = series
        self.minor = minor

    @classmethod
    def from_minor(cls, minor: BorelFunction, constant=0,
                   order: int = 12) -> "ResurgentSeries":
        """Build the pair from exact Borel data, deriving the truncation."""
        series = inverse_borel(minor.taylor(max(order - 1, 0)))
        series = FormalSeries(series.coeffs, order=order)
        series = series + ExactScalar.coerce(constant)
        return cls(series, minor)

    @classmethod
    def zero(cls, order: int = 0) -> "ResurgentSeries":
        return cls(FormalSeries.zero(order), _zero_minor())

    @classmethod
    def constant(cls, value, order: int = 0) -> "ResurgentSeries":
        return cls(FormalSeries.constant(value, order), _zero_minor())

    @property
    def constant_term(self) -> ExactScalar:
        return self.series[0]

    def consistent(self) -> bool:
        """Check the invariant tying the cached truncation to the minor."""
        if self.minor is None:
            return True
        recomputed = inverse_borel(self.minor.taylor(max(self.series.order - 1, 0)))
        return all(
            self.series[n] == recomputed[n]
            for n in range(1, self.series.order + 1)
        )

    def is_zero(self) -> bool:
        return self.series.is_zero() and (
            self.minor is None or not self.minor.singular_points()
        )

    def __add__(self, other):
        if not isinstance(other, ResurgentSeries):
            return NotImplemented
        return ResurgentSeries(
            self.series + other.series, _add_minors(self.minor, other.minor)
        )

    def scale(self, c) -> "ResurgentSeries":
        c = ExactScalar.coerce(c)
        return ResurgentSeries(self.series.scale(c),
                               _map_minor(self.minor, lambda r: r.scale(c)))

    def __repr__(self):
        return f"<ResurgentSeries {self.series!r} minor={self.minor!r}>"


def euler_resurgent(order: int = 12) -> ResurgentSeries:
    return ResurgentSeries(euler_series(order), euler_minor())


def stirling_resurgent(order: int = 12) -> ResurgentSeries:
    return ResurgentSeries(stirling_series(order), stirling_minor())


# -- single lateral paths and their weights ------------------------------------------


def lateral_data(phi: ResurgentSeries, omega, signs):
    """Simple-singularity data of the minor at omega != 0 along one detour
    path: the entry of every alien operator."""
    if phi.minor is None:
        raise ValueError("alien operators need the exact minor, which this "
                         "resurgent series does not carry")
    if ExactScalar.coerce(omega).is_zero():
        raise ValueError("alien operators need a point omega != 0")
    order = max(phi.series.order, 1)
    return extract_singularity(phi.minor, omega, signs=signs, order=order)


def lateral_operator(phi: ResurgentSeries, omega, signs) -> ResurgentSeries:
    """One lateral operator A_omega along an explicit path, as a pair."""
    data = lateral_data(phi, omega, signs)
    order = max(phi.series.order, 1)
    minor = data.chi if data.chi is not None else _zero_minor()
    series = inverse_borel(BorelSeries(data.a0, data.chi_series.taylor[:order]))
    return ResurgentSeries(series, minor)


def _one_sided(phi: ResurgentSeries, omega, sign: str) -> ResurgentSeries:
    """The lateral operator detouring every crossed point on one side."""
    crossed = points_between(phi.minor, omega) if phi.minor is not None else []
    return lateral_operator(phi, omega, signs=(sign,) * len(crossed))


def alien_plus(phi: ResurgentSeries, omega) -> ResurgentSeries:
    """The pointed alien operator: the all-"+" (always below) path."""
    return _one_sided(phi, omega, "+")


def alien_minus(phi: ResurgentSeries, omega) -> ResurgentSeries:
    """The all-"-" (always above) counterpart of alien_plus."""
    return _one_sided(phi, omega, "-")


def path_weights(r: int):
    """The weight p! q! / r! for each sign word in {+,-}^(r-1).

    Returns a dict mapping sign tuples to Fractions; the weights sum to 1."""
    if r < 1:
        raise ValueError("r must be >= 1")
    out = {}
    for eps in itertools.product("+-", repeat=r - 1):
        p = eps.count("+")
        q = eps.count("-")
        out[eps] = Fraction(
            math.factorial(p) * math.factorial(q), math.factorial(r)
        )
    return out


def alien_derivation(phi: ResurgentSeries, omega) -> ResurgentSeries:
    """The alien derivation: the weighted average over all lateral paths.

    On a single-valued minor every path reaches the same germ and the
    weights sum to 1, so the one all-"+" path stands for the average."""
    crossed = points_between(phi.minor, omega) if phi.minor is not None else []
    r = len(crossed) + 1
    if r > 1 and phi.minor.single_valued:
        weights = {("+",) * (r - 1): Fraction(1)}
    else:
        weights = path_weights(r)
    order = max(phi.series.order, 1)
    total_series = FormalSeries.zero(order)
    total_minor = _zero_minor()
    for eps, weight in weights.items():
        piece = lateral_operator(phi, omega, eps).scale(
            ExactScalar.from_rational(weight))
        total_series = total_series + piece.series
        total_minor = _add_minors(total_minor, piece.minor)
    return ResurgentSeries(total_series, total_minor)


# -- the derivation structure ---------------------------------------------------------


def z_derivative(phi: ResurgentSeries) -> ResurgentSeries:
    """d/dz on both layers: the minor is multiplied by -zeta."""
    factor = RationalFunction([ExactScalar(), ExactScalar.from_rational(-1)])
    return ResurgentSeries(phi.series.differentiate(),
                           _map_minor(phi.minor, lambda r: r * factor))


def _exp_series(phi: FormalSeries) -> FormalSeries:
    """exp of a series with no constant term, truncated exactly."""
    if not phi[0].is_zero():
        raise ValueError("exp is only taken of series with zero constant term")
    order = phi.order
    acc = FormalSeries.constant(1, order)
    power = FormalSeries.constant(1, order)
    for k in range(1, order + 1):
        power = power * phi
        if power.is_zero():
            break
        acc = acc + power.scale(Fraction(1, math.factorial(k)))
    return acc


def alien_exp(phi: ResurgentSeries, omega, pointed: bool = False) -> ResurgentSeries:
    """Alien operator on exp(phi), defined through the chain rule.

    The Borel image of exp(phi) leaves the representable shape class, so
    the chain rule (Delta exp(phi) = (Delta phi) exp(phi)) is taken as
    the definition; the result carries no exact minor."""
    op = alien_plus if pointed else alien_derivation
    dphi = op(phi, omega)
    return ResurgentSeries(dphi.series * _exp_series(phi.series), None)


# -- transseries and the Stokes action -------------------------------------------------


class Transseries(Record):
    """Components graded by powers of e^(-omega z): component k multiplies
    e^(-k omega z).  Component 0 is the purely asymptotic part."""

    omega: ExactScalar
    components: dict = {}

    def __post_init__(self):
        self.omega = ExactScalar.coerce(self.omega)

    def work_order(self) -> int:
        """Largest series order among the stored components; addition
        truncates to the smaller order, so absent components must come
        back as zeros of at least this order."""
        return max(
            (c.series.order for c in self.components.values()), default=0
        )

    def component(self, k: int) -> ResurgentSeries:
        if k in self.components:
            return self.components[k]
        return ResurgentSeries.zero(self.work_order())

    def max_component(self) -> int:
        return max(self.components.keys(), default=0)


def _normalize_actions(ts: Transseries, actions, pointed: bool):
    """A lookup j -> the grade-j action, or None when none is given:
    the user-supplied (j, map) pairs, or else the exact actions derived
    from the minors."""
    if actions is not None:
        return dict(actions).get
    op = alien_plus if pointed else alien_derivation
    return lambda j: lambda psi: op(psi, ts.omega * j)


def _graded_image(ts: Transseries, up_to, gains) -> Transseries:
    """Component k of the image is component k of ts plus every term
    gains(j, psi) yields for 1 <= j <= k with psi = component k - j
    nonzero; components beyond ``up_to`` are never materialized."""
    if up_to is None:
        up_to = ts.max_component() + 2
    out = {}
    for k in range(up_to + 1):
        acc = ts.component(k)
        for j in range(1, k + 1):
            psi = ts.component(k - j)
            if psi.is_zero():
                continue
            for term in gains(j, psi):
                acc = acc + term
        out[k] = acc
    return Transseries(ts.omega, out)


def apply_stokes(ts: Transseries, actions=None,
                 up_to: int | None = None) -> Transseries:
    """The symbolic Stokes automorphism: component k of the image is the
    sum over j of the grade-j pointed action applied to component k-j.

    ``actions`` maps j >= 1 to a ResurgentSeries -> ResurgentSeries map
    (the Delta-plus action at j * omega); omitted actions are derived
    from the exact minors.  Components beyond ``up_to`` are never
    materialized."""
    acts = _normalize_actions(ts, actions, pointed=True)

    def gains(j, psi):
        action = acts(j)
        if action is not None:
            yield action(psi)

    return _graded_image(ts, up_to, gains)


def stokes_power(ts: Transseries, w, actions=None,
                 up_to: int | None = None) -> Transseries:
    """The w-th power of the Stokes automorphism, as the exponential of
    the alien derivation with weights w^r / r!:

        component k of the image gains, for every ordered composition
        (j_1, ..., j_r) of every j <= k, the term
        (w^r / r!) D_(j_1) ... D_(j_r) psi_(k-j),

    where D_j is the grade-j alien derivation action (supplied like in
    apply_stokes, or derived from the minors)."""
    w = ExactScalar.coerce(w)
    acts = _normalize_actions(ts, actions, pointed=False)

    def gains(j, psi):
        for comp in compositions(j):
            term = psi
            for part in reversed(comp):
                action = acts(part)
                if action is None:
                    break
                term = action(term)
                if term.series.is_zero():
                    break
            else:
                r = len(comp)
                yield term.scale(w**r * Fraction(1, math.factorial(r)))

    return _graded_image(ts, up_to, gains)


def transseries_product(a: Transseries, b: Transseries,
                        up_to: int | None = None) -> Transseries:
    """Componentwise Cauchy product with respect to the e^(-omega z)
    grading.  Minors multiply only when one factor is a constant (the
    general product needs a convolution outside the shape class and
    comes back with minor None)."""
    if not (a.omega == b.omega):
        raise ValueError("transseries gradings differ")
    if up_to is None:
        up_to = a.max_component() + b.max_component()
    out = {}
    for k in range(up_to + 1):
        acc = None
        for i in range(k + 1):
            x = a.component(i)
            y = b.component(k - i)
            if x.series.is_zero() or y.series.is_zero():
                continue
            piece_series = x.series * y.series
            piece_minor = None
            if _is_plain_constant(x):
                c = x.series[0]
                piece_minor = _map_minor(y.minor, lambda r: r.scale(c))
            elif _is_plain_constant(y):
                c = y.series[0]
                piece_minor = _map_minor(x.minor, lambda r: r.scale(c))
            piece = ResurgentSeries(piece_series, piece_minor)
            acc = piece if acc is None else acc + piece
        if acc is not None:
            out[k] = acc
    return Transseries(a.omega, out)


def _is_plain_constant(phi: ResurgentSeries) -> bool:
    if any(not phi.series[n].is_zero() for n in range(1, phi.series.order + 1)):
        return False
    form = _log_form(phi.minor)
    return form is not None and form[0].is_zero() and not form[1]
