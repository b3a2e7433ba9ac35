"""Laplace summation along rays, lateral comparisons, and Hankel contours.

This module turns the exact Borel-plane shapes of :mod:`.borelfun` into
numbers.  The basic operation is the ray integral

    value = c0 + integral over [0, e^(i theta) * infinity) of
            e^(-z zeta) f(zeta) d zeta,

parametrized as zeta = t e^(i theta).  Writing w = z e^(i theta), the kernel
modulus is e^(-m t) with m = Re w, so the integral converges whenever the
decay margin m exceeds the growth constant of the integrand (zero for every
shape shipped here, since they all grow at most polynomially along rays that
stay away from their singular points).

Nothing here knows a shape's type: every sum asks the shape, once each,
for the summation rules of :class:`.borelfun.BorelFunction` (see
:mod:`.borelfun` for what a shape implements and what the defaults do),
so exact constants are evaluated once and each node only does the
arithmetic of its point.

The numeric scheme has three error sources, and each is bounded:

* truncation: the ray is cut at a finite T, and the discarded tail is
  bounded by the shape's ``tail_rule``, a proved inequality for every
  shape of :mod:`.borelfun` (Pade models take the sampled default).  T
  is a point of the segment ladder 1/2, 1, 2, ... (2h, 4h, ... after an
  origin head [0, h]): the first at or past the rule's floor whose tail
  bound is within a quarter of the target (:func:`_choose_truncation`),
  so the last segment ends at T and no stretch of the ray is both
  integrated and counted in the tail.
* quadrature: each segment of [h, T] is one Clenshaw-Curtis panel on the
  Chebyshev-Lobatto nodes of :mod:`._chebyshev`, its degree picked
  before anything is sampled.  The panel's integrand is analytic inside
  the Bernstein ellipses E_rho of the panel, up to the nearest singular
  point; the shape's ``ellipse_rule`` bounds the shape on them, and the
  kernel e^(-w t) and t^moment are bounded in closed form, which gives
  M(rho).  With |a_j| <= 2 M rho^-j for the Chebyshev coefficients, the
  panel's total is within (2 M / (rho - 1)) rho^-n (10 / (n^2 - 4) +
  3 rho^-(n // 2)) at degree n (the quadrature tail of
  ``_chebyshev.panel_bound``), and within 4 M(1) in any case.  Each
  panel takes the least degree of the form 2^k or 3 2^(k - 1), from 4,
  dividing 48 (_DEGREES), at which the best rho tried meets its share of
  the quadrature budget, in proportion to its length; a panel that needs
  more than 48 is bisected, the largest bound first.  The budget is a
  fixed share of the target: a quarter on a ray, an eighth for each of
  a Hankel contour's circle and ray (a quarter for a circle alone).
  ``max_nodes`` caps the bisection: it stops within the cap, and every
  segment is sampled at its degree even where the segments alone pass
  it.  A capped panel keeps its bound in the error, so a capped sum may
  report more than the target, never less than it has.
* rounding: each sample is within 2^(8 - p) M(1) at the working
  precision p, and the rounding of a panel's ends moves its nodes, which
  Cauchy's estimate on E_rho bounds through M(rho); with one unit
  2^-prec (1 + |value|) for the final rounding and the head's rounding.

A sum is ``certified`` when its tail and its majorants are proved: every
bundled shape but Pade models and a rational shape with a multiple pole,
which take the sampled default majorant.  Where the majorant is sampled,
the rule of half the degree on every other sample checks each panel
after the fact (:func:`_panels`).

How a panel is sampled.  On the ray panel t = mid + half x, the kernel
is e^(-w mid) e^(-w half x): the first factor is one scalar of the
panel's total, and the second comes from ``_chebyshev._exponentials`` as
one block-fixed-point vector (integer mantissas sharing one exponent):
for 1 < |u| <= 2^16, u = -w half, the vector of u / 2 squared in
integers, and otherwise one libmp exponential per node x >= 0 and the
reflection e^(-u x) = conj(e^(u x)) / |e^(u x)|^2 in integers at the
others.  The segment ladder doubles the width from one segment to the
next, and bisection halves it, so the kernels of a ray share one base;
every degree divides 48, so a kernel of degree n is every (48 / n)-th
entry of the kernel of degree 48, and the panels of all degrees share
it too.  The shape's ``panel_sampler`` for the contour gives its
samples as a vector too (the default builds the shape's scalar
evaluator for the contour, maps it over the nodes and converts once;
rational shapes, the Stirling minor and power kernels compute theirs in
integers and libmp, a power kernel as a scalar of the panel times
vectors that depend only on the panel's shape, then times its sheet
constants), and the two, times t^moment, are multiplied in integers.  A
Hankel circle takes e^(-z rho e^(i phi)) e^(i phi) with one complex
exponential per node at the cached unit points e^(i phi_j) of degree 48
(:func:`_circle_kernel`).  The Clenshaw-Curtis rule of the panel's degree
is an integer dot product of the vector with its folded weights row, and
each panel converts to mpmath once.  Every sample lands in a panel that
is kept: ``nodes_used`` is the sum of the degrees plus one.

What does not depend on the shape is computed once per point and shared.
The ray kernel depends only on w, the panel's width and the precision,
so the two halves of a bisected panel, and every sum with the same w
and ladder (the Hankel sums of one z and theta), read one cached vector;
the circle kernel depends only on z rho, the panel and the precision,
and is cached likewise; and the singular values are rotated onto the
ray once per sum, for the ray check and the ellipses, and once per tail
rule for its distances.  The caches are bounded, and a cached vector is
the one a fresh computation gives.

Lateral sums and their jump follow the frozen orientation convention of the
whole package: the "+" determination uses rays at angles just below the
singular direction theta_star.  Collapsing the two rays onto the singular
ray shows that

    jump = S_plus - S_minus
         = 2 pi i * sum of residues of e^(-z zeta) f(zeta)
           at the singular points between the two rays,

traversed counterclockwise, which is exactly the combination the alien
calculus predicts through the bridge identities.

Hankel contours serve the shapes that are singular at the origin itself.
The contour comes in from e^(i (theta - 2 pi)) * infinity, circles the
origin once counterclockwise at radius rho (a quarter of the distance to
the nearest nonzero singular point, or 1/4 when there is none), and leaves
toward e^(i theta) * infinity.  The two rays live on different sheets.
They share their points and their kernel, so they are integrated as one
difference integrand e^(-w t) (f(t, theta) - f(t, theta - 2 pi)), whose
samples the shape gives for a Hankel :class:`.borelfun.Contour`; on
single-valued shapes that difference vanishes and only the circle is
integrated.  The circle integrand is analytic in the angle up to the
poles of the singular values, so the whole turn starts as one panel, at
the degree its bound picks, and is bisected only past 48.

`verify_asymptotics` compares ray sums against the partial sums of a
divergent expansion and reports the rescaled remainders
sup over z of |z|^(n+1) |S(z) - partial_n(z)| together with the
quadrature slack, so a caller can test a 1-Gevrey envelope honestly.

`pade_minor` builds a rational model of a Borel transform from raw
asymptotic coefficients.  It is a convenience for exploration: nothing
about it is certified, and results computed through it say so in their
diagnostics.

Out of scope here: accelero-summation and averaged (median) summation.
"""

from __future__ import annotations

import bisect
import cmath
import heapq
import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, mpf_mul

from . import _work
from ._chebyshev import (_RHO_CAP, _TAILS, GUARD, NEST,
                         _bernstein, _complex_tuple, _exponentials,
                         _mantissas, _nested, _product, _rung, _total,
                         _unit_points, _values, _vector, _weights, rounded_up)
from .borelfun import BorelFunction, Contour, _pole_tail_distance, _rotated
from .errors import (MAX_NODES, MIN_PREC, DecayMarginError, RayBlockedError,
                     check_prec)
from .scalars import ExactScalar
from .series import FormalSeries

__all__ = [
    "RaySpec",
    "SummationResult",
    "LateralPair",
    "AsymptoticsReport",
    "PadeApproximant",
    "laplace_ray",
    "lateral_jump",
    "hankel_laplace",
    "verify_asymptotics",
    "pade_minor",
]


# -- specifications and results ------------------------------------------------------


@dataclass(frozen=True)
class RaySpec:
    """Where and how to sum: ray angle, evaluation point, and budgets.

    ``theta`` is the ray angle in radians (it may leave (-pi, pi]; shapes
    with polar evaluation then continue onto the matching sheet).  ``z`` is
    the evaluation point; the decay margin Re(z e^(i theta)) must be
    positive.  ``target_error`` drives both the truncation point and the
    working precision (when ``prec`` is not given explicitly; an explicit
    ``prec`` below ``errors.MIN_PREC`` is refused with a ValueError).
    ``max_nodes`` caps the integrand evaluations of one sum: panels are
    bisected only while the sum stays within it (the initial segments
    are always sampled, one panel each, at their degrees), and a sum
    stopped by the cap reports the bounds of its unconverged panels, so
    its error may exceed ``target_error``.  Rays whose kernel turns more
    than ``max_nodes`` times before the truncation point are refused.
    """

    theta: object
    z: object
    max_nodes: int = MAX_NODES
    target_error: float = 1e-12
    prec: int | None = None

    def __post_init__(self):
        if self.max_nodes < 64:
            raise ValueError("max_nodes must be at least 64")
        if not 0 < float(self.target_error) < math.inf:
            raise ValueError("target_error must be positive and finite")
        if self.prec is not None:
            check_prec(self.prec)

    def working_prec(self) -> int:
        if self.prec is not None:
            return int(self.prec)
        return max(MIN_PREC, int(-math.log2(float(self.target_error))) + 32)


@dataclass(frozen=True)
class SummationResult:
    """A computed sum: value, error bound, and how it was made.

    ``error_estimate`` adds the panels' quadrature bounds, the truncation
    bound (twice on a Hankel contour, one per sheet), the head series'
    remainder and the rounding term, with no safety factor: each term is
    a bound, proved when ``certified`` is True, that is when the shape's
    tail rule and ellipse rules are (see the module docstring).  The
    ``diagnostics`` mapping records the truncation point, the decay
    margin, the tail, quadrature and rounding terms, the ``method``, the
    ``segments`` of the doubling ladder, the ``panels`` after bisection
    and how many took each degree (``degrees``), and whether the tail
    envelope was proved (``rigorous_tail``) or merely sampled.  Each
    figure is a float, or its 17 digits as a string when a double would
    read it as infinite or as zero.
    """

    value: object
    error_estimate: object
    nodes_used: int
    diagnostics: dict = field(default_factory=dict, repr=False)
    certified: bool = False


@dataclass(frozen=True)
class LateralPair:
    """Two lateral sums around a singular direction and their difference.

    ``plus`` sums along a ray just below ``theta_star`` and ``minus`` just
    above; ``jump = plus.value - minus.value`` with the combined error in
    ``error_estimate``.
    """

    plus: SummationResult
    minus: SummationResult
    jump: object
    error_estimate: object

    def __iter__(self):
        yield self.plus
        yield self.minus
        yield self.jump


# -- coercions -------------------------------------------------------------------


def _to_mp(x, prec):
    if isinstance(x, ExactScalar):
        return x.evaluate(prec)
    return mpmath.mpmathify(x)


def _real_angle(theta, prec):
    t = _to_mp(theta, prec)
    if isinstance(t, mpmath.mpc):
        if abs(t.imag) != 0:
            raise TypeError("the ray angle must be real")
        t = t.real
    return mpmath.mpf(t)


def _kernel(theta, z, prec):
    """(theta, z, w, m) as numbers, with w = z e^(i theta) and the decay
    margin m = Re w; refuses a margin that is not positive."""
    theta = _real_angle(theta, prec)
    z = _to_mp(z, prec)
    w = z * mpmath.exp(mpmath.mpc(0, 1) * theta)
    m = mpmath.mpc(w).real
    if not m > 0:
        raise DecayMarginError(
            f"decay margin {mpmath.nstr(m, 8)} is not positive for z = "
            f"{mpmath.nstr(z, 8)} along theta = {mpmath.nstr(theta, 8)}",
            margin=float(m),
        )
    return theta, z, w, m


def _figure(x):
    """A diagnostics figure: a float when x converts to a finite double
    that is nonzero whenever x is, otherwise x to 17 digits as a string,
    so that no figure reads as infinite or as zero when it is neither."""
    value = float(x)
    if math.isfinite(value) and (value or not x):
        return value
    return mpmath.nstr(x, 17)


# -- a Pade model of a minor --------------------------------------------------------


class PadeApproximant(BorelFunction):
    """A rational stand-in for a Borel transform, fitted from coefficients.

    Given an asymptotic expansion sum of c_n z^-n, the Borel transform of
    its z^-1 tail has Taylor coefficients b_k = c_{k+1} / k!.  A diagonal
    Pade approximant of that Taylor series often tracks the true minor
    well beyond the disk of convergence and places poles near the true
    singular points, which makes it a useful exploration tool when only
    raw coefficients are available.

    Nothing here is certified: the fit carries no error bound, its exact
    singular set is unknown (``singular_points`` is empty and admissibility
    checks use the numeric pole estimates), and every summation result
    computed through it is flagged as not rigorous.
    """

    single_valued = True

    def __init__(self, num, den):
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def from_series(cls, series: FormalSeries, degree: int | None = None,
                    prec: int = 53):
        avail = series.order
        if degree is None:
            degree = max(1, (avail - 1) // 2)
        if 2 * degree + 1 > avail:
            raise ValueError(
                f"a [{degree}/{degree}] fit needs {2 * degree + 1} Borel "
                f"coefficients but the series only provides {avail}"
            )
        with mpmath.workprec(prec + 32):
            taylor = [
                series[k + 1].evaluate(prec + 32) / mpmath.factorial(k)
                for k in range(2 * degree + 1)
            ]
            # a Taylor series that is exactly rational of lower degree makes
            # the Pade system singular; step the degree down until it solves
            for d in range(degree, 0, -1):
                try:
                    p, q = mpmath.pade(taylor[: 2 * d + 1], d, d)
                    break
                except ZeroDivisionError:
                    continue
            else:
                raise ValueError("no diagonal Pade fit exists for the series")
        return cls(p, q)

    def numeric_evaluator(self, prec: int = 53):
        num = list(reversed(self.num))
        den = list(reversed(self.den))

        def evaluate(zeta):
            with mpmath.workprec(prec + 16):
                zv = mpmath.mpmathify(zeta)
                out = mpmath.polyval(num, zv) / mpmath.polyval(den, zv)
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def singular_points(self):
        return []

    def singular_values(self, prec: int):
        return [v for v in self.poles_numeric(prec) if abs(v) > 0]

    def poles_numeric(self, prec: int = 53):
        coeffs = list(self.den)
        while coeffs and abs(coeffs[-1]) == 0:
            coeffs.pop()
        if len(coeffs) < 2:
            return []
        with mpmath.workprec(prec + 16):
            try:
                return mpmath.polyroots(list(reversed(coeffs)), maxsteps=120)
            except mpmath.libmp.NoConvergence:
                return []

    def __repr__(self):
        return f"<PadeApproximant [{len(self.num) - 1}/{len(self.den) - 1}]>"


def pade_minor(series: FormalSeries, degree: int | None = None,
               prec: int = 53) -> PadeApproximant:
    """Fit a diagonal Pade model to the Borel transform of a series."""
    return PadeApproximant.from_series(series, degree=degree, prec=prec)


# -- ray admissibility ----------------------------------------------------------------


def _check_ray(sing, rotated, theta):
    """Raise RayBlockedError when the ray hugs one of the singular values,
    given with their ``rotated`` points v e^(-i theta)."""
    worst = None
    for v, u in zip(sing, rotated):
        d = _pole_tail_distance(u, 0)
        if d < min(mpmath.mpf(1), abs(v)) / 64:
            if worst is None or d < worst[1]:
                worst = (v, d)
    if worst is not None:
        v, d = worst
        raise RayBlockedError(
            f"the ray at angle {mpmath.nstr(mpmath.mpf(theta), 8)} passes "
            f"within {mpmath.nstr(d, 4)} of the singular point "
            f"{mpmath.nstr(v, 8)}",
            nearest=mpmath.nstr(v, 12),
            distance=float(d),
        )


# -- truncation -----------------------------------------------------------------------


# the doublings of the truncation walk past its first point at or past the
# floor: the last point it tries is 2^234 > 10^70 times that point
_LADDER_STEPS = 234


@_work.timing("truncation_s")
def _choose_truncation(rule, w, lo, target, max_nodes):
    """(pts, tail bound, proved?): the segment ladder, lo and then 1/2, 1,
    2, ... (2 lo, 4 lo, ... when lo > 0), up to T, its first point at or
    past the floor of the shape's ``tail_rule`` whose tail bound is
    within target / 4.  Every segment's width is a power of two times the
    first's, so the kernels of a ray share one base
    (:func:`._chebyshev._exponentials`); the quadrature covers [lo, T] and
    the tail bound at T what lies past it.

    A margin so small that the bound is still above target / 4
    _LADDER_STEPS doublings past the floor is refused.  So is a ray on
    which the kernel e^(-w t) turns more often over [0, T] than
    ``max_nodes`` nodes could resolve: that happens when the decay margin
    m = Re w is tiny next to |w|, as T grows like 1/m while the kernel
    keeps turning at the rate |Im w|, and the panels within the cap could
    not resolve the kernel.
    """
    floor, bound_at = rule
    m = mpmath.mpc(w).real
    pts = [mpmath.mpf(lo)]
    T = mpmath.mpf(1) / 2 if lo == 0 else 2 * pts[0]
    while T < floor:
        pts.append(T)
        T *= 2
    for _ in range(_LADDER_STEPS + 1):
        pts.append(T)
        _work.add("tail_bounds")
        tail, proved = bound_at(T)
        if tail <= target / 4:
            break
        T *= 2
    else:
        raise DecayMarginError(
            f"decay margin {mpmath.nstr(m, 8)} is too small: the tail bound "
            f"at T = {mpmath.nstr(pts[-1], 4)}, the last step of the "
            f"truncation ladder, is {mpmath.nstr(tail, 4)}, above target / 4",
            margin=_figure(m),
            tail_bound=_figure(tail),
        )
    turns = abs(mpmath.mpc(w).imag) * T / (2 * mpmath.pi)
    if turns > max_nodes:
        raise DecayMarginError(
            f"decay margin {mpmath.nstr(m, 8)} is too small next to "
            f"|w| = {mpmath.nstr(abs(w), 8)}: the kernel turns "
            f"{mpmath.nstr(turns, 4)} times up to the truncation point, "
            f"more than the {max_nodes} nodes allowed",
            margin=float(m),
            turns=float(turns),
        )
    return pts, tail, proved


# -- quadrature -----------------------------------------------------------------------


# the degrees a panel may take: those of the form 2^k or 3 2^(k - 1), as
# the iterated integrals take them, from 4 to NEST = 48 that divide NEST,
# so that the kernels, unit points and power lanes of every degree are
# read off one vector of degree NEST; a panel whose bound needs more than
# NEST is bisected
_DEGREES = tuple(n for n in sorted({_rung(k) for k in range(4, NEST + 1)})
                 if not NEST % n)
# the Bernstein parameters a panel tries, 1 + t (top - 1) for each t, top
# the least parameter of a singular point, at most _RHO_CAP: near top for
# a narrow panel, near 1 for a wide one, on which the kernel grows fast
_RHO_STEPS = (1 / 16, 1 / 4, 5 / 8, 15 / 16)
# the log of the least factor of the tail besides rho^-n, 10 / (n^2 - 4),
# at the degrees of _DEGREES
_LEAST_TAIL = math.log(_TAILS[0](NEST))
# relative to the working precision p, how far the block-fixed-point
# samples may lie from the exact ones, against the largest modulus: every
# sampler's arithmetic is a few dozen roundings of a few units each at
# p + GUARD bits, so 2^-(p - 8) is a bound with room to spare
_SAMPLE_ERROR = 8


def _exp(x: float):
    """e^x as an mpf, for a log that may leave the range of doubles."""
    return mpmath.mpf(math.exp(x)) if -700 < x < 700 else mpmath.exp(x)


def _log_sum(x: float, y: float) -> float:
    """log(e^x + e^y)."""
    top = max(x, y)
    return top if math.isinf(top) else \
        top + math.log1p(math.exp(min(x, y) - top))


class _Panel:
    """One panel [a, b] of a piece and its bound, in natural logs: per
    Bernstein parameter tried, (c, log rho) with c the log of
    2 M / (rho - 1) times the panel's scalar factor, M a majorant of the
    integrand on the ellipse; the trivial bound, 4 M_1 times the factor
    with M_1 the majorant on the panel; the log of the panel's ``share``
    of its piece's budget; and the rounding term.  ``n`` is the degree
    and ``log_error`` the log of the quadrature bound there."""

    __slots__ = ("piece", "a", "b", "share", "pairs", "trivial", "rounding",
                 "n", "log_error")

    def bound(self, n: int) -> float:
        """The log of the bound at degree n: the least of the trivial one
        and, from degree 3, the tail of :mod:`._chebyshev` at the rho best
        for n."""
        if not self.pairs or n < 3:
            return self.trivial
        c, lr = min((c - n * lr, lr) for c, lr in self.pairs)
        return min(self.trivial, c + math.log(
            _TAILS[0](n) + 3 * math.exp(-(n // 2) * lr)))

    def at(self, n: int):
        """The panel at degree n."""
        self.n = n
        self.log_error = self.bound(n)
        return self

    def fits(self) -> bool:
        return self.log_error <= self.share

    def degree(self):
        """The panel at the least degree of _DEGREES whose bound meets its
        share, or at NEST when none does.  The tail's factor besides
        rho^-n is at least 10 / (n^2 - 4) >= 10 / (NEST^2 - 4), so no n
        below the least at which some c - n log rho meets the share
        within that factor fits, and the search starts at the degree
        below it."""
        first = 0
        if self.trivial > self.share and self.pairs:
            least = min((c - self.share + _LEAST_TAIL) / lr
                        for c, lr in self.pairs)
            first = max(0, bisect.bisect_right(_DEGREES, least) - 1)
        for n in _DEGREES[first:]:
            if self.at(n).fits():
                break
        return self


class _Piece:
    """A contour's panels: a sampler (mid, half, n) -> (vector, factor)
    and a function (mid, half, rhos) -> per rho the log of the integrand's
    majorant on the Bernstein ellipse E_rho plus the log of the scalar
    factor, from the shape's ellipse rule and the kernel's growth, in
    doubles, and whether that rule is ``proved``; ``points``, in the same
    frame, bound the rho a panel tries.  The quadrature ``budget`` of the
    piece is shared among its panels by length.  ``rate`` bounds the
    growth of the log of the kernel's majorant per unit of half b,
    b = (rho - 1 / rho) / 2, for rho near 1."""

    def __init__(self, sample, majorant, proved, points, budget, pts, rate):
        self.sample = sample
        self.majorant = majorant
        self.proved = proved
        self.points = points
        self.pts = pts
        self.rate = rate
        self.per_length = float(mpmath.log(budget)) \
            - math.log(float(pts[-1] - pts[0]))

    def top(self, mid, half):
        """The least Bernstein parameter of the points, at most _RHO_CAP
        (the ellipse through a point farther than 33 half from mid has a
        larger one)."""
        reach = 33 * half
        return min([_RHO_CAP] + [_bernstein((p - mid) / half)
                                 for p in self.points
                                 if abs(p - mid) < reach])

    def panel(self, a, b, prec: int):
        """The panel [a, b] at its least degree.  Its rounding term: the
        samples are within 2^(_SAMPLE_ERROR - prec) M_1, and the nodes,
        moved by the rounding of mid and half at prec bits by less than
        2^(2 - prec) (1 + |mid / half|) in x, move the integrand by at most
        M_rho / (a - 1) times that (Cauchy's estimate, E_rho being
        a - 1 from the panel), at the best of the rho tried and
        1 + 1 / (1 + rate half), near which the kernel's majorant has
        barely grown; the weights add to 2."""
        p = _Panel()
        p.piece, p.a, p.b = self, a, b
        lo, hi = float(a), float(b)
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        p.share = self.per_length + math.log(hi - lo)
        top = self.top(mid, half)
        rhos = [1.0] + [1 + (top - 1) * t for t in _RHO_STEPS] \
            + [1 + min((top - 1) / 2, 1 / (1 + self.rate * half))]
        logs = self.majorant(mid, half, rhos)
        p.pairs = [(math.log(2 / (rho - 1)) + m, math.log(rho))
                   for rho, m in zip(rhos[1:], logs[1:]) if m < math.inf]
        p.trivial = math.log(4) + logs[0]
        moved = min([m - math.log((rho + 1 / rho) / 2 - 1)
                     for rho, m in zip(rhos[1:], logs[1:])],
                    default=math.inf) + math.log1p(abs(mid / half))
        p.rounding = math.log(2) + (_SAMPLE_ERROR - prec) * math.log(2) \
            + _log_sum(logs[0], moved)
        return p.degree()


def _log(x) -> float:
    """The natural log of a nonnegative double, -inf at 0."""
    return math.log(x) if x > 0 else -math.inf


def _plan(pieces, max_nodes: int, prec: int):
    """The panels of the pieces, each at its degree.

    Every segment between consecutive breakpoints is one panel at the
    least degree whose proved bound meets its share of its piece's
    budget.  A panel that no degree up to NEST fits is bisected,
    the largest bound first, while the node count stays within
    ``max_nodes``; the segments themselves are always sampled at their
    degrees.  Panels left unfit keep their bounds in the error."""
    panels = [piece.panel(a, b, prec) for piece in pieces
              for a, b in zip(piece.pts, piece.pts[1:])]
    nodes = sum(p.n + 1 for p in panels)
    done, pending, count = [], [], itertools.count()
    for p in panels:
        if p.fits():
            done.append(p)
        else:
            heapq.heappush(pending, (-p.log_error, next(count), p))
    while pending:
        p = pending[0][2]
        middle = (p.a + p.b) / 2
        if not p.a < middle < p.b:
            break
        halves = [p.piece.panel(a, b, prec)
                  for a, b in ((p.a, middle), (middle, p.b))]
        grown = nodes - (p.n + 1) + sum(h.n + 1 for h in halves)
        if grown > max_nodes:
            break
        heapq.heappop(pending)
        nodes = grown
        for h in halves:
            if h.fits():
                done.append(h)
            else:
                heapq.heappush(pending, (-h.log_error, next(count), h))
    return done + [entry[2] for entry in pending]


def _rule(parts, exp: int, n: int, prec: int):
    """The Clenshaw-Curtis rule of degree n on a block-fixed-point vector at
    the n + 1 nodes: the folded weights row applied in integers and the
    total converted once."""
    row = _weights(n, prec)
    (value,) = _values([[_total(row, part)] for part in parts],
                       exp - (prec + GUARD + 1), prec)
    return value


def _panels(pieces, max_nodes: int):
    """The integral over every piece, by Clenshaw-Curtis panels, as
    (values per piece, quadrature bound, rounding bound, nodes per piece,
    panels per degree).

    The panels and their degrees come from :func:`_plan` before anything
    is sampled.  Each panel is sampled once, at its n + 1 Chebyshev-
    Lobatto nodes, as one block-fixed-point vector and a scalar factor of
    its total, and its value is the rule of degree n.  Where the piece's
    ellipse rule is not proved, the rule of degree n / 2 on every other
    node checks it: the two differ by at most the sum of their bounds if
    the majorant holds, and where they differ by more the panel reports
    that difference, the error of the coarser rule, instead of its
    bound."""
    prec = mpmath.mp.prec
    plan = _plan(pieces, max_nodes, prec)
    order = {id(piece): i for i, piece in enumerate(pieces)}
    totals = [[] for _piece in pieces]
    errors = []
    nodes = [0] * len(pieces)
    degrees = {}
    for p in sorted(plan, key=lambda p: (order[id(p.piece)], p.a)):
        (parts, exp), factor = p.piece.sample((p.a + p.b) / 2,
                                              (p.b - p.a) / 2, p.n)
        value = factor * _rule(parts, exp, p.n, prec)
        error = _exp(p.log_error)
        if not p.piece.proved:
            gap = abs(value - factor * _rule([part[::2] for part in parts],
                                             exp, p.n // 2, prec))
            if gap > error + _exp(p.bound(p.n // 2)):
                error = gap
        i = order[id(p.piece)]
        totals[i].append(value)
        errors.append(error)
        nodes[i] += p.n + 1
        degrees[p.n] = degrees.get(p.n, 0) + 1
    return ([mpmath.fsum(t) for t in totals], mpmath.fsum(errors),
            mpmath.fsum(_exp(p.rounding) for p in plan),
            nodes, dict(sorted(degrees.items())))


def _ray_piece(shape, ellipse, w, contour, moment, points, budget, pts):
    """The :class:`_Piece` of a ray: the integrand e^(-w t) t^moment
    times the shape's samples, with e^(-w mid) half kept as the panel's
    scalar factor, and ``ellipse`` the shape's (rule, proved).  On E_rho,
    x = a cos psi + i b sin psi, the kernel e^(-w half x) is at most
    e^(half |(a Re w, b Im w)|), and |t| at most mid + half a."""
    prec = mpmath.mp.prec
    bits = prec + GUARD
    wr, wi = float(w.real), float(w.imag)
    rule, proved = ellipse

    def sample(mid, half, n):
        g = _product(_exponentials(_complex_tuple(-w * half), n, bits),
                     shape(mid, half, n), bits)
        if moment:
            t = _vector([contour.parameters(mid, half, n, bits)], bits)
            for _ in range(moment):
                g = _product(g, t, bits)
        return g, half * mpmath.exp(-w * mid)

    def majorant(mid, half, rhos):
        out = []
        for rho, m in zip(rhos, rule(mid, half, rhos)):
            a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
            out.append(_log(m) + half * math.hypot(a * wr, b * wi)
                       + moment * math.log(mid + half * a)
                       + math.log(half) - wr * mid)
        return out

    return _Piece(sample, majorant, proved, points, budget, pts,
                  abs(complex(w)))


@lru_cache(maxsize=16)
def _circle_kernel(cr, ci, mid, half, bits: int):
    """e^(-z rho w_j) w_j at the unit points w_j = e^(i phi_j) of the panel
    mid + half x at degree NEST, for -z rho = (cr + i ci) 2^-bits, as one
    vector of mantissa tuples: one exponential and one cosine and sine per
    node, once per (z rho, panel, bits), shared by every Hankel sum with
    that circle, whatever the degree each takes (:func:`._nested`)."""
    wr, wi, _half = _unit_points(mid, half, NEST, bits)
    _work.add("exp", len(wr))
    _work.add("cos_sin", len(wr))
    re, im = [], []
    for x, y in zip(wr, wi):
        # e^(-z rho w) = e^a (cos b + i sin b), a + i b = -z rho w
        e = mpf_exp(from_man_exp((cr * x - ci * y) >> bits, -bits), bits)
        c, s = mpf_cos_sin(from_man_exp((cr * y + ci * x) >> bits, -bits),
                           bits)
        re.append(mpf_mul(e, c))
        im.append(mpf_mul(e, s))
    parts, exp = _product(_vector((re, im), bits), ((wr, wi), -bits), bits)
    return tuple(map(tuple, parts)), exp


def _circle_piece(shape, ellipse, z, rho, points, budget, pts):
    """The :class:`_Piece` of the circle zeta = rho e^(i phi):
    e^(-z zeta) e^(i phi) from :func:`_circle_kernel` times the shape's
    samples, with i rho half as the scalar factor, and ``ellipse`` the
    shape's (rule, proved).  On E_rho, |Im phi| <= half b, so
    |e^(i phi)| <= e^(half b) and |e^(-z zeta)| <= e^(|z| rho e^(half b)).
    The frame points are the poles in phi of the singular values v,
    arg v - i log(|v| / rho) + 2 pi j for the j nearest the panel."""
    prec = mpmath.mp.prec
    bits = prec + GUARD
    rule, proved = ellipse
    cr, ci = _mantissas(_complex_tuple(-z * rho), -bits)
    size, radius = float(abs(z)), float(rho)

    def sample(mid, half, n):
        return (_product(_nested(_circle_kernel(cr, ci, mid, half, bits), n),
                         shape(mid, half, n), bits),
                mpmath.mpc(0, 1) * rho * half)

    def majorant(mid, half, rhos):
        out = []
        for r, m in zip(rhos, rule(mid, half, rhos)):
            spread = half * (r - 1 / r) / 2
            out.append(_log(m) + spread + size * radius * math.exp(spread)
                       + math.log(radius * half))
        return out

    mid = float((pts[0] + pts[-1]) / 2)
    poles = []
    for v in map(complex, points):
        arg, near = cmath.phase(v), round((mid - cmath.phase(v)) / math.tau)
        poles += [complex(arg + j * math.tau, -math.log(abs(v) / radius))
                  for j in (near - 1, near, near + 1)]
    return _Piece(sample, majorant, proved, poles, budget, pts,
                  size * radius + 1)


# -- the operations -------------------------------------------------------------------


def laplace_ray(f: BorelFunction, c0, spec: RaySpec,
                moment: int = 0) -> SummationResult:
    """Sum c0 + the Laplace integral of f along the ray of ``spec``.

    ``moment`` inserts a factor (-zeta)^moment into the integrand, so
    moment = 1 computes the z-derivative of the moment = 0 sum at
    quadrature level (differentiation under the integral is exact for
    these absolutely convergent integrals).

    Raises DecayMarginError when the margin Re(z e^(i theta)) is not
    positive, so small next to |z| that the kernel turns more than
    ``max_nodes`` times before the truncation point, or so small that no
    truncation point of the ladder brings the tail within target / 4,
    RayBlockedError when the ray passes too close to a singular point,
    naming the nearest one, and whatever the shape's ``origin_head``
    raises for an origin no head covers (DecayMarginError for a power
    kernel that is not integrable there, NotImplementedError for a
    dilogarithm sheet looped around 1).
    """
    if moment < 0:
        raise ValueError("moment must be >= 0")
    prec = spec.working_prec()
    guard = prec + 24
    with mpmath.workprec(guard):
        theta, z, w, m = _kernel(spec.theta, spec.z, guard)
        lo, head, head_err = f.origin_head(w, theta, moment, guard)
        sing = f.singular_values(guard)
        rotated = _rotated(sing, theta)
        _check_ray(sing, rotated, theta)
        target = mpmath.mpf(float(spec.target_error))
        pts, tail, proved = _choose_truncation(
            f.tail_rule(theta, m, moment, sing, guard), w, lo, target,
            spec.max_nodes)

        contour = Contour(theta)
        shape = f.panel_sampler(contour, guard)
        ellipse = f.ellipse_rule(contour, sing, guard)
        points = [complex(u) for u in rotated] + ([0j] if lo else [])
        piece = _ray_piece(shape, ellipse, w, contour, moment, points,
                           target / 4, pts)
        (val,), errq, rounding, (nodes,), degrees = _panels(
            [piece], spec.max_nodes)
        phase = mpmath.exp(mpmath.mpc(0, 1) * theta)
        weight = (-phase) ** moment * phase
        value = _to_mp(c0, guard) + weight * (head + val)
        rounding += mpmath.ldexp(abs(head), 2 - guard) \
            + mpmath.ldexp(1 + abs(value), -prec)
        error = rounded_up(errq + tail + head_err + rounding, prec)
        diagnostics = {
            "margin": _figure(m),
            "truncation": _figure(pts[-1]),
            "tail_bound": _figure(tail),
            "quadrature_error": _figure(errq),
            "rounding": _figure(rounding),
            "segments": len(pts) - 1,
            "panels": sum(degrees.values()),
            "degrees": degrees,
            "rigorous_tail": proved,
            "method": "clenshaw-curtis",
        }
    with mpmath.workprec(prec):
        return SummationResult(+value, error, nodes, diagnostics,
                               proved and ellipse[1])


def lateral_jump(f: BorelFunction, c0, theta_star, delta, z, *,
                 max_nodes: int = MAX_NODES, target_error: float = 1e-12,
                 prec: int | None = None) -> LateralPair:
    """Lateral sums on both sides of a singular direction, and their jump.

    The "+" sum uses the ray at theta_star - delta/2 (just below the
    singular direction) and the "-" sum the ray at theta_star + delta/2.
    With that orientation, jump = plus - minus equals 2 pi i times the sum
    of residues of e^(-z zeta) f(zeta) at the singular points swept
    between the two rays, matching the alien-calculus prediction.

    ``delta`` is the full angular opening between the rays; it must be
    positive, below pi/2, and wide enough that neither ray is blocked by
    the singular points that define the direction (for unit-distance
    singularities that means delta of a few hundredths or more).
    """
    delta = float(delta)
    if not 0 < delta < math.pi / 2:
        raise ValueError("delta must lie strictly between 0 and pi/2")
    half = mpmath.mpf(delta) / 2
    theta_star = _real_angle(theta_star, (prec or MIN_PREC) + 24)
    plus, minus = (
        laplace_ray(f, c0, RaySpec(theta_star + offset, z,
                                   max_nodes=max_nodes,
                                   target_error=target_error, prec=prec))
        for offset in (-half, half))
    jump = plus.value - minus.value
    error = plus.error_estimate + minus.error_estimate
    return LateralPair(plus, minus, jump, error)


def hankel_laplace(f: BorelFunction, theta, z, *, target_error: float = 1e-12,
                   max_nodes: int = MAX_NODES,
                   prec: int | None = None) -> SummationResult:
    """Laplace sum over a Hankel contour winding once around the origin.

    The contour and its one ray integrand over [rho, T] are described in
    the module docstring; f gives its samples through ``panel_sampler``,
    once for the circle and, unless it is ``single_valued``, once for the
    ray's difference of sheets.  On ``single_valued`` shapes only the
    circle is integrated: the diagnostics then report no segments,
    ``ray_nodes`` 0 and a zero tail bound.  The circle starts as one
    Clenshaw-Curtis panel over the whole turn, at the degree its bound
    picks (bisected like any other panel); it and the ray share the
    ``max_nodes`` cap, and each takes an eighth of the target (a quarter
    without the ray) as its quadrature budget.  The error is the
    quadrature bounds + 2 * tail (one tail bound per sheet) + the
    rounding term.  Shapes with neither one sheet nor a polar evaluator
    (``LogPoleBF``, ``DilogBF``) raise NotImplementedError, before any
    ray check.
    """
    spec = RaySpec(theta, z, max_nodes=max_nodes,
                   target_error=target_error, prec=prec)
    out_prec = spec.working_prec()
    guard = out_prec + 24
    with mpmath.workprec(guard):
        th, zv, w, m = _kernel(theta, z, guard)
        ray = Contour(th, hankel=True)
        # the difference of sheets, built first: a shape that cannot give
        # it is refused before any ray check
        difference = None if f.single_valued \
            else f.panel_sampler(ray, guard)
        sing = f.singular_values(guard)
        rotated = _rotated(sing, th)
        _check_ray(sing, rotated, th)
        rho = min(abs(v) for v in sing) / 4 if sing \
            else mpmath.mpf(1) / 4
        target = mpmath.mpf(float(target_error))
        if f.single_valued:
            # no ray segments: the contour that is integrated ends on the
            # circle, and neither ray has a tail
            pts, tail, proved = [rho], mpmath.mpf(0), True
        else:
            pts, tail, proved = _choose_truncation(
                f.tail_rule(th, m, 0, sing, guard), w, rho, target, max_nodes)
        below = th - 2 * mpmath.pi
        on_circle = Contour(th, radius=rho)
        circle = f.panel_sampler(on_circle, guard)
        ellipse = f.ellipse_rule(on_circle, sing, guard)
        proved_rules = ellipse[1]
        # the circle and the ray share the quadrature budget and the cap
        budget = target / (4 if difference is None else 8)
        pieces = [_circle_piece(circle, ellipse, zv, rho, sing, budget,
                                [below, th])]
        if difference is not None:
            ellipse = f.ellipse_rule(ray, sing, guard)
            proved_rules = proved_rules and ellipse[1]
            pieces.append(_ray_piece(
                difference, ellipse, w, ray, 0,
                [complex(u) for u in rotated] + [0j], budget, pts))
        values, errq, rounding, nodes, degrees = _panels(pieces, max_nodes)
        circ_val, ray_val = values[0], sum(values[1:])
        circ_n, ray_n = nodes[0], sum(nodes[1:])

        phase = mpmath.exp(mpmath.mpc(0, 1) * th)
        value = phase * ray_val + circ_val
        rounding += mpmath.ldexp(1 + abs(value), -out_prec)
        error = rounded_up(errq + 2 * tail + rounding, out_prec)
        diagnostics = {
            "margin": _figure(m),
            "truncation": _figure(pts[-1]),
            "radius": _figure(rho),
            "tail_bound": _figure(tail),
            "quadrature_error": _figure(errq),
            "rounding": _figure(rounding),
            "segments": len(pts) - 1,
            "panels": sum(degrees.values()),
            "degrees": degrees,
            "ray_nodes": ray_n,
            "circle_nodes": circ_n,
            "rigorous_tail": proved,
            "method": "clenshaw-curtis",
        }
    with mpmath.workprec(out_prec):
        return SummationResult(+value, error, circ_n + ray_n, diagnostics,
                               proved and proved_rules)


# -- asymptotics reports ---------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticsReport:
    """Rescaled remainders of ray sums against a divergent expansion.

    ``sups[i]`` is sup over the z-list of |z|^(n+1) |S(z) - P_n(z)| for
    n = orders[i], where P_n is the partial sum through z^-n; the
    matching entry of ``sup_errors`` is the quadrature slack scaled the
    same way.  ``satisfies_envelope(C, M)`` checks the 1-Gevrey bound
    sups[i] <= C * M^n * n! within that slack.
    """

    orders: tuple
    zs: tuple
    sums: tuple
    sups: tuple
    sup_errors: tuple

    def satisfies_envelope(self, C, M) -> bool:
        C = mpmath.mpf(C)
        M = mpmath.mpf(M)
        return all(
            s <= C * M ** n * mpmath.factorial(n) + e
            for n, s, e in zip(self.orders, self.sups, self.sup_errors)
        )

    def rows(self):
        return [
            {"order": int(n), "sup": float(s), "slack": float(e),
             "gevrey_ratio": float(s / mpmath.factorial(n))}
            for n, s, e in zip(self.orders, self.sups, self.sup_errors)
        ]


def verify_asymptotics(f: BorelFunction, c0, series: FormalSeries, theta, zs,
                       orders=None, *, target_error: float = 1e-24,
                       max_nodes: int = MAX_NODES,
                       prec: int | None = None) -> AsymptoticsReport:
    """Compare ray sums with partial sums of their asymptotic expansion.

    The constant term of ``series`` must agree with ``c0`` (the partial
    sums use the series coefficients alone, with coefficient 0 playing
    the role of the constant).  The report carries the data; it asserts
    nothing itself, so callers can test the envelope they can prove.
    """
    if orders is None:
        orders = tuple(range(0, min(series.order, 10) + 1))
    orders = tuple(int(n) for n in orders)
    if not orders:
        raise ValueError("at least one truncation order is required")
    if max(orders) > series.order:
        raise ValueError(
            f"order {max(orders)} exceeds the series order {series.order}")
    spec0 = RaySpec(theta, 1, target_error=target_error, prec=prec)
    guard = spec0.working_prec() + 24
    with mpmath.workprec(guard):
        c0v = _to_mp(c0, guard)
        if abs(series[0].evaluate(guard) - c0v) > mpmath.ldexp(1, -40):
            raise ValueError(
                "the constant coefficient of the series disagrees with c0")
        zvals = [_to_mp(zp, guard) for zp in zs]
        results = tuple(
            laplace_ray(f, c0, RaySpec(theta, zp, max_nodes=max_nodes,
                                       target_error=target_error, prec=prec))
            for zp in zs
        )
        coeffs = [series[n].evaluate(guard) for n in range(series.order + 1)]
        sups = []
        slacks = []
        for n in orders:
            best = mpmath.mpf(0)
            slack = mpmath.mpf(0)
            for zv, res in zip(zvals, results):
                partial = c0v
                for k in range(1, n + 1):
                    partial += coeffs[k] * zv ** (-k)
                scale = abs(zv) ** (n + 1)
                best = max(best, scale * abs(res.value - partial))
                slack = max(slack, scale * res.error_estimate)
            sups.append(best)
            slacks.append(slack)
    return AsymptoticsReport(orders, tuple(zvals), results,
                             tuple(sups), tuple(slacks))
