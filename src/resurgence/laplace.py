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

The numeric scheme has two independent error sources and both are reported:

* truncation: the ray is cut at a finite T, and the discarded tail is
  bounded by the shape's ``tail_rule``, a proved inequality for every
  shape of :mod:`.borelfun` (Pade models take the sampled default).
* quadrature: [0, T] is cut at a geometric ladder of segments, and each
  segment is integrated with adaptive nested Clenshaw-Curtis panels on
  the Chebyshev-Lobatto nodes of :mod:`._chebyshev`.  A panel is sampled
  once at 2n + 1 nodes; the (n + 1)-point rule on every other sample is
  compared with the full rule, and a panel whose difference exceeds its
  length's share of target_error / 16 is bisected.  Every panel
  integrand is analytic on its panel (a shape with an ``origin_head``
  leaves out [0, h], which its exact head series covers), so the rule
  converges geometrically.  The reported quadrature error is the sum of
  the panel differences, taken with a safety factor of 4, never a
  wishful constant.  ``max_nodes`` caps the bisection, and panels left
  unconverged by it keep their differences in the error.

How a panel is sampled.  On the ray panel t = mid + half x, the kernel
is e^(-w mid) e^(-w half x): the first factor is one scalar of the
panel's total, and the second comes from ``_chebyshev._exponentials`` as
one block-fixed-point vector (integer mantissas sharing one exponent):
for 1 < |u| <= 2^16, u = -w half, the vector of u / 2 squared in
integers, and otherwise one libmp exponential per node x >= 0 and the
reflection e^(-u x) = conj(e^(u x)) / |e^(u x)|^2 in integers at the
others.  The segment ladder doubles the width from one segment to the
next, and bisection halves it, so the kernels of a ray share one base.
The shape's ``panel_sampler`` for the contour gives its samples as a
vector too (the default builds the shape's scalar evaluator for the
contour, maps it over the nodes and converts once; rational shapes, the
Stirling minor and power kernels compute theirs in integers and libmp,
a power kernel as a scalar of the panel times vectors that depend only
on the panel's shape, then times its sheet constants), and the two,
times t^moment, are multiplied in integers.  A Hankel circle takes
e^(-z rho e^(i phi)) e^(i phi) with one complex exponential per node at
the cached unit points e^(i phi_j) (:func:`_circle_kernel`).  Both
Clenshaw-Curtis rules are integer dot products of the one vector with
their folded weights rows, and each panel converts to mpmath once.

What does not depend on the shape is computed once per point and shared.
The ray kernel depends only on w, the panel's width and the precision,
so the two halves of a bisected panel, and every sum with the same w
and ladder (the Hankel sums of one z and theta), read one cached vector;
the circle kernel depends only on z rho, the panel and the precision,
and is cached likewise; and the singular values are rotated onto the
ray once per sum, for the ray check and the segment breakpoints, and
once per tail rule for its distances.  The caches are bounded, and a
cached vector is the one a fresh computation gives.

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
integrated.  The circle integrand is analytic in the angle, so the same
panel rule takes the whole turn as one panel.

`verify_asymptotics` compares ray sums against the partial sums of a
divergent expansion and reports the rescaled remainders
sup over z of |z|^(n+1) |S(z) - partial_n(z)| together with the
quadrature slack, so a caller can test a 1-Gevrey envelope honestly.

`pade_minor` builds a rational model of a Borel transform from raw
asymptotic coefficients.  It is a convenience for exploration: nothing
about it is certified, and results computed through it say so in their
diagnostics.

Out of scope here: accelero-summation, averaged (median) summation, and
certified interval quadrature.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache

import mpmath
from mpmath.libmp import from_man_exp, mpf_cos_sin, mpf_exp, mpf_mul

from . import _work
from ._chebyshev import (GUARD, _complex_tuple, _exponentials, _mantissas,
                         _product, _total, _unit_points, _values, _vector,
                         _weights)
from .borelfun import BorelFunction, Contour, _pole_tail_distance, _rotated
from .errors import MIN_PREC, DecayMarginError, RayBlockedError, check_prec
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
    are always sampled, one panel each), and a sum stopped by the cap
    reports the error estimates of its unconverged panels, so its error
    may exceed ``target_error``.  Rays whose kernel turns more than
    ``max_nodes`` times before the truncation point are refused.
    """

    theta: object
    z: object
    max_nodes: int = 4000
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
    """A computed sum: value, honest error estimate, and how it was made.

    ``error_estimate`` adds the quadrature rule's nested-rule comparison
    (with a safety factor) to the analytic truncation bound.  The
    ``diagnostics`` mapping records the truncation point, the decay
    margin, both error components, the ``method``, the initial
    ``segments`` and the ``panels`` left after bisection, and whether the
    tail envelope was proved (``rigorous_tail``) or merely sampled.  Each
    figure is a float, or its 17 digits as a string when a double would
    read it as infinite or as zero.
    """

    value: object
    error_estimate: object
    nodes_used: int
    diagnostics: dict = field(default_factory=dict, repr=False)


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


# steps of the truncation ladder T_floor (3/2)^k, k = 0 .. _LADDER_STEPS
_LADDER_STEPS = 400


@_work.timing("truncation_s")
def _choose_truncation(rule, w, target, max_nodes):
    """(T, tail bound, proved?): the first point of the ladder T_floor,
    3/2 T_floor, ... whose tail bound is within target / 4, with the
    floor and the bounds from the shape's ``tail_rule``.

    The ladder is walked from the floor, except for a proved bound that
    decreases in T (the rule says so): there the search
    starts at the step where a bound decaying like e^(-m T) from its
    value at the floor meets the goal, and steps down while the step
    before is within it, or up while it is not.  By monotony that is the
    step the walk finds, with the same T and bound, in a few evaluations.

    A ray on which the kernel e^(-w t) turns more often over [0, T] than
    ``max_nodes`` nodes could resolve is refused.  That happens when the
    decay margin m = Re w is tiny next to |w|: the truncation point
    grows like 1/m while the kernel keeps turning at the rate |Im w|,
    and the rule's own error estimate then no longer bounds its error.
    So is a margin so small that the bound at the last step of the
    ladder is still above target / 4.
    """
    floor, bound_at, decreasing = rule
    m = mpmath.mpc(w).real
    goal = target / 4
    ladder = [floor]
    bounds = {}

    def bound(k):
        while len(ladder) <= k:
            ladder.append(ladder[-1] * 3 / 2)
        if k not in bounds:
            _work.add("tail_bounds")
            bounds[k] = bound_at(ladder[k])
        return bounds[k][0]

    k = 0
    if bound(0) > goal and bounds[0][1] and decreasing:
        span = mpmath.log(bound(0) / goal) / m
        steps = mpmath.ceil(mpmath.log(1 + span / ladder[0]) / mpmath.log(1.5))
        k = int(min(_LADDER_STEPS, max(1, steps)))
        if bound(k) <= goal:
            while bound(k - 1) <= goal:
                k -= 1
    while k < _LADDER_STEPS and bound(k) > goal:
        k += 1
    T, (tail, proved) = ladder[k], bounds[k]
    if tail > goal:
        raise DecayMarginError(
            f"decay margin {mpmath.nstr(m, 8)} is too small: the tail bound "
            f"at T = {mpmath.nstr(T, 4)}, the last step of the truncation "
            f"ladder, is {mpmath.nstr(tail, 4)}, above target / 4",
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
    return T, tail, proved


# -- quadrature -----------------------------------------------------------------------


def _segments(lo, T, rotated):
    """Subdivision points: a geometric ladder plus the projections of the
    singular values near the ray, given as their ``rotated`` points
    v e^(-i theta)."""
    lo = mpmath.mpf(lo)
    pts = {lo, mpmath.mpf(T)}
    t = mpmath.mpf(1) / 2 if lo == 0 else 2 * lo
    while t < T:
        if t > lo:
            pts.add(t)
        t *= 2
    for u in rotated:
        if abs(u.imag) < 1 and lo < u.real < T:
            pts.add(u.real)
    return sorted(pts)


# degree n of the coarse Clenshaw-Curtis rule; the fine rule has degree 2n
_PANEL_DEGREE = 24
_FINE = 2 * _PANEL_DEGREE


def _panels(sample, pts, budget, max_nodes):
    """Integral over [pts[0], pts[-1]] by adaptive nested Clenshaw-Curtis
    panels, as (value, error, nodes, panels).

    ``sample(mid, half)`` returns the integrand on the panel mid + half x
    at the 2n + 1 Chebyshev-Lobatto nodes of the fine rule, as one
    block-fixed-point vector, and a scalar factor of the panel's total.
    Both rules are applied to that one vector in integers, the fine rule's
    weights row to every sample and the (n + 1)-point rule's to every
    other one; the panel's value (the fine rule's) and the difference of
    the two, its error estimate, are converted once.  A panel whose
    estimate exceeds its length's share of ``budget`` is bisected, the
    largest estimate first, while the two halves keep the node count
    within ``max_nodes``.  Every segment between consecutive breakpoints
    is sampled, one panel each, and panels still unconverged when the cap
    binds keep their estimates in the returned error.
    """
    prec = mpmath.mp.prec
    fine_row, coarse_row = _weights(_FINE, prec), _weights(_PANEL_DEGREE, prec)
    length = pts[-1] - pts[0]
    count = 0
    accepted = []
    pending = []

    def run(a, b):
        nonlocal count
        (parts, exp), factor = sample((a + b) / 2, (b - a) / 2)
        count += _FINE + 1
        totals = []
        for p in parts:
            fine = _total(fine_row, p)
            totals.append([fine, fine - _total(coarse_row, p[::2])])
        value, difference = _values(totals, exp - (prec + GUARD + 1), prec)
        err = abs(factor * difference)
        panel = (a, b, factor * value, err)
        if err <= budget * (b - a) / length:
            accepted.append(panel)
        else:
            heapq.heappush(pending, (-float(err), count, panel))

    for a, b in zip(pts, pts[1:]):
        run(a, b)
    while pending and count + 2 * (_FINE + 1) <= max_nodes:
        a, b, _val, _err = heapq.heappop(pending)[2]
        run(a, (a + b) / 2)
        run((a + b) / 2, b)
    final = accepted + [entry[2] for entry in pending]
    value = mpmath.fsum(panel[2] for panel in final)
    error = mpmath.fsum(panel[3] for panel in final)
    return value, error, count, len(final)


def _ray_sampler(shape, w, contour, moment=0):
    """The panel sampler of a ray: e^(-w t) t^moment times the shape's
    samples, with e^(-w mid) half kept as the panel's scalar factor."""
    prec = mpmath.mp.prec
    bits = prec + GUARD

    def sample(mid, half):
        g = _product(_exponentials(_complex_tuple(-w * half), _FINE, bits),
                     shape(mid, half, _FINE), bits)
        if moment:
            t = _vector([contour.parameters(mid, half, _FINE, bits)], bits)
            for _ in range(moment):
                g = _product(g, t, bits)
        return g, half * mpmath.exp(-w * mid)

    return sample


@lru_cache(maxsize=16)
def _circle_kernel(cr, ci, mid, half, bits: int):
    """e^(-z rho w_j) w_j at the unit points w_j = e^(i phi_j) of the panel
    mid + half x, for -z rho = (cr + i ci) 2^-bits, as one vector of
    mantissa tuples: one exponential and one cosine and sine per node,
    once per (z rho, panel, bits), shared by every Hankel sum with that
    circle."""
    wr, wi, _half = _unit_points(mid, half, _FINE, bits)
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


def _circle_sampler(shape, z, rho):
    """The panel sampler of the circle zeta = rho e^(i phi):
    e^(-z zeta) e^(i phi) from :func:`_circle_kernel` times the shape's
    samples, with i rho half as the scalar factor."""
    prec = mpmath.mp.prec
    bits = prec + GUARD
    cr, ci = _mantissas(_complex_tuple(-z * rho), -bits)

    def sample(mid, half):
        return (_product(_circle_kernel(cr, ci, mid, half, bits),
                         shape(mid, half, _FINE), bits),
                mpmath.mpc(0, 1) * rho * half)

    return sample


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
        origin = f.origin_head(w, theta, moment, guard)
        sing = f.singular_values(guard)
        rotated = _rotated(sing, theta)
        _check_ray(sing, rotated, theta)
        target = mpmath.mpf(float(spec.target_error))
        T, tail, proved = _choose_truncation(
            f.tail_rule(theta, m, moment, sing, guard), w, target,
            spec.max_nodes)

        contour = Contour(theta)
        shape = f.panel_sampler(contour, guard)
        lo, head, head_err = origin(T)
        pts = _segments(lo, T, rotated)
        val, errq, nodes, panels = _panels(
            _ray_sampler(shape, w, contour, moment), pts, target / 16,
            spec.max_nodes)
        phase = mpmath.exp(mpmath.mpc(0, 1) * theta)
        weight = (-phase) ** moment * phase
        value = _to_mp(c0, guard) + weight * (head + val)
        error = 4 * errq + 2 * tail + head_err \
            + mpmath.ldexp(1 + abs(value), -prec)
        diagnostics = {
            "margin": _figure(m),
            "truncation": _figure(T),
            "tail_bound": _figure(tail),
            "quadrature_error": _figure(errq),
            "segments": len(pts) - 1,
            "panels": panels,
            "rigorous_tail": proved,
            "method": "clenshaw-curtis",
        }
    with mpmath.workprec(prec):
        return SummationResult(+value, +error, nodes, diagnostics)


def lateral_jump(f: BorelFunction, c0, theta_star, delta, z, *,
                 max_nodes: int = 4000, target_error: float = 1e-12,
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
                   max_nodes: int = 6000,
                   prec: int | None = None) -> SummationResult:
    """Laplace sum over a Hankel contour winding once around the origin.

    The contour and its one ray integrand over [rho, T] are described in
    the module docstring; f gives its samples through ``panel_sampler``,
    once for the circle and, unless it is ``single_valued``, once for the
    ray's difference of sheets.  On ``single_valued`` shapes only the
    circle is integrated: the diagnostics then report no segments,
    ``ray_nodes`` 0 and a zero tail bound.  The circle is one
    Clenshaw-Curtis panel over the whole turn (bisected like any other
    panel); it and the ray share the quadrature budget target_error / 16
    and the ``max_nodes`` cap.  The error is 4 * (ray + circle quadrature
    errors) + 2 * tail (one tail bound per ray) + one unit of the result's
    last place.  Shapes with neither one sheet nor a polar evaluator
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
            T, tail, proved, pts = rho, mpmath.mpf(0), True, [rho]
        else:
            T, tail, proved = _choose_truncation(
                f.tail_rule(th, m, 0, sing, guard), w, target, max_nodes)
            pts = _segments(rho, T, rotated)
        below = th - 2 * mpmath.pi
        circle = f.panel_sampler(Contour(th, radius=rho), guard)

        # the circle and the ray share the quadrature budget and the cap
        circ_val, circ_err, circ_n, circ_panels = _panels(
            _circle_sampler(circle, zv, rho), [below, th], target / 32,
            max_nodes)
        ray_val, ray_err, ray_n, ray_panels = _panels(
            _ray_sampler(difference, w, ray), pts, target / 32,
            max_nodes - circ_n)

        phase = mpmath.exp(mpmath.mpc(0, 1) * th)
        value = phase * ray_val + circ_val
        error = 4 * (ray_err + circ_err) + 2 * tail \
            + mpmath.ldexp(1 + abs(value), -out_prec)
        diagnostics = {
            "margin": _figure(m),
            "truncation": _figure(T),
            "radius": _figure(rho),
            "tail_bound": _figure(tail),
            "quadrature_error": _figure(ray_err + circ_err),
            "segments": len(pts) - 1,
            "panels": ray_panels + circ_panels,
            "ray_nodes": ray_n,
            "circle_nodes": circ_n,
            "rigorous_tail": proved,
            "method": "clenshaw-curtis",
        }
    with mpmath.workprec(out_prec):
        return SummationResult(+value, +error, ray_n + circ_n, diagnostics)


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
                       max_nodes: int = 4000,
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
