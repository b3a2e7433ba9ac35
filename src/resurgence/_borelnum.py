"""The numeric half of the Borel-plane shapes of :mod:`.borelfun`: their
evaluators and the summation rules that :mod:`.laplace` sums every shape
through.

Each shape's rules are written here, in a class named after the shape
(``_RationalRules`` for ``RationalBF``, ``_BorelRules`` for the
defaults of ``BorelFunction``), and importing this module sets them on
the shape classes, under the names the sums call, so they read as the
shape's own methods and a subclass overrides them as usual.
:mod:`.laplace` imports this module; otherwise a shape loads it on its
first numeric call (``BorelFunction.__getattr__``), so the exact layer
never imports mpmath or the spectral kernel.

The rules are built once per sum: ``singular_values`` (with the shape's
``single_valued`` flag), ``panel_sampler``, ``ellipse_rule``,
``tail_rule`` and ``origin_head``; how a shape is evaluated on a contour
is decided here, not in the sums.  Every majorant and tail bound is
proved, and a shape without them is refused with NotImplementedError
before anything is sampled.  The default sampler builds a scalar
evaluator of the shape for the :class:`Contour` (the principal sheet
along a ray, ``polar_evaluator`` on a circle, the difference of two
polar sheets on a Hankel ray) and maps it over the nodes; the default
``origin_head`` is none, and ``polar_evaluator`` refuses a shape that is
not single-valued.  Every sampler refuses the Hankel ray of a
single-valued shape.  The bundled shapes' majorants and tails come from
the factored denominator of every rational piece (:class:`Factors`),
each pole exact for a rational shape and the log cofactors, and in an
inclusion disk for a Pade model; the log bound; the Stirling lattice
and coth bound; the dilogarithm's inversion bound on ellipses clear of
its cut; and closed forms for power kernels.  Power kernels also have
polar evaluation and an exact head series at the origin, and rational
shapes, the Stirling minor and power kernels panel samples computed in
integers and libmp.  A power kernel takes t^(sigma-1) on a ray or
e^(i (sigma-1) phi) on a circle, and the lane of log t or phi when it
carries a log, as a scalar of the panel times vectors that depend only
on the panel's shape (cached per half / mid on a ray, the ray kernel at
i (sigma-1) half on a circle), and applies its sheet constants to the
lanes as integer products.  The tail envelopes integrate to
incomplete-gamma moments, Gamma(s, m T) / m^s, which
:func:`_moment_integral` bounds in closed form at a non-integer order
and takes from ``mpmath.gammainc`` at an integer one.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import mpmath
from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpc_div,
                          mpc_mul, mpf_add, mpf_cos_sin, mpf_div, mpf_exp,
                          mpf_log, mpf_mul, mpf_pi, mpf_pos, mpf_shift,
                          mpf_sub)

from . import _work
from ._chebyshev import (GUARD, NEST, _bernstein, _clearance, _complex_tuple,
                         _exponentials, _fixed, _mantissas, _nested, _nodes,
                         _plus, _product, _quotients, _scaled, _vector,
                         _node_cosines, _unit_points)
from .borelfun import (BorelFunction, DilogBF, LogPoleBF, PowerBF,
                       RationalBF, RationalFunction, StirlingBF)
from .errors import DecayMarginError
from .series import _bernoulli

# -- tail rules -----------------------------------------------------------------------


def _moment_integral(order, m, T):
    """A bound >= the integral over [T, inf) of e^(-m t) t^(order-1) dt,
    which is Gamma(s, x) / m^s with s = order and x = m T: exact, from
    ``mpmath.gammainc``, at an integer order, and in closed form at any
    other:

    * s < 1: Gamma(s, x) <= x^(s-1) e^(-x), since t^(s-1) <= x^(s-1) for
      t >= x, and the integral of e^(-t) over [x, inf) is e^(-x);
    * s > 1 and x > s - 1: Gamma(s, x) <= x^(s-1) e^(-x) / (1 - (s-1)/x),
      since log is concave, log(t / x) <= (t - x) / x, so
      t^(s-1) <= x^(s-1) e^((s-1)(t-x)/x) for t >= x, and the integral of
      e^(-x - (1 - (s-1)/x)(t - x)) over [x, inf) is
      e^(-x) / (1 - (s-1)/x);
    * and Gamma(s, x) <= Gamma(s), the whole integral, taken as the bound
      for s > 1 up to x = s - 1 and as the min with the bound above past
      it.

    The truncation walk of the Laplace sums evaluates the bound at every
    ladder point it tries, so it needs no monotony in T (the bound has
    it: x^s e^(-x) / (x - s + 1) decreases in x, its log having
    derivative (1 - y)/(s - 1 + y) - 1/y < 0 at y = x - s + 1 > 0)."""
    x = m * T
    if mpmath.isint(order):
        _work.add("gammainc")
        with _work.timing("gammainc_s"):
            return mpmath.gammainc(order, x) / m ** order
    _work.add("closed_form")
    s1 = order - 1
    if s1 < 0:
        bound = mpmath.exp(s1 * mpmath.log(x) - x)
    else:
        bound = mpmath.gamma(order)
        if x > s1:
            bound = min(bound, mpmath.exp(s1 * mpmath.log(x) - x)
                        / (1 - s1 / x))
    return bound / m ** order


def _rotation(theta):
    """e^(-i theta), which turns the ray at angle ``theta`` onto the
    positive axis."""
    return mpmath.exp(mpmath.mpc(0, -1) * theta)


def _rotated(values, theta):
    """The points u = v e^(-i theta) of ``values``: one rotation per sum or
    tail rule, which every distance to the ray then reads."""
    rotation = _rotation(theta)
    return [v * rotation for v in values]


def _pole_tail_distance(u, T):
    """min over t >= T of |t e^(i theta) - v|, by exact geometry, for the
    rotated point u = v e^(-i theta) (:func:`_rotated`)."""
    if u.real >= T:
        return abs(u.imag)
    return abs(mpmath.mpf(T) - u)


class Factors(NamedTuple):
    """The moduli of a rational function num / (lead prod over poles of
    (zeta - s_p)^m_p): ``num`` those of the numerator's coefficients,
    lowest degree first, ``lead`` and ``poles`` (p, m_p, radius_p) with
    |s_p - p| <= radius_p.  Where each d_p = |zeta - p| > radius_p, the
    function is at most sum of num[k] |zeta|^k over lead times the
    product of (d_p - radius_p)^m_p."""

    num: list
    lead: object
    poles: list


def _reduced(rat):
    """``rat`` with each declared pole's multiplicity after cancelling
    numerator zeros (``RationalFunction._reduced_at``), so that no factor
    vanishes at a removable pole."""
    for p in list(rat.poles):
        num, m = rat._reduced_at(p)
        if m < rat.poles[p]:
            rat = RationalFunction(num, poles={**rat.poles, p: m},
                                   lead=rat.lead)
    return rat


def _rational_factors(rat, prec):
    """The :class:`Factors` of ``rat``, reduced (:func:`_reduced`), at
    ``prec`` bits, its poles exact."""
    rat = _reduced(rat)
    return Factors([abs(c.evaluate(prec)) for c in rat.num],
                   abs(rat.lead.evaluate(prec)),
                   [(p.evaluate(prec), m, 0) for p, m in rat.poles.items()])


def _factored_envelope(factors: Factors, theta):
    """A function T -> poly with |f(t e^(i theta))| <= sum of poly[j] t^j
    for t >= T, by the bound of :class:`Factors` with d_p the distance
    from the tail to p, and poly = [inf] where a pole's disk may meet the
    tail."""
    rotation = _rotation(theta)
    poles = [(v * rotation, m, r) for v, m, r in factors.poles]

    def envelope(T):
        den = factors.lead
        for u, m, r in poles:
            gap = _pole_tail_distance(u, T) - r
            if not gap > 0:
                return [mpmath.inf]
            den *= gap ** m
        return [c / den for c in factors.num]

    return envelope


def _moment_tail(m, moment, T, poly):
    """The integral over t >= T of e^(-m t) t^moment times the sum of
    poly[j] t^j, each term by :func:`_moment_integral`."""
    return abs(sum(c * _moment_integral(moment + 1 + j, m, T)
                   for j, c in enumerate(poly)))


def _envelope_tail(envelope, m, moment):
    """The tail bound T -> the integral of e^(-m t) t^moment times the
    envelope T -> poly over t >= T."""
    return lambda T: _moment_tail(m, moment, T, envelope(T))


class Contour(NamedTuple):
    """Where a Laplace sum samples a shape, in polar form zeta = r e^(i phi).

    A ray (``radius`` None) is parametrised by r = t at the continuous
    angle ``theta``; with ``hankel`` its samples are the difference of the
    two sheets, f(t, theta) - f(t, theta - 2 pi).  A circle of radius
    ``radius`` is parametrised by the continuous angle phi.  A panel is the
    parameter interval mid + half x for x in [-1, 1], sampled at the
    Chebyshev-Lobatto nodes x_j = -cos(pi j / n), n dividing NEST.
    """

    theta: object
    radius: object = None
    hankel: bool = False

    def parameters(self, mid, half, n: int, bits: int):
        """mid + half x_j at the nodes, as mpf tuples rounded to ``bits``."""
        m, h = (mpmath.mpmathify(v)._mpf_ for v in (mid, half))
        return [mpf_add(m, mpf_mul(h, from_man_exp(-c, -bits)), bits)
                for c in _node_cosines(n, bits)]

    def points(self, mid, half, n: int, bits: int):
        """The points zeta_j at the nodes as integer real and imaginary
        parts times 2^bits; the imaginary parts are None on the ray
        theta = 0.  A circle's points are every (NEST / n)-th of the cached
        unit points of degree NEST (:func:`._chebyshev._unit_points`)."""
        if self.radius is None:
            m, h = (_mantissas([mpmath.mpmathify(v)._mpf_], -bits)[0]
                    for v in (mid, half))
            ts = [m - (h * c >> bits) for c in _node_cosines(n, bits)]
            if self.theta == 0:
                return ts, None
            _work.add("cos_sin")
            c, s = _mantissas(mpf_cos_sin(mpmath.mpf(self.theta)._mpf_, bits),
                              -bits)
            return [t * c >> bits for t in ts], [t * s >> bits for t in ts]
        wr, wi, _half = _unit_points(mid, half, NEST, bits)
        wr, wi = wr[::NEST // n], wi[::NEST // n]
        r = _mantissas([mpmath.mpf(self.radius)._mpf_], -bits)[0]
        return [r * x >> bits for x in wr], [r * y >> bits for y in wi]


def _one_sheet(f, contour: Contour):
    """Refuse the Hankel ray of a single-valued shape: its sheets agree."""
    if contour.hankel and f.single_valued:
        raise ValueError(
            f"{type(f).__name__} is single-valued: hankel_laplace integrates "
            "only the circle of a single-valued shape, never its Hankel ray"
        )

# -- majorants on Bernstein ellipses -------------------------------------------

# the relative margin of the ellipse rules' double-precision arithmetic: a
# few dozen roundings, each of a unit 2^-53, and libm's log and exp
_MARGIN = 1 + 2.0 ** -20


class _Frame:
    """The images in the Borel plane of the Bernstein ellipses E_rho of one
    panel mid + half x of a contour, in doubles; E_rho has semi-axes
    a = (rho + 1/rho) / 2 and b = (rho - 1/rho) / 2.

    On a ray the image is t e^(i theta) for t in mid + half E_rho, and
    points are taken in the rotated frame u = v e^(-i theta), where it is
    the ellipse of centre mid, foci mid -+ half and semi-axes half a and
    half b.  On a circle of radius R it is R e^(i phi) for phi in
    mid + half E_rho, inside the annulus R e^(-half b) <= |zeta| <=
    R e^(half b) (|Im phi| <= half b); points stay as they are."""

    def __init__(self, contour: Contour):
        self.radius = None if contour.radius is None \
            else float(contour.radius)
        self.rotation = cmath.exp(-1j * float(contour.theta))

    def point(self, v) -> complex:
        v = complex(v)
        return v if self.radius is not None else v * self.rotation

    def radii(self, mid, half, rho):
        """(r, R): bounds of the least and the largest |zeta| on the
        image of E_rho.  On a ray the vertex mid - half a is the point of
        the ellipse nearest the origin when it is positive."""
        a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
        if self.radius is None:
            return max(0.0, mid - abs(half) * a), abs(mid) + abs(half) * a
        spread = abs(half) * b
        return self.radius * math.exp(-spread), self.radius * math.exp(spread)

    def distances(self, p, mid, half, rhos):
        """Per rho, a lower bound of the distance from the frame point p to
        the image of E_rho, 0 where they may meet: on a ray half times the
        clearance of the ellipse through p (``_chebyshev._clearance``), on
        a circle the gap between |p| and the annulus."""
        if self.radius is None:
            rho_p = _bernstein((p - mid) / half)
            return [abs(half) * _clearance(rho_p, rho) if rho < rho_p
                    else 0.0 for rho in rhos]
        size = abs(p)
        out = []
        for rho in rhos:
            low, high = self.radii(mid, half, rho)
            out.append(max(size - high, low - size, 0.0))
        return out

    def cut_distances(self, start: float, mid, half, rhos):
        """Per rho, a lower bound of the distance from the image of E_rho
        on a ray to the cut [start, inf) of a principal sheet, start > 0:
        ``distances`` from the cut's point of least Bernstein parameter.

        The cut is the half-line x = P + s D, s >= start, in the panel's
        coordinate x.  The Bernstein parameter grows with the sum
        of the distances to the foci -1 and 1, which is convex along a
        line, so its least point is the line's least point, or the cut's
        start where that lies before it.  Along the line the least point
        is where the segment from 1 to the mirror image of -1 meets it,
        or a point of [-1, 1] where the line crosses that."""
        # y = (x - P) / u puts the line on the real axis, u its direction
        u = self.rotation
        P = -mid / half
        low, high = (-1 - P) / u, (1 - P) / u
        if low.imag * high.imag <= 0:
            # the line meets [-1, 1]
            r = low.real if low.imag == high.imag else low.real + (
                high.real - low.real) * low.imag / (low.imag - high.imag)
        else:
            low = low.conjugate()
            r = low.real + (high.real - low.real) * (-low.imag) \
                / (high.imag - low.imag)
        nearest = max(r * abs(half), start)
        return self.distances(nearest * u, mid, half, rhos)


def _margined(majorant):
    """The majorant grown by the margin of its double arithmetic."""
    return lambda mid, half, rhos: [m * _MARGIN
                                    for m in majorant(mid, half, rhos)]


def _factored_majorant(factors: Factors, frame: _Frame):
    """A majorant (mid, half, rhos) -> bounds of the rational function of
    ``factors`` on the images of the ellipses, by :class:`Factors` at
    their largest |zeta| and with d_p their distance to p, a margin short
    (math.inf where a disk may meet them); in Horner's rule and division
    by one distance at a time, a double that overflows is math.inf."""
    num = [float(c) for c in reversed(factors.num)]
    lead = float(factors.lead)
    poles = [(frame.point(v), m, float(r)) for v, m, r in factors.poles]

    def majorant(mid, half, rhos):
        out = []
        for rho in rhos:
            top, total = frame.radii(mid, half, rho)[1], 0.0
            for c in num:
                total = total * top + c
            out.append(total / lead)
        for p, m, r in poles:
            for i, d in enumerate(frame.distances(p, mid, half, rhos)):
                gap = d / _MARGIN - r
                for _ in range(m):
                    out[i] = out[i] / gap if gap > 0 else math.inf
        return out

    return majorant


def _logpole_majorant(f, frame: _Frame, prec):
    """The majorant of a rational-plus-logs shape on a ray: the factored
    majorants of its rational parts, each log factor bounded by
    |Log(1 - zeta/a) + 2 pi i k| <= |ln|1 - zeta/a|| + 2 pi (1 + |k|).
    The ellipse is convex and avoids a, so it subtends at most a half
    turn from a: the continued argument of 1 - zeta/a stays within pi of
    its principal value on the panel, inside (-pi, pi); and
    |ln|1 - zeta/a|| is at most ln(1 + |zeta| / |a|) or ln(|a| / d) with
    d the distance to a."""
    rational = _factored_majorant(_rational_factors(f.rational_part, prec),
                                  frame)
    logs = []
    for a, r, k in f.log_terms:
        av = complex(a.evaluate(prec))
        logs.append((_factored_majorant(_rational_factors(r, prec), frame),
                     frame.point(av), abs(av), 2 * math.pi * (1 + abs(k))))

    def majorant(mid, half, rhos):
        out = rational(mid, half, rhos)
        for cofactor, p, size, branch in logs:
            for i, (c, d, rho) in enumerate(zip(
                    cofactor(mid, half, rhos),
                    frame.distances(p, mid, half, rhos), rhos)):
                if c:
                    top = frame.radii(mid, half, rho)[1]
                    near = math.log(size / d) if d > 0 else math.inf
                    out[i] += c * (max(math.log1p(top / size), near)
                                   + branch)
        return out

    return majorant


# -- the numeric rules of the shapes ---------------------------------------


class _BorelRules:
    """The numeric defaults of every shape (:class:`.borelfun.BorelFunction`);
    the module docstring says what each does."""

    def numeric_evaluator(self, prec: int = 53):
        """A closure zeta -> value at ``prec`` bits, with every exact
        constant of the shape evaluated once when it is built."""
        raise NotImplementedError

    def numeric_eval(self, zeta, prec: int = 53):
        return self.numeric_evaluator(prec)(zeta)

    def singular_values(self, prec: int):
        """The nonzero singular points as numbers at ``prec`` bits."""
        vals = [p.evaluate(prec) if hasattr(p, "evaluate")
                else mpmath.mpmathify(p) for p in self.singular_points()]
        return [v for v in vals if abs(v) > 0]

    def polar_evaluator(self, prec: int = 53):
        """(r, angle) -> f(r e^(i angle)) on the sheet the continuous angle
        reaches.  Single-valued shapes have one sheet; any other shape
        must override this to be summed on a Hankel contour."""
        if not self.single_valued:
            raise NotImplementedError(
                "Hankel contours need a single-valued shape or one with "
                "polar (continuous-angle) evaluation; got "
                f"{type(self).__name__}"
            )
        evaluate = self.numeric_evaluator(prec)
        return lambda r, ang: evaluate(
            r * mpmath.exp(mpmath.mpc(0, 1) * ang))

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """(floor, bound) on the ray at angle ``theta``: the least
        truncation point, and a proved bound T -> the integral over t >= T
        of e^(-m t) |f(t e^(i theta))| t^moment, with what does not depend
        on T computed once; ``sing`` are the sum's ``singular_values``.
        Laplace sums evaluate the bound at the points of their segment
        ladder from the floor on, and truncate at the first that meets
        their goal.  The default refuses the shape, before sampling."""
        raise NotImplementedError(f"{type(self).__name__} has no proved "
                                  "tail rule")

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """A proved majorant: a function (mid, half, rhos) -> upper bounds,
        per rho, of the modulus of the samples ``panel_sampler`` gives on
        the panel mid + half x of ``contour`` (doubles), continued to the
        Bernstein ellipse E_rho of x (math.inf where the rule has none);
        ``sing`` are the sum's ``singular_values``.  Laplace sums read it
        to pick each panel's degree and bound its quadrature error before
        they sample.  The default refuses the shape."""
        raise NotImplementedError(f"{type(self).__name__} has no proved "
                                  "ellipse majorant on this contour")

    def origin_head(self, w, theta, moment, prec: int):
        """(h, head, error): the integral of e^(-w t) f(t e^(i theta))
        t^moment over [0, h], done exactly, with h at most a quarter of
        the floor of ``tail_rule``, so below the truncation point; the
        quadrature covers [h, T].  The default, for shapes regular at the
        origin, has h = 0.  A shape whose origin no head covers raises
        here, before any sampling."""
        return 0, 0, 0

    def panel_sampler(self, contour: Contour, prec: int):
        """A function (mid, half, n) -> the shape's samples on one panel of
        ``contour`` (see :class:`Contour`), at its n + 1 nodes, as one
        block-fixed-point vector of :mod:`._chebyshev` at prec + GUARD
        bits.  The default builds one scalar evaluator of the contour's
        parameter at ``prec`` bits, maps it over the nodes and converts
        the values once: f(t e^(i theta)) on the principal sheet along a
        ray, ``polar_evaluator`` at (radius, phi) on a circle, and
        polar(t, theta) - polar(t, theta - 2 pi) on a Hankel ray, which a
        single-valued shape refuses (see :func:`_one_sheet`)."""
        _one_sheet(self, contour)
        if contour.radius is not None:
            polar, rho = self.polar_evaluator(prec), contour.radius

            def evaluate(phi):
                return polar(rho, phi)
        elif contour.hankel:
            polar, theta = self.polar_evaluator(prec), contour.theta
            below = theta - 2 * mpmath.pi

            def evaluate(t):
                return polar(t, theta) - polar(t, below)
        else:
            point = self.numeric_evaluator(prec)
            direction = mpmath.exp(mpmath.mpc(0, 1) * contour.theta)

            def evaluate(t):
                return point(t * direction)
        bits = prec + GUARD

        def sample(mid, half, n):
            return _fixed([evaluate(mid + half * x) for x in _nodes(n, prec)],
                          bits)

        return sample


class _FactoredRules:
    """The tail and ellipse rules of a rational shape, read from the
    shape's own :class:`Factors` at ``prec`` bits, ``_factors(prec)``:
    those of :class:`.borelfun.RationalBF`, and of
    :class:`.laplace.PadeApproximant`, which inherits this class."""

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """The factored envelope (:func:`_factored_envelope`) from T = 1."""
        return mpmath.mpf(1), _envelope_tail(
            _factored_envelope(self._factors(prec), theta), m, moment)

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """The factored majorant (:func:`_factored_majorant`)."""
        _one_sheet(self, contour)
        return _margined(_factored_majorant(self._factors(prec),
                                            _Frame(contour)))


class _RationalRules:
    """The numeric rules of :class:`.borelfun.RationalBF` but those of
    :class:`_FactoredRules`."""

    def numeric_evaluator(self, prec: int = 53):
        return self.rat.numeric_evaluator(prec)

    def _factors(self, prec: int) -> Factors:
        return _rational_factors(self.rat, prec)

    def panel_sampler(self, contour: Contour, prec: int):
        """Exact integer Horner evaluation of the numerator and the factored
        denominator of the reduced function (:func:`_reduced`) at the
        contour's points, then one rounded division per node
        (:func:`._chebyshev._quotients`); a real vector on the real ray
        when every coefficient and pole is real."""
        _one_sheet(self, contour)
        if self.rat.is_zero():
            return BorelFunction.panel_sampler(self, contour, prec)
        bits = prec + GUARD
        work = bits + 16
        rat = _reduced(self.rat)
        with mpmath.workprec(work):
            lead = rat.lead.evaluate(work)
            coeffs = [c.evaluate(work) / lead for c in reversed(rat.num)]
        # the coefficients over the lead, highest degree first, at one
        # exponent; the poles times 2^bits
        (cr, ci), exp = _fixed(coeffs, bits)
        poles = [(_mantissas(_complex_tuple(p.evaluate(work)), -bits), m)
                 for p, m in rat.poles.items()]
        real = not any(ci) and not any(pi for (_pr, pi), _m in poles)
        degree = len(coeffs) - 1
        # the numerator comes out times 2^(bits degree - exp) and the
        # denominator times 2^(bits order)
        exp += bits * (sum(m for _p, m in poles) - degree)

        def sample(mid, half, n):
            zr, zi = contour.points(mid, half, n, bits)
            parts = 1 if zi is None and real else 2
            if zi is None:
                zi = [0] * len(zr)
            nr, ni = [cr[0]] * len(zr), [ci[0]] * len(zr)
            for k in range(1, degree + 1):
                ar, ai = cr[k] << bits * k, ci[k] << bits * k
                nr, ni = ([a * x - b * y + ar
                           for a, b, x, y in zip(nr, ni, zr, zi)],
                          [a * y + b * x + ai
                           for a, b, x, y in zip(nr, ni, zr, zi)])
            dr, di = [1] * len(zr), [0] * len(zr)
            for (pr, pi), m in poles:
                for _ in range(m):
                    dr, di = ([a * (x - pr) - b * (y - pi)
                               for a, b, x, y in zip(dr, di, zr, zi)],
                              [a * (y - pi) + b * (x - pr)
                               for a, b, x, y in zip(dr, di, zr, zi)])
            # num / den = num conj(den) / |den|^2, with a zero imaginary
            # part on the real ray of a real shape
            quotients, s = _quotients(
                ([a * c + b * d for a, b, c, d in zip(nr, ni, dr, di)],
                 [b * c - a * d for a, b, c, d in zip(nr, ni, dr, di)]),
                [c * c + d * d for c, d in zip(dr, di)], bits)
            return quotients[:parts], exp - s

        return sample


def _logpole_envelope(f, theta, prec):
    """A function T -> poly with |f(t e^(i theta))| <= sum of poly[j] t^j
    for t >= T, for a rational-plus-logs shape.

    The rational part and each log's cofactor are bounded beyond T by the
    polynomials of their factored envelopes (:func:`_factored_envelope`).
    Each log factor obeys |Log(1 - zeta/a) + 2 pi i k| <= ln(1 + t/|a|) + B
    with B = pi (1 + 2 |k|), and the log is at most its tangent at T,
    ln(1 + t/|a|) <= ln(1 + T/|a|) + (t - T) / (|a| + T), so a cofactor's
    polynomial q adds q times alpha + beta t.
    """
    rational = _factored_envelope(_rational_factors(f.rational_part, prec),
                                  theta)
    logs = [(_factored_envelope(_rational_factors(r, prec), theta),
             abs(a.evaluate(prec)), mpmath.pi * (1 + 2 * abs(k)))
            for a, r, k in f.log_terms]

    def envelope(T):
        poly = list(rational(T))
        for cofactor, av, B in logs:
            q = cofactor(T)
            beta = 1 / (av + T)
            alpha = mpmath.log(1 + T / av) + B - T * beta
            poly += [mpmath.mpf(0)] * (len(q) + 1 - len(poly))
            for j, c in enumerate(q):
                poly[j] += c * alpha
                poly[j + 1] += c * beta
        return poly

    return envelope


class _LogPoleRules:
    """The numeric rules of :class:`.borelfun.LogPoleBF`."""

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 16
        rational = self.rational_part.numeric_evaluator(work)
        with mpmath.workprec(work):
            tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
            logs = [(a.evaluate(work), k * tau, r.numeric_evaluator(work))
                    for a, r, k in self.log_terms]

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                total = rational(zv)
                for av, branch, r in logs:
                    logval = mpmath.log(1 - zv / av) + branch
                    total += r(zv) * logval
            with mpmath.workprec(prec):
                return +total

        return evaluate

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """:func:`_logpole_envelope` from past twice the farthest pole (and
        at least 4), where every distance to a pole is over half of t, so
        the factored envelopes start small."""
        mods = [abs(p.evaluate(prec)) for p in self.rational_part.poles]
        for _a, r, _k in self.log_terms:
            mods.extend(abs(p.evaluate(prec)) for p in r.poles)
        top = max(mods, default=mpmath.mpf(0))
        return (max(mpmath.mpf(4), 2 * top + 1), _envelope_tail(
            _logpole_envelope(self, theta, prec), m, moment))

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """:func:`_logpole_majorant` on a ray; a circle or a Hankel ray has
        none."""
        if contour.radius is not None or contour.hankel:
            return BorelFunction.ellipse_rule(self, contour, sing, prec)
        return _margined(_logpole_majorant(self, _Frame(contour), prec))


@lru_cache(maxsize=8)
def _stirling_lattice(prec: int):
    """2 pi i k for k = 1, -1, 2, -2, ..., 48, -48 at ``prec`` bits, rounded
    as ``ExactScalar.evaluate`` rounds tau k: the product k (2 pi) at
    prec + 16 bits, then rounded to prec."""
    two_pi = mpf_shift(mpf_pi(prec + 16, "n"), 1)
    return tuple(mpmath.mp.make_mpc((fzero, mpf_pos(
        mpf_mul(from_int(k), two_pi, prec + 16, "n"), prec, "n")))
        for j in range(1, 49) for k in (j, -j))


class _StirlingRules:
    """The numeric rules of :class:`.borelfun.StirlingBF`."""

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 24
        with mpmath.workprec(work):
            half = mpmath.mpf(1) / 2
            floor = mpmath.mpf(2) ** (-work)
        # Taylor coefficients B_{2k+2} / (2k+2)!, computed at most once each
        # and only as far as the points evaluated so far have needed
        terms = []

        def term(k):
            while len(terms) <= k:
                j = 2 * len(terms) + 2
                b = _bernoulli(j)
                with mpmath.workprec(work):
                    terms.append(mpmath.mpf(b.numerator) / b.denominator
                                 / mpmath.factorial(j))
            return terms[k]

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                if abs(zv) < half:
                    # Taylor sum: sum of B_{2k+2} zeta^(2k) / (2k+2)!; the
                    # closed form loses half its digits to cancellation near 0
                    total = mpmath.mpc(0)
                    power = mpmath.mpc(1)
                    k = 0
                    while True:
                        t = term(k)
                        total += t * power
                        if abs(power) * abs(t) < floor and k > 2:
                            break
                        power *= zv * zv
                        k += 1
                        if k > prec:
                            break
                    out = total
                else:
                    out = (zv / 2 * mpmath.coth(zv / 2) - 1) / zv**2
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def singular_values(self, prec: int):
        return list(_stirling_lattice(prec))

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """The envelope beyond T, from T = 4.

        With w = zeta/2 the bound chain is |coth w| <= 1 + 1/|sinh w| and
        |sinh w| >= 2 delta / pi where delta = min(dist(w, pi i Z), pi/2);
        the lattice distance is computed exactly over the pole range that can
        matter (0 < |k| <= kmax) and capped there.  The minor itself is then
        bounded by (|coth|/2)/t + 1/t^2.

        The distance from the tail to 2 pi i k is |T - 2 pi k (sin theta +
        i cos theta)|, convex in k, while 2 pi k sin theta < T, and
        |2 pi k cos theta|, growing with |k|, beyond.  So it is taken only
        at the points that can be nearest: k = +-1, the integers next to
        T sin theta / 2 pi, and the first k with 2 pi k sin theta >= T (and
        the one before it), each clamped to the range.
        """
        tau = 2 * mpmath.pi
        sin = mpmath.sin(theta)
        rotation = _rotation(theta)

        def bound(T):
            kmax = max(96, int(T / float(tau)) + 2)
            centre = T * sin / tau
            ks = [1, -1, int(mpmath.floor(centre)), int(mpmath.ceil(centre))]
            if sin and T <= kmax * tau * abs(sin):
                first = int(mpmath.ceil(T / (tau * abs(sin))))
                ks += [first, first - 1] if sin > 0 else [-first, 1 - first]
            d = mpmath.inf
            for k in sorted({max(-kmax, min(kmax, k)) for k in ks} - {0}):
                d = min(d, _pole_tail_distance(
                    mpmath.mpc(0, tau * k) * rotation, T))
            delta = min(d / 2, mpmath.pi / 2)
            coth_bound = 1 + mpmath.pi / (2 * delta)
            M = (coth_bound / 2) / T + 1 / mpmath.mpf(T) ** 2
            return _moment_tail(m, moment, T, [M])

        return mpmath.mpf(4), bound

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """A proved majorant from the Taylor series inside |zeta| = pi and
        the coth bound of ``tail_rule`` outside.

        Since |B_2k| / (2k)! = 2 zeta(2k) / (2 pi)^2k <= (pi^2 / 3) /
        (2 pi)^2k, the series bounds the minor by
        (1 / 12) / (1 - |zeta|^2 / (4 pi^2)) for |zeta| < 2 pi, so by 1/9
        on |zeta| <= pi.  Where |zeta| >= s >= pi, |f| <= C / (2 s) +
        1 / s^2 with C = 1 + pi / (2 delta) bounding |coth(zeta / 2)|,
        delta = min(s / 2, d / 2, pi / 2) and d the distance to the
        lattice 2 pi i k, k != 0, of which only the k with
        2 pi |k| <= R + pi can come within pi of a region of largest
        modulus R."""
        _one_sheet(self, contour)
        frame = _Frame(contour)
        tau, pi = 2 * math.pi, math.pi
        lattice = []

        def majorant(mid, half, rhos):
            radii = [frame.radii(mid, half, rho) for rho in rhos]
            count = int((max(r for _low, r in radii) + pi) / tau)
            while len(lattice) < 2 * count:
                k = len(lattice) // 2 + 1
                lattice.extend((frame.point(1j * tau * k),
                                frame.point(-1j * tau * k)))
            near = [math.inf] * len(rhos)
            for p in lattice[:2 * count]:
                near = list(map(min, near,
                                frame.distances(p, mid, half, rhos)))
            out = []
            for (low, high), d in zip(radii, near):
                if high <= pi:
                    out.append((1 / 12) / (1 - (high / tau) ** 2))
                    continue
                s = max(low, pi)
                delta = min(s / 2, d / 2, pi / 2)
                bound = (1 + pi / (2 * delta)) / (2 * s) + 1 / s ** 2 \
                    if delta > 0 else math.inf
                out.append(max(bound, 1 / 9) if low < pi else bound)
            return out

        return _margined(majorant)

    def panel_sampler(self, contour: Contour, prec: int):
        """One exponential per node: (zeta/2 - 1 + zeta / (e^zeta - 1))
        / zeta^2 for |zeta| >= 1/2, with libmp on tuples, and inside the
        Taylor series of ``numeric_evaluator`` summed in integers."""
        _one_sheet(self, contour)
        bits = prec + GUARD
        work = bits + 8
        # B_{2k+2} / (2k+2)! times 2^bits; the term ratio is at most
        # (1 / 4 pi)^2 < 2^-7 on |zeta| < 1/2
        taylor = []
        for k in range(bits // 7 + 2):
            taylor.append(round(_bernoulli(2 * k + 2) * (1 << bits)
                                / math.factorial(2 * k + 2)))
        taylor.reverse()
        quarter = 1 << (2 * bits - 2)
        one = (fone, fzero)

        def sample(mid, half, n):
            zr, zi = contour.points(mid, half, n, bits)
            real = zi is None
            re, im = [], []
            far = 0
            for x, y in zip(zr, [0] * len(zr) if real else zi):
                if x * x + y * y < quarter:
                    sr, si = (x * x - y * y) >> bits, (2 * x * y) >> bits
                    ar, ai = 0, 0
                    for c in taylor:
                        ar, ai = (((ar * sr - ai * si) >> bits) + c,
                                  (ar * si + ai * sr) >> bits)
                    re.append(from_man_exp(ar, -bits))
                    im.append(from_man_exp(ai, -bits))
                    continue
                far += 1
                if real:
                    z = from_man_exp(x, -bits)
                    q = mpf_div(z, mpf_sub(mpf_exp(z, work), fone, work),
                                work)
                    h = mpf_add(mpf_sub(mpf_shift(z, -1), fone, work), q,
                                work)
                    re.append(mpf_div(h, mpf_mul(z, z), work))
                    continue
                z = (from_man_exp(x, -bits), from_man_exp(y, -bits))
                e = mpf_exp(z[0], work)
                c, s = mpf_cos_sin(z[1], work)
                q = mpc_div(z, (mpf_sub(mpf_mul(e, c), fone, work),
                                mpf_mul(e, s)), work)
                h = (mpf_add(mpf_sub(mpf_shift(z[0], -1), fone, work), q[0],
                             work),
                     mpf_add(mpf_shift(z[1], -1), q[1], work))
                f = mpc_div(h, mpc_mul(z, z, work), work)
                re.append(f[0])
                im.append(f[1])
            _work.add("exp", far)
            if not real:
                _work.add("cos_sin", far)
            return _vector((re,) if real else (re, im), bits)

        return sample


class _DilogRules:
    """The numeric rules of :class:`.borelfun.DilogBF`."""

    def numeric_evaluator(self, prec: int = 53):
        work = prec + 16
        n = self.n
        with mpmath.workprec(work):
            # each counterclockwise loop at 1 adds -2*pi*i*log(zeta), and
            # the log itself sits on the branch indexed by m
            tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
            loops = -n * tau
            branch = self.m * tau

        def evaluate(zeta):
            with mpmath.workprec(work):
                zv = mpmath.mpmathify(zeta)
                total = mpmath.polylog(2, zv)
                if n:
                    total += loops * (mpmath.log(zv) + branch)
            with mpmath.workprec(prec):
                return +total

        return evaluate

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """The bound of ``tail_rule`` at the largest |zeta| R of the
        ellipse, B = pi^2/3 + (ln+ R + pi)^2 / 2 (pi^2/6 inside the unit
        disc bounds it there too), on the ellipses clear of the cut
        [1, inf) of the principal sheet (:meth:`_Frame.cut_distances`).
        An ellipse that crosses the cut but holds neither 1 nor 0 meets
        the real axis only past 1, so the integrand continues across the
        cut as Li2 -+ 2 pi i log zeta, with no cut of the log inside: B
        plus 2 pi (max(ln R, -ln r) + pi) there, r the least |zeta|; other
        ellipses have none.  Rays sum the sheet without loops only
        (``origin_head``), and nothing else runs on the dilogarithm.
        Proved."""
        frame = _Frame(contour)
        one = frame.point(1)
        pi2 = math.pi ** 2

        def majorant(mid, half, rhos):
            out = []
            for rho, clear, gap in zip(
                    rhos, frame.cut_distances(1.0, mid, half, rhos),
                    frame.distances(one, mid, half, rhos)):
                low, top = frame.radii(mid, half, rho)
                bound = pi2 / 3 + (max(math.log(top), 0.0) + math.pi) ** 2 / 2
                if clear <= 0:
                    bound = bound + 2 * math.pi * (max(
                        math.log(top), -math.log(low)) + math.pi) \
                        if gap > 0 and low > 0 else math.inf
                out.append(bound)
            return out

        return _margined(majorant)

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """Guaranteed tail bound beyond T >= 1, from T = 4.

        The inversion identity Li2(z) + Li2(1/z) = -pi^2/6 - log(-z)^2 / 2
        bounds the principal sheet by pi^2/3 + (ln t + pi)^2 / 2 once
        |z| >= 1 (the series bounds |Li2(1/z)| by pi^2/6 there), and each
        stored loop at 1 contributes |2 pi (Log z + 2 pi i m)| <= 2 pi
        (ln t + pi (1 + 2 |m|)).  With ln t <= 2 sqrt(t) the whole envelope
        is A + B sqrt(t) + C t, whose weighted tails are incomplete gammas,
        each bounded by :func:`_moment_integral`.
        """
        pi = mpmath.pi
        loops = abs(self.n)
        sheet = abs(self.m)
        A = pi ** 2 / 3 + pi ** 2 / 2 + 2 * pi ** 2 * loops * (1 + 2 * sheet)
        B = 2 * pi + 4 * pi * loops
        C = mpmath.mpf(2)
        half = mpmath.mpf(1) / 2

        def bound(T):
            return abs(A * _moment_integral(moment + 1, m, T)
                       + B * _moment_integral(moment + 1 + half, m, T)
                       + C * _moment_integral(moment + 2, m, T))

        return mpmath.mpf(4), bound

    def origin_head(self, w, theta, moment, prec: int):
        if self.n:
            raise NotImplementedError(
                f"the dilogarithm minor after {self.n} loop(s) at 1 has a "
                "log singularity at the origin, which ray sums do not "
                "cover; only the sheet without loops (n = 0) is summed"
            )
        return BorelFunction.origin_head(self, w, theta, moment, prec)


@lru_cache(maxsize=64)
def _power_g(sigma: Fraction, prec: int):
    """g(sigma) = e^(i pi sigma) Gamma(1 - sigma) / (2 pi i) at ``prec``
    bits, once per (sigma, prec)."""
    with mpmath.workprec(prec + 16):
        s = mpmath.mpf(sigma.numerator) / sigma.denominator
        g = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * s) \
            * mpmath.gamma(1 - s) / (2 * mpmath.pi * mpmath.mpc(0, 1))
    with mpmath.workprec(prec):
        return +g


@lru_cache(maxsize=64)
def _power_g_prime(sigma: Fraction, prec: int):
    """g'(sigma) = g(sigma) (i pi - digamma(1 - sigma)) at ``prec`` bits,
    once per (sigma, prec)."""
    with mpmath.workprec(prec + 16):
        s = mpmath.mpf(sigma.numerator) / sigma.denominator
        gp = _power_g(sigma, prec + 16) \
            * (mpmath.mpc(0, 1) * mpmath.pi - mpmath.digamma(1 - s))
    with mpmath.workprec(prec):
        return +gp


@lru_cache(maxsize=64)
def _log_nodes(r, n: int, bits: int):
    """log(1 + r x_j) at the nodes x_j = -cos(pi j / n), for an mpf tuple
    0 < r < 1, as mpf tuples at bits + 8 bits: one ``mpf_log`` per node,
    shared by every ray panel with half = r mid; the degree n divides
    NEST and reads them off degree NEST."""
    if n != NEST:
        return _log_nodes(r, NEST, bits)[::NEST // n]
    work = bits + 8
    _work.add("log", n + 1)
    return tuple(mpf_log(mpf_add(fone, mpf_mul(r, from_man_exp(-c, -bits)),
                                 work), work)
                 for c in _node_cosines(n, bits))


@lru_cache(maxsize=64)
def _power_nodes(r, s1, n: int, bits: int):
    """(1 + r x_j)^s1 at the nodes as one vector of mantissa tuples, from
    :func:`_log_nodes`: one ``mpf_exp`` per node at bits + 8 bits, shared
    by every ray panel with half = r mid and every sum with that s1; the
    degree n divides NEST and reads them off degree NEST, whose largest
    entry, at an end, it shares."""
    if n != NEST:
        return _nested(_power_nodes(r, s1, NEST, bits), n)
    work = bits + 8
    _work.add("exp", n + 1)
    parts, exp = _vector(([mpf_exp(mpf_mul(s1, x, work), work)
                           for x in _log_nodes(r, n, bits)],), bits)
    return tuple(map(tuple, parts)), exp


def _ray_lanes(m, h, s1, n: int, bits: int, with_log: bool):
    """t^s1 and, ``with_log``, log t at the nodes t_j = mid + half x_j of
    a ray panel, for the mpf tuples m = mid > h = half, as vectors (the
    second None without a log): with r = half / mid, mid^s1 times
    :func:`_power_nodes` and log mid plus :func:`_log_nodes`.  The panel
    pays one ``mpf_log`` and one ``mpf_exp``, for mid^s1."""
    work = bits + 8
    _work.add("log")
    _work.add("exp")
    r = mpf_div(h, m, work)
    log_mid = mpf_log(m, work)
    scale = _vector(([mpf_exp(mpf_mul(s1, log_mid, work), work)],), bits)
    power = _scaled(_power_nodes(r, s1, n, bits), scale, bits)
    if not with_log:
        return power, None
    return power, _plus(_vector((_log_nodes(r, n, bits),), bits),
                        _vector(([log_mid],), bits), bits)


@lru_cache(maxsize=32)
def _power_constants(sigma: Fraction, with_log: bool, contour: Contour,
                     work: int):
    """(A, B, s1) at ``work`` bits, once per contour: the samples of the
    power kernel of ``sigma`` are t^s1 (A + B log t) on a ray and
    e^(i s1 phi) (A + B phi) on a circle, with s1 = sigma - 1 and A and B
    summed over the sheets."""
    g = _power_g(sigma, work)
    gp = _power_g_prime(sigma, work) if with_log else 0
    with mpmath.workprec(work):
        i = mpmath.mpc(0, 1)
        s1 = mpmath.mpf(sigma.numerator) / sigma.denominator - 1
        if contour.radius is None:
            theta = mpmath.mpf(contour.theta)
            sheets = [(theta, 1)]
            if contour.hankel:
                sheets.append((theta - 2 * mpmath.pi, -1))
            phases = [(sign * g * mpmath.expj(s1 * a), a)
                      for a, sign in sheets]
            # g e^(i s1 a) (log t + i a) + g' e^(i s1 a) per sheet
            A = sum(c * (i * a + gp / g) if with_log else c
                    for c, a in phases)
            B = sum(c for c, _a in phases) if with_log else 0
        else:
            rho = mpmath.mpf(contour.radius)
            power = g * rho ** s1
            # g rho^s1 e^(i s1 phi) (log rho + i phi) + g' rho^s1 ...
            A = power * (mpmath.log(rho) + gp / g) if with_log else power
            B = power * i if with_log else 0
    return A, B, s1


class _PowerRules:
    """The numeric rules of :class:`.borelfun.PowerBF`."""

    def g_value(self, prec: int = 53):
        return _power_g(self.sigma, prec)

    def g_prime_value(self, prec: int = 53):
        return _power_g_prime(self.sigma, prec)

    def polar_evaluator(self, prec: int = 53):
        """A closure (radius, theta) -> value at zeta = radius * e^(i theta),
        theta a continuous angle; g, g' and the exponent are evaluated once."""
        work = prec + 16
        with_log = self.with_log
        g = self.g_value(work)
        gp = self.g_prime_value(work) if with_log else None
        with mpmath.workprec(work):
            s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator
            exponent = s - 1
            i = mpmath.mpc(0, 1)

        def evaluate(radius, theta):
            with mpmath.workprec(work):
                r = mpmath.mpf(radius)
                th = mpmath.mpf(theta)
                logz = mpmath.log(r) + i * th
                power = mpmath.exp(exponent * logz)
                if with_log:
                    out = g * power * logz + gp * power
                else:
                    out = g * power
            with mpmath.workprec(prec):
                return +out

        return evaluate

    def ellipse_rule(self, contour: Contour, sing, prec: int):
        """A proved majorant in closed form, from the constants of
        :func:`_power_constants`.  On a ray the ellipse of t is convex,
        symmetric about the positive axis and clear of the origin when
        its vertex r = mid - half a is positive, so it lies in Re t > 0:
        |t^s1| is at most r^s1 or R^s1, R = mid + half a, and
        |log t| <= max(|ln r|, |ln R|) + pi / 2.  On a circle
        |e^(i s1 phi)| <= e^(|s1| half b) and |phi| <= |mid| + half a."""
        A, B, s1 = _power_constants(self.sigma, self.with_log, contour,
                                   prec + GUARD + 8)
        A, B, s1 = abs(complex(A)), abs(complex(B)), float(s1)
        frame = _Frame(contour)

        def on_ray(mid, half, rhos):
            out = []
            for rho in rhos:
                low, high = frame.radii(mid, half, rho)
                if not low > 0:
                    out.append(math.inf)
                    continue
                logs = (math.log(low), math.log(high))
                out.append(math.exp(max(s1 * x for x in logs))
                           * (A + B * (max(map(abs, logs)) + math.pi / 2)))
            return out

        def on_circle(mid, half, rhos):
            return [math.exp(abs(s1 * half) * (rho - 1 / rho) / 2)
                    * (A + B * (abs(mid) + abs(half) * (rho + 1 / rho) / 2))
                    for rho in rhos]

        return _margined(on_ray if contour.radius is None else on_circle)

    def panel_sampler(self, contour: Contour, prec: int):
        """With s1 = sigma - 1, the power lane: t^s1 on a ray, shared by
        both Hankel sheets, or e^(i s1 phi) on the circle; and with a log,
        the lane of log t or of phi.  Each power lane is a scalar of the
        panel times a vector that depends only on the panel's shape.  On
        the ray t = mid (1 + r x) with r = half / mid, so t^s1 is
        mid^s1 times :func:`_power_nodes` and log t is log mid plus
        :func:`_log_nodes`, both cached per r: every panel of the
        doubling ladder [2^k h, 2^(k+1) h] has r = 1/3.  On the circle
        e^(i s1 phi) is e^(i s1 mid) times the ray kernel
        ``_chebyshev._exponentials`` at i s1 half.  So a panel pays one
        ``mpf_log`` and one ``mpf_exp`` on a ray, or one ``mpf_cos_sin``
        on the circle.  The samples t^s1 (A + B log t) and
        e^(i s1 phi) (A + B phi), with the constants A and B summed once
        over the sheets and rho^s1 folded into them on the circle, are
        integer products of those lanes and constants."""
        bits = prec + GUARD
        work = bits + 8
        with_log = self.with_log
        on_ray = contour.radius is None
        A, B, s1 = _power_constants(self.sigma, self.with_log, contour,
                                   work)
        with mpmath.workprec(work):
            A, B = _fixed([A], bits), _fixed([B], bits)
        s1 = s1._mpf_

        def sample(mid, half, n):
            m, h = (mpmath.mpmathify(v)._mpf_ for v in (mid, half))
            if on_ray:
                power, lane = _ray_lanes(m, h, s1, n, bits, with_log)
            else:
                _work.add("cos_sin")
                c, s = mpf_cos_sin(mpf_mul(s1, m, work), work)
                power = _scaled(_exponentials((fzero, mpf_mul(s1, h, work)),
                                              n, bits),
                                _vector(([c], [s]), bits), bits)
                if with_log:
                    lane = _vector((contour.parameters(mid, half, n, bits),),
                                   bits)
            if not with_log:
                return _scaled(power, A, bits)
            return _product(power, _plus(_scaled(lane, B, bits), A, bits),
                            bits)

        return sample

    def tail_rule(self, theta, m, moment, sing, prec: int):
        """Proved tail bound via incomplete gamma moments, from T = 1
        (:func:`_moment_integral`).

        |f| <= |g| t^(sigma-1) (+ log factor), and the modulus integral
        integral over [T, inf) of e^(-m t) t^(s-1) dt is Gamma(s, m T) /
        m^s, bounded in closed form by :func:`_moment_integral`.  The log
        factor uses |log zeta| <= ln t + |theta| + 2 pi (covering the
        Hankel sheet range) and ln t <= 2 sqrt(t).
        """
        s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator + moment
        g = abs(self.g_value(prec))
        if not self.with_log:
            return mpmath.mpf(1), lambda T: g * _moment_integral(s, m, T)
        A = abs(mpmath.mpf(theta)) + 2 * mpmath.pi
        gp = abs(self.g_prime_value(prec))
        root = s + mpmath.mpf(1) / 2

        def bound(T):
            base = _moment_integral(s, m, T)
            return g * (A * base + 2 * _moment_integral(root, m, T)) \
                + gp * base

        return mpmath.mpf(1), bound

    def origin_head(self, w, theta, moment, prec: int):
        """Exact series for the integral over [0, h], with
        h = min(1/4, 1/(2 max(|w|, 1))), 1/4 being a quarter of the floor
        of ``tail_rule``; sigma <= 0 is refused, as the kernel is not
        integrable at the origin.

        Expanding the exponential kernel termwise,

            integral over [0, h] of e^(-w t) f(t e^(i theta)) t^moment dt
            = e^(i theta (sigma - 1)) * sum over k of (-w)^k / k! *
              [coefficients] * h^(s + k) / (s + k)   with s = sigma + moment,

        where the log variant also needs integral of t^(s+k-1) log t dt =
        h^(s+k) (log h / (s+k) - 1/(s+k)^2).  With h <= 1/(2|w|) the term
        ratio stays below 1/2 past the first few terms, so the truncation
        remainder is bounded by the last computed term.  This sidesteps the
        quadrature entirely on the panel where the endpoint singularity
        would otherwise cap its accuracy.
        """
        if self.sigma <= 0:
            raise DecayMarginError(
                f"the power kernel with sigma = {self.sigma} is not "
                "integrable at the origin",
                margin=float(self.sigma),
            )
        h = min(mpmath.mpf(1) / 4, 1 / (2 * max(abs(w), 1)))
        s = mpmath.mpf(self.sigma.numerator) / self.sigma.denominator + moment
        g = self.g_value(prec)
        gp = self.g_prime_value(prec) if self.with_log else None
        logh = mpmath.log(h)
        total = mpmath.mpc(0)
        ck = mpmath.mpc(1)
        bound = mpmath.mpf(0)
        negligible = mpmath.ldexp(1, -(prec + 8))
        for k in range(prec + 64):
            base = h ** (s + k) / (s + k)
            if self.with_log:
                logint = base * (logh - 1 / (s + k))
                term = ck * (g * logint
                             + (g * mpmath.mpc(0, 1) * theta + gp) * base)
            else:
                term = ck * g * base
            total += term
            bound = abs(term)
            if bound < negligible * (1 + abs(total)) and k > 2:
                break
            ck = ck * (-w) / (k + 1)
        phase = mpmath.exp(mpmath.mpc(0, 1) * theta * (s - moment - 1))
        return h, phase * total, bound

    def numeric_evaluator(self, prec: int = 53):
        polar = self.polar_evaluator(prec)

        def evaluate(zeta):
            with mpmath.workprec(prec + 16):
                zv = mpmath.mpmathify(zeta)
                return polar(abs(zv), mpmath.arg(zv))

        return evaluate


# each shape class and the rules set on it; a rule a shape does not set
# comes from the class it inherits from
_RULES = ((BorelFunction, _BorelRules), (RationalBF, _FactoredRules),
          (RationalBF, _RationalRules), (LogPoleBF, _LogPoleRules),
          (StirlingBF, _StirlingRules), (DilogBF, _DilogRules),
          (PowerBF, _PowerRules))


def _install():
    """Set each shape's rules on its class, under the names the sums
    call."""
    for shape, rules in _RULES:
        for name, rule in vars(rules).items():
            if not name.startswith("__"):
                setattr(shape, name, rule)


_install()
