"""Laplace panels sampled in block fixed point.

A Laplace panel is sampled as one block-fixed-point vector of
:mod:`resurgence._chebyshev`: the kernel e^(-w t) comes from
``_exponentials`` (the kernel of half the width squared, or one
exponential per node x_j >= 0 and the reflection at the others, times
e^(-w mid) as a scalar), and the shape's samples
from its ``panel_sampler``.  Each vector is checked here against mpmath
at the same nodes, entry by entry, within a few units of the working
precision relative to the vector's largest entry, at 53 and 113 bits;
so is the default sampler, which builds the shape's evaluator for a ray,
a circle or a Hankel ray itself, on a power kernel.  Every sampler
refuses the Hankel ray of a single-valued shape.  Also here: the
Stirling lattice and its tail distance, which must equal the values of
the full scan they replace, and the proved tails of a log shape with
polynomial parts and of rational shapes with a polynomial part or a lead
that is not a monomial, bounded through their factored denominators.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from test_chebyshev import chebyshev_nodes

from resurgence._chebyshev import (GUARD, _complex_tuple, _exponentials,
                                   _values)
from resurgence._borelnum import (Contour, _moment_integral,
                                  _pole_tail_distance, _rotated,
                                  _stirling_lattice)
from resurgence.borelfun import (BorelFunction, PowerBF, RationalBF,
                                 RationalFunction, StirlingBF, convolve,
                                 euler_minor)
from resurgence.laplace import RaySpec, hankel_laplace, laplace_ray, pade_minor
from resurgence.scalars import ExactScalar, GaussianRational
from resurgence.series import euler_series

PRECS = (53, 113)
N = 48


def as_values(vector, prec):
    parts, exp = vector
    return _values(parts, exp, prec + GUARD)


def assert_close(got, expected, prec, units=8, top=None):
    """Every entry within ``units`` units of 2^-prec of the largest, or of
    ``top``."""
    with mpmath.workprec(prec + 64):
        top = top or max(abs(e) for e in expected)
        worst = max(abs(g - e) for g, e in zip(got, expected))
        assert worst <= units * top * mpmath.ldexp(1, -prec), \
            float(worst / top)


def parameters(mid, half, prec):
    with mpmath.workprec(prec + GUARD + 64):
        return [mid + half * x for x in chebyshev_nodes(N)]


# -- the kernel ---------------------------------------------------------------


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("w", [
    2, "0.05", mpmath.mpc(3, -1), mpmath.mpc("0.05", 2), mpmath.mpc(-1, 7)])
@pytest.mark.parametrize("mid,half", [("0.75", "0.25"), (12, 4), (300, 100)])
def test_kernel_matches_exp_at_every_node(prec, w, mid, half):
    with mpmath.workprec(prec):
        w, mid, half = (mpmath.mpmathify(v) for v in (w, mid, half))
    with mpmath.workprec(prec + 64):
        # u = -w half exactly, so that only the kernel's roundings show
        vector = _exponentials(_complex_tuple(-w * half), N, prec + GUARD)
        scale = mpmath.exp(-w * mid)
    got = as_values(vector, prec)
    with mpmath.workprec(prec + 64):
        expected = [mpmath.exp(-w * t) for t in parameters(mid, half, prec)]
        got = [scale * g for g in got]
        top = max(abs(e) for e in expected)
    # both halves of the nodes: x_j < 0 reflected, x_j >= 0 computed
    assert_close(got[:N // 2], expected[:N // 2], prec, units=16, top=top)
    assert_close(got[N // 2:], expected[N // 2:], prec, units=16, top=top)


def test_real_kernel_is_a_real_vector():
    with mpmath.workprec(53):
        parts, _exp = _exponentials(_complex_tuple(mpmath.mpf(-3)), N, 85)
    assert len(parts) == 1


# -- the shapes' panel samples ------------------------------------------------


def sampled(f, contour, mid, half, prec):
    with mpmath.workprec(prec):
        mid, half = mpmath.mpf(mid), mpmath.mpf(half)
        sample = f.panel_sampler(contour, prec)
        return as_values(sample(mid, half, N), prec), mid, half


def reference(f, contour, mid, half, prec):
    """The shape's scalar evaluator at the contour's nodes, at 64 extra
    bits."""
    polar = f.polar_evaluator(prec + 64) \
        if contour.radius is not None or contour.hankel else None
    evaluate = f.numeric_evaluator(prec + 64)
    with mpmath.workprec(prec + 64):
        theta = mpmath.mpf(contour.theta)
        out = []
        for p in parameters(mid, half, prec):
            if contour.radius is not None:
                out.append(polar(mpmath.mpf(contour.radius), p))
            elif contour.hankel:
                out.append(polar(p, theta) - polar(p, theta - 2 * mpmath.pi))
            else:
                out.append(evaluate(p * mpmath.expj(theta)))
        return out


RATIONALS = {
    "euler": euler_minor(),
    "double-pole": RationalBF(RationalFunction([1, 2, 3], poles={-1: 2})),
    "complex-poles": RationalBF(RationalFunction(
        [ExactScalar.from_gaussian(GaussianRational(1, 2)), 0, 1],
        poles={ExactScalar.from_gaussian(GaussianRational(-1, 1)): 1,
               ExactScalar.from_gaussian(GaussianRational(-1, -1)): 1,
               Fraction(-3, 2): 1},
        lead=Fraction(2, 3))),
    "polynomial": RationalBF(RationalFunction([1, Fraction(1, 3), 2])),
}


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("name", list(RATIONALS))
@pytest.mark.parametrize("contour,mid,half", [
    (Contour(0), "0.75", "0.25"), (Contour(0), 12, 4),
    (Contour("0.4"), 3, 1), (Contour(0, radius="0.25"), 0, "3.1")])
def test_rational_samples_match_the_evaluator(prec, name, contour, mid, half):
    f = RATIONALS[name]
    got, mid, half = sampled(f, contour, mid, half, prec)
    assert_close(got, reference(f, contour, mid, half, prec), prec)


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("sigma,with_log", [
    ("1/3", False), ("1/2", True), ("-3/4", True)])
@pytest.mark.parametrize("contour,mid,half", [
    (Contour(0), 3, 1), (Contour("0.3"), "0.625", "0.375"),
    (Contour(7), 3, 1), (Contour(0, hankel=True), 3, 1),
    (Contour("-0.7", hankel=True), 12, 4),
    (Contour(0, radius="0.25"), "-3.14", "3.14"),
    (Contour("0.3", radius="0.25"), "-2.1", "1.2")])
def test_power_samples_match_the_evaluator(prec, sigma, with_log, contour,
                                          mid, half):
    f = PowerBF(sigma, with_log=with_log)
    if contour.radius is None and not contour.hankel:
        # a ray at any angle continues on its sheet, as polar evaluation
        # at the ray's angle does
        polar = f.polar_evaluator(prec + 64)
        with mpmath.workprec(prec + 64):
            expected = [polar(t, contour.theta) for t in parameters(
                mpmath.mpf(mid), mpmath.mpf(half), prec)]
        got, *_ = sampled(f, contour, mid, half, prec)
        assert_close(got, expected, prec)
        return
    got, mid, half = sampled(f, contour, mid, half, prec)
    assert_close(got, reference(f, contour, mid, half, prec), prec)


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("contour,mid,half", [
    (Contour(0), "0.625", "0.375"), (Contour(0), "0.25", "0.25"),
    (Contour("0.5"), "0.625", "0.375"), (Contour(0), 3, 1),
    (Contour("1.2"), 6, 2), (Contour(0, radius="1.57"), 0, "3.14")])
def test_stirling_samples_match_the_evaluator(prec, contour, mid, half):
    # the first three panels cross |zeta| = 1/2, where the evaluator
    # switches from the Taylor series to the closed form
    f = StirlingBF()
    got, mid, half = sampled(f, contour, mid, half, prec)
    assert_close(got, reference(f, contour, mid, half, prec), prec)


class DefaultSampledPower(PowerBF):
    """A power kernel on the default panel sampler, which builds the
    shape's evaluator for each kind of contour itself."""

    panel_sampler = BorelFunction.panel_sampler


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("contour,mid,half", [
    (Contour(mpmath.mpf("0.3")), 3, 1),
    (Contour(mpmath.mpf("-0.7"), hankel=True), 12, 4),
    (Contour(mpmath.mpf("0.3"), radius="0.25"), "-2.1", "1.2")])
def test_default_samples_match_the_evaluator(prec, contour, mid, half):
    f = DefaultSampledPower("1/3", with_log=True)
    got, mid, half = sampled(f, contour, mid, half, prec)
    assert_close(got, reference(f, contour, mid, half, prec), prec)


def test_default_sampler_sums_a_hankel_contour():
    res = hankel_laplace(DefaultSampledPower("1/2"), 0, 2)
    assert res.diagnostics["ray_nodes"] > 0
    with mpmath.workprec(120):
        exact = mpmath.mpf(2) ** (-mpmath.mpf(1) / 2)
        assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate < 1e-10


@pytest.mark.parametrize("f", [euler_minor(), StirlingBF(),
                               RATIONALS["double-pole"]])
def test_real_ray_of_a_real_shape_is_a_real_vector(f):
    with mpmath.workprec(77):
        parts, _exp = f.panel_sampler(Contour(mpmath.mpf(0)), 77)(
            mpmath.mpf(3), mpmath.mpf(1), N)
    assert len(parts) == 1
    res = laplace_ray(f, 0, RaySpec(0, 3, target_error=1e-10))
    assert isinstance(res.value, mpmath.mpc)
    assert isinstance(res.error_estimate, mpmath.mpf)


@pytest.mark.parametrize("f", [euler_minor(), StirlingBF(),
                               pade_minor(euler_series(12))],
                         ids=["euler", "stirling", "pade"])
def test_single_valued_shapes_refuse_a_hankel_ray(f):
    # both sheets agree, so hankel_laplace integrates only the circle; a
    # sampler asked for the ray refuses instead of returning one sheet or
    # a difference that is rounding noise
    with mpmath.workprec(77):
        with pytest.raises(ValueError, match="only the circle"):
            f.panel_sampler(Contour(mpmath.mpf(0), hankel=True), 77)


def test_a_sample_at_a_pole_is_refused():
    f = RationalBF(RationalFunction.simple_pole(1, 1))
    with mpmath.workprec(53):
        sample = f.panel_sampler(Contour(mpmath.mpf(0)), 53)
        with pytest.raises(ValueError, match="non-finite"):
            sample(mpmath.mpf(2), mpmath.mpf(1), N)


class InfiniteBand(RationalBF):
    """1/(1 + zeta)^2, with its proved rules, but on the default sampler
    and an evaluator that is infinite for 1 < |zeta| < 2."""

    panel_sampler = BorelFunction.panel_sampler

    def __init__(self):
        super().__init__(RationalFunction([1], poles={-1: 2}))

    def numeric_evaluator(self, prec=53):
        def evaluate(zeta):
            z = mpmath.mpmathify(zeta)
            if 1 < abs(z) < 2:
                return mpmath.inf
            return 1 / (1 + z) ** 2

        return evaluate


def test_a_non_finite_sample_is_refused():
    with pytest.raises(ValueError, match="cannot integrate non-finite"):
        laplace_ray(InfiniteBand(), 0, RaySpec(0, 2, target_error=1e-8))


# -- the Stirling lattice -----------------------------------------------------


@pytest.mark.parametrize("prec", (53, 77, 113))
def test_lattice_equals_the_exact_points(prec):
    exact = [p.evaluate(prec)
             for p in StirlingBF().singular_points(count=48)]
    assert list(_stirling_lattice(prec)) == exact
    assert StirlingBF().singular_values(prec) == exact


def full_scan_tail(theta, m, T, moment):
    """The tail bound over every lattice point 0 < |k| <= kmax."""
    tau = 2 * mpmath.pi
    kmax = max(96, int(T / float(tau)) + 2)
    d = mpmath.inf
    for k in range(1, kmax + 1):
        for sgn in (1, -1):
            (u,) = _rotated([mpmath.mpc(0, sgn * tau * k)], theta)
            d = min(d, _pole_tail_distance(u, T))
    delta = min(d / 2, mpmath.pi / 2)
    M = ((1 + mpmath.pi / (2 * delta)) / 2) / T + 1 / mpmath.mpf(T) ** 2
    return abs(M * _moment_integral(moment + 1, m, T))


@pytest.mark.parametrize("theta", [
    0, "0.3", "-0.3", "1.2", "1.5", "1.55", "-1.52", "1.5707963267948966",
    "2.8", "-3.1",
    "3.141592653589793", "0.001", "-0.02"])
@pytest.mark.parametrize("T", [4, 6, 13.5, "30.375", 700])
def test_tail_distance_needs_only_the_nearest_points(theta, T):
    with mpmath.workprec(89):
        theta, T = mpmath.mpf(theta), mpmath.mpf(T)
        floor, bound = StirlingBF().tail_rule(
            theta, mpmath.mpf(2), 0, [], 89)
        assert floor == 4
        assert bound(T) == full_scan_tail(theta, mpmath.mpf(2), T, 0)


# -- a log shape with polynomial parts ----------------------------------------


@pytest.mark.parametrize("z", [2, 3])
def test_polynomial_log_shape_has_a_proved_tail(z):
    # the Euler minor convolved with 1 + zeta: its rational part and its
    # log cofactor are polynomials, and its sum is L(f) L(g)
    f = convolve(euler_minor(), RationalBF(RationalFunction([1, 1])))
    res = laplace_ray(f, 0, RaySpec(0, z, target_error=1e-10))
    with mpmath.workprec(120):
        zv = mpmath.mpf(z)
        exact = mpmath.exp(zv) * mpmath.e1(zv) * (1 / zv + 1 / zv ** 2)
        assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate < 1e-9
    assert res.certified


def test_polynomial_rational_shape_has_a_proved_tail():
    f = RationalBF(RationalFunction([1, 1], poles={-2: 1}))
    res = laplace_ray(f, 0, RaySpec(0, 2, target_error=1e-10))
    # (1 + zeta) / (zeta + 2) = 1 - 1 / (zeta + 2)
    with mpmath.workprec(120):
        exact = 1 / mpmath.mpf(2) - mpmath.exp(4) * mpmath.e1(4)
        assert abs(res.value - exact) <= res.error_estimate
    assert res.certified
    assert math.isfinite(float(res.error_estimate))


def test_non_monomial_lead_has_a_proved_tail():
    # (1 + zeta) / ((1 + 2 pi i) (zeta + 2)): its polynomial part is not
    # exact in the scalar ring, and its factored denominator bounds it
    lead = ExactScalar.from_rational(1) + ExactScalar.tau()
    f = RationalBF(RationalFunction([1, 1], poles={-2: 1}, lead=lead))
    res = laplace_ray(f, 0, RaySpec(0, 2, target_error=1e-10))
    with mpmath.workprec(120):
        exact = (1 / mpmath.mpf(2) - mpmath.exp(4) * mpmath.e1(4)) \
            / (1 + 2j * mpmath.pi)
        assert abs(res.value - exact) <= res.error_estimate
    assert res.error_estimate < 1e-10
    assert res.certified
