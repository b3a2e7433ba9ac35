"""The reported error of a Laplace sum bounds its distance to the sum.

A seeded sweep draws bundled shapes, ray angles and points z with a
positive decay margin Re(z e^(i theta)), at 53, 113 and 240 bits, and
checks |value - reference| <= error, where the reference is the same sum
at 64 more bits and a target 2^-20 times smaller, within its own error.
Every shape reports ``certified`` but a Pade model, whose error bounds
its sum of the model only.  Every rational piece is bounded through its
factored denominator; the sweep holds a squared pole, a lead that is
not a monomial, a log shape with a squared pole in its cofactor, and
sums of simple poles, whose numerators carry the lifted cofactors: two
poles, and a log shape whose cofactor has two.  Rays that pass close to
a singular point, or to the dilogarithm's cut, are drawn too: a pole
within 0.1 of the ray, where a majorant must not miss the pole's peak,
and the dilogarithm at a small angle, whose ellipses past 1 cross the
cut [1, inf), where the integrand continues off the principal sheet.
The dilogarithm's majorant is also checked against that continuation
on ellipses by itself, and the factored majorants against their
shapes.

Also here: the two 240-bit rows of the roadmap, with their node counts
pinned, and the decay-edge ray, whose every sample lands in a panel it
keeps.
"""

import cmath
import math
import random

import mpmath
import pytest

from resurgence._borelnum import Contour
from resurgence.borelfun import (DilogBF, LogPoleBF, PowerBF, RationalBF,
                                 RationalFunction, StirlingBF, euler_minor)
from resurgence.errors import RayBlockedError
from resurgence.laplace import (RaySpec, hankel_laplace, laplace_ray,
                                pade_minor)
from resurgence.scalars import ExactScalar, GaussianRational
from resurgence.series import euler_series

SHAPES = {
    "euler": (euler_minor(), True),
    "stirling": (StirlingBF(), True),
    "logpole": (LogPoleBF(RationalFunction.simple_pole(-3, 2),
                          [(-1, RationalFunction.simple_pole(-2, 1), 0)]),
                True),
    "power-log": (PowerBF("1/2", with_log=True), True),
    "power": (PowerBF("3/4"), True),
    "double-pole": (RationalBF(RationalFunction([1], poles={-1: 2})), True),
    # (1 + zeta) / ((1 + 2 pi i) (zeta + 2))
    "lead": (RationalBF(RationalFunction(
        [1, 1], poles={-2: 1},
        lead=ExactScalar.from_rational(1) + ExactScalar.tau())), True),
    "logpole-double": (LogPoleBF(
        RationalFunction.simple_pole(-3, 2),
        [(-1, RationalFunction([1], poles={-2: 2}), 0)]), True),
    "dilog": (DilogBF(), True),
    "pade": (pade_minor(euler_series(12)), False),
    # sums of simple poles, whose numerators carry the lifted cofactors:
    # ((1 + i) zeta + 2) / ((zeta + 1)(zeta + 2 - i)), and a log shape
    # with cofactor (2 zeta + 6) / ((zeta + 2)(zeta + 4))
    "two-pole": (RationalBF(
        RationalFunction.simple_pole(-1)
        + RationalFunction.simple_pole(GaussianRational(-2, 1),
                                       GaussianRational(0, 1))), True),
    "logpole-two": (LogPoleBF(
        RationalFunction.simple_pole(-3, 2),
        [(-1, RationalFunction.simple_pole(-2)
          + RationalFunction.simple_pole(-4), 0)]), True),
}
# the shapes each precision sweeps: the mpmath evaluators of the
# dilogarithm and the log shape are slow at 117 bits and above
AT = {53: ["euler", "stirling", "logpole", "power-log", "power",
           "double-pole", "dilog"],
      113: ["euler", "stirling", "power-log", "power", "double-pole"],
      240: ["euler", "stirling", "power-log", "power"]}
# the shapes with a non-monomial lead or a squared pole in a cofactor,
# swept at every precision in draws of their own
FACTORED = ["lead", "logpole-double"]
# the sums of simple poles, swept at 53 and 113 bits in draws of their own
LIFTED = ["two-pole", "logpole-two"]
# the draws per shape at each precision
DRAWS = {53: 2, 113: 2, 240: 1}


def cases(prec, names=None):
    """Seeded (shape, theta, z), each shape of ``names`` (by default
    AT[prec]) DRAWS[prec] times, with a decay margin of at least 1/2."""
    names = names or AT[prec]
    rng = random.Random(prec if names is AT[prec] else f"{prec} {names}")
    out = []
    while len(out) < DRAWS[prec] * len(names):
        name = names[len(out) % len(names)]
        theta = rng.uniform(-1.2, 1.2)
        z = mpmath.mpc(rng.uniform(1, 6), rng.uniform(-3, 3))
        margin = (z * mpmath.expj(theta)).real
        if margin >= 0.5:
            out.append((name, round(theta, 3), z))
    return out


def spec(theta, z, prec, target):
    return RaySpec(mpmath.mpf(theta), z, target_error=target, prec=prec,
                   max_nodes=20000)


@pytest.mark.parametrize("prec,name,theta,z", [
    (prec, *case) for names in (None, FACTORED) for prec in DRAWS
    for case in cases(prec, names)] + [
    (prec, *case) for prec in (53, 113) for case in cases(prec, LIFTED)])
def test_ray_error_bounds_the_distance(prec, name, theta, z):
    check_ray(name, theta, z, prec, 2.0 ** (4 - prec))


# (shape, theta, z): the pole at -1 passes 0.052 and 0.072 from the ray,
# the dilogarithm's ray runs 0.1 rad below its cut past 1, and the pole
# at -2 passes 0.103 from the ray (past the log's branch point at -1 and
# before the pole at -3 of the log shape)
NEAR = [("double-pole", "3.09", mpmath.mpc(-3, "0.2")),
        ("pade", "-3.07", -2),
        ("dilog", "-0.1", mpmath.mpc(2, "-0.5")),
        ("lead", "3.09", mpmath.mpc(-3, "0.2")),
        ("logpole-double", "3.09", mpmath.mpc(-3, "0.2"))]


@pytest.mark.parametrize("name,theta,z", NEAR)
def test_ray_near_a_singularity_error_bounds_the_distance(name, theta, z):
    check_ray(name, theta, z, 53, 1e-8)


@pytest.mark.parametrize("theta", [0.05, -0.1, 3.0])
def test_dilog_majorant_bounds_its_continuation(theta):
    """The dilogarithm's ellipse rule is finite only on ellipses without
    1, and there it bounds the integrand's continuation from the ray on
    the boundary, sampled at 64 points per ellipse: Li2 on the ray's side
    of the real axis, and past the cut [1, inf) Li2 -+ 2 pi i log zeta,
    whose modulus is at most |Li2| + 2 pi |log zeta|."""
    contour = Contour(mpmath.mpf(theta))
    majorant = DilogBF().ellipse_rule(contour, [1], 53)
    turn = cmath.exp(1j * theta)
    rhos = [1.05, 1.6, 5.0]
    finite = 0
    for lo, hi in [(0.5, 1), (1, 2), (8, 16)]:
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for rho, bound in zip(rhos, majorant(mid, half, rhos)):
            if bound == math.inf:
                continue
            finite += 1
            a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
            ring = [turn * (mid + half * complex(a * math.cos(t),
                                                 b * math.sin(t)))
                    for t in (2 * math.pi * j / 64 for j in range(65))]
            crossings = [u.real + (v.real - u.real) * u.imag
                         / (u.imag - v.imag)
                         for u, v in zip(ring, ring[1:])
                         if u.imag * v.imag < 0]
            past = bool(crossings) and min(crossings) > 1
            assert past or all(c < 1 for c in crossings)
            for u in ring:
                size = abs(mpmath.polylog(2, u))
                if past and u.imag * math.sin(theta) < 0:
                    size += 2 * math.pi * abs(cmath.log(u))
                assert size <= bound
    assert finite > 0


CONTOURS = {"ray": Contour(mpmath.mpf("0.3")),
            "ray-past-the-pole": Contour(mpmath.mpf("3.0")),
            "circle": Contour(mpmath.mpf("0.3"), radius=mpmath.mpf("0.5"))}


# a log shape has an ellipse rule on a ray only
@pytest.mark.parametrize("contour,name", [
    pytest.param(contour, name, id=f"{key}-{name}")
    for name in ["double-pole", "lead", "pade", "euler", "two-pole",
                 "logpole-two"]
    for key, contour in CONTOURS.items()
    if not (name == "logpole-two" and contour.radius is not None)])
def test_factored_majorant_bounds_the_shape(name, contour):
    """The factored majorant of a shape bounds it on the boundary of
    every ellipse where it is finite, sampled at 64 points; by the maximum
    principle that bounds the inside too."""
    f = SHAPES[name][0]
    majorant = f.ellipse_rule(contour, f.singular_values(53), 53)
    evaluate = f.numeric_evaluator(53)
    theta = float(contour.theta)
    rhos = [1.05, 1.6, 5.0]
    finite = 0
    for lo, hi in [(0.25, 0.75), (0.5, 1.5), (1, 3), (8, 16)]:
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for rho, bound in zip(rhos, majorant(mid, half, rhos)):
            if bound == math.inf:
                continue
            finite += 1
            a, b = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
            for t in (2 * math.pi * j / 64 for j in range(64)):
                x = mid + half * complex(a * math.cos(t), b * math.sin(t))
                zeta = cmath.exp(1j * theta) * x if contour.radius is None \
                    else float(contour.radius) * cmath.exp(1j * x)
                assert abs(evaluate(zeta)) <= bound
    assert finite > 0


def check_ray(name, theta, z, prec, target):
    f, proved = SHAPES[name]
    try:
        got = laplace_ray(f, 0, spec(theta, z, prec, target))
    except RayBlockedError:
        pytest.skip("the ray passes a singular point")
    ref = laplace_ray(f, 0, spec(theta, z, prec + 64, target * 2.0 ** -20))
    with mpmath.workprec(prec + 64):
        assert abs(got.value - ref.value) \
            <= got.error_estimate + ref.error_estimate
    assert got.error_estimate <= target
    assert got.certified == proved


@pytest.mark.parametrize("prec", [53, 113])
@pytest.mark.parametrize("sigma,with_log", [("1/3", False), ("1/2", True)])
def test_hankel_error_bounds_the_distance(prec, sigma, with_log):
    f = PowerBF(sigma, with_log=with_log)
    z = mpmath.mpc(2, 1)
    got = hankel_laplace(f, "0.3", z, target_error=2.0 ** (4 - prec),
                         prec=prec)
    with mpmath.workprec(prec + 64):
        s = mpmath.mpf(f.sigma.numerator) / f.sigma.denominator
        exact = z ** -s * (-mpmath.log(z) if with_log else 1)
        assert abs(got.value - exact) <= got.error_estimate
    assert got.certified


# the roadmap's 240-bit rows, target 2^(4 - 240): (theta, z), shape and
# the nodes the bound samples (the nested rule took 70413 and 40523)
ROWS = {"euler": ("0.3", 2, euler_minor(), 2284),
        "stirling": (0, 10, StirlingBF(), 1225)}


@pytest.mark.parametrize("name", list(ROWS))
def test_high_precision_rows(name):
    theta, z, f, nodes = ROWS[name]
    got = laplace_ray(f, 0, RaySpec(theta, z, target_error=2.0 ** -236,
                                    prec=240))
    ref = laplace_ray(f, 0, RaySpec(theta, z, target_error=2.0 ** -256,
                                    prec=304))
    with mpmath.workprec(304):
        assert abs(got.value - ref.value) \
            <= got.error_estimate + ref.error_estimate
    assert got.error_estimate <= 2.0 ** -236
    assert got.certified
    assert got.nodes_used == nodes


def test_decay_edge_keeps_every_sample():
    """0.008 rad inside the decay edge the kernel turns hundreds of times;
    the panels are planned before any sampling, so the nodes reported
    are exactly those of the panels kept, degree + 1 each."""
    theta = math.pi / 2 - 0.008
    got = laplace_ray(euler_minor(), 0,
                      RaySpec(theta, 2, target_error=1e-10, max_nodes=20000))
    degrees = got.diagnostics["degrees"]
    assert got.nodes_used == sum((n + 1) * k for n, k in degrees.items())
    assert sum(degrees.values()) == got.diagnostics["panels"]
    with mpmath.workprec(120):
        exact = mpmath.exp(2) * mpmath.e1(2)
        assert abs(got.value - exact) <= got.error_estimate <= 1e-10
