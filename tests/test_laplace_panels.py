"""The Clenshaw-Curtis panel rule of the Laplace sums.

Rays, lateral jumps, the Hankel difference ray and the Hankel circle are
integrated by one adaptive panel rule.  The cases here are where such a
rule is weakest: an oscillating kernel near the edge of the decay
half-plane, complex evaluation points and rotated Hankel contours.  Each
is compared with a closed form computed at 200 bits, independently of
the quadrature:

* the ray sum of 1/(1 + zeta) equals e^z E_1(z) on every ray that does
  not sweep the pole at -1 (mpmath's continued-fraction E_1);
* the Hankel sum of the power kernel of exponent sigma equals z^-sigma,
  and that of its log variant -z^-sigma log z.

``max_nodes`` is a real cap: a capped sum stops bisecting, and its
reported error still bounds its distance to the closed form.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from resurgence.borelfun import PowerBF, euler_minor
from resurgence.laplace import RaySpec, hankel_laplace, laplace_ray


def exp_integral_sum(z):
    with mpmath.workprec(200):
        zv = mpmath.mpmathify(z)
        return mpmath.exp(zv) * mpmath.e1(zv)


def hankel_closed_form(sigma, with_log, z):
    with mpmath.workprec(200):
        zv = mpmath.mpmathify(z)
        s = Fraction(sigma)
        value = zv ** (-mpmath.mpf(s.numerator) / s.denominator)
        return -value * mpmath.log(zv) if with_log else value


@pytest.mark.parametrize("z,side", [
    (2, 1), (mpmath.mpc(2, 1), 1), (mpmath.mpc(2, 1), -1)])
def test_euler_ray_near_the_decay_edge(z, side):
    # 0.008 rad inside the edge the margin is about 0.02 |z|: the kernel
    # turns hundreds of times before the truncation point
    edge = side * math.pi / 2 - float(mpmath.arg(z))
    theta = edge - side * 0.008
    target = 1e-10
    res = laplace_ray(euler_minor(), 0,
                      RaySpec(theta, z, target_error=target, max_nodes=20000))
    assert res.diagnostics["margin"] < 0.02 * abs(z)
    assert res.diagnostics["panels"] > 4 * res.diagnostics["segments"]
    assert abs(res.value - exp_integral_sum(z)) <= res.error_estimate <= target


@pytest.mark.parametrize("sigma,with_log", [
    ("1/3", False), ("1/2", False), ("1/2", True)])
def test_rotated_hankel_at_a_complex_point(sigma, with_log):
    z = mpmath.mpc(2, 1)
    target = 1e-12
    res = hankel_laplace(PowerBF(sigma, with_log=with_log), "-0.3", z,
                         target_error=target)
    exact = hankel_closed_form(sigma, with_log, z)
    assert abs(res.value - exact) <= res.error_estimate <= target


def test_diagnostics_name_the_rule():
    ray = laplace_ray(euler_minor(), 0, RaySpec(0, 2))
    assert ray.diagnostics["method"] == "clenshaw-curtis"
    assert ray.diagnostics["panels"] >= ray.diagnostics["segments"]
    contour = hankel_laplace(PowerBF("1/2"), 0, 2)
    assert contour.diagnostics["method"] == "clenshaw-curtis"
    # the circle is one more panel, at least
    assert contour.diagnostics["panels"] > contour.diagnostics["segments"]


def test_max_nodes_caps_a_ray():
    spec = dict(theta=0, z=2, target_error=1e-40)
    free = laplace_ray(euler_minor(), 0, RaySpec(**spec))
    capped = laplace_ray(euler_minor(), 0, RaySpec(**spec, max_nodes=64))
    # without the cap the rule bisects; with it every segment stays one
    # panel, sampled once at its degree, and the panels keep their bounds
    assert free.diagnostics["panels"] > free.diagnostics["segments"]
    assert capped.diagnostics["panels"] == capped.diagnostics["segments"]
    assert capped.nodes_used < free.nodes_used
    assert capped.error_estimate > free.error_estimate
    assert abs(capped.value - exp_integral_sum(2)) <= capped.error_estimate


def test_max_nodes_caps_a_hankel_sum():
    f = PowerBF("1/2")
    free = hankel_laplace(f, 0, 2)
    capped = hankel_laplace(f, 0, 2, max_nodes=64)
    circle = [res.diagnostics["circle_nodes"] for res in (capped, free)]
    assert circle[0] < circle[1]
    assert capped.error_estimate > free.error_estimate
    exact = hankel_closed_form("1/2", False, 2)
    assert abs(capped.value - exact) <= capped.error_estimate
