"""Compiled shape evaluators and the one-integrand Hankel contour.

Each shape compiles its evaluator (``numeric_evaluator``, and
``polar_evaluator`` for power kernels) with its exact constants
evaluated once.  The per-point code it replaced is kept below as the
reference: the compiled evaluators must return the same numbers, bit for
bit, at 53 and 113 bits.  A sum builds an evaluator only through the
default panel sampler, once per contour it samples, or a sampled tail;
shapes that sample in integers and prove their tails build none.  The
Hankel contour integrates both rays as one
difference integrand; its values must stay within their reported errors
of the closed forms z^-sigma and -z^-sigma log z.  On single-valued
shapes the two rays cancel identically, so only the circle is integrated.
"""

from fractions import Fraction

import mpmath
import pytest

from resurgence.borelfun import (
    BorelFunction,
    DilogBF,
    LogPoleBF,
    PowerBF,
    RationalBF,
    RationalFunction,
    StirlingBF,
    euler_minor,
)
from resurgence.laplace import (
    PadeApproximant,
    RaySpec,
    hankel_laplace,
    laplace_ray,
    lateral_jump,
    pade_minor,
)
from resurgence.scalars import ExactScalar, GaussianRational
from resurgence.series import euler_series

PRECS = (53, 113)


# -- the per-point code the compiled evaluators replaced -----------------------


def old_rational(rat, z, prec):
    with mpmath.workprec(prec + 16):
        zv = mpmath.mpmathify(z)
        with mpmath.workprec(prec + 16):
            val = mpmath.mpc(0)
            for c in reversed(rat.num):
                val = val * zv + c.evaluate(prec + 16)
        den = rat.lead.evaluate(prec + 16)
        for p, m in rat.poles.items():
            den *= (zv - p.evaluate(prec + 16)) ** m
        out = val / den
    with mpmath.workprec(prec):
        return +out


def old_logpole(f, zeta, prec):
    with mpmath.workprec(prec + 16):
        zv = mpmath.mpmathify(zeta)
        total = old_rational(f.rational_part, zv, prec + 16)
        tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
        for a, r, k in f.log_terms:
            av = a.evaluate(prec + 16)
            logval = mpmath.log(1 - zv / av) + k * tau
            total += old_rational(r, zv, prec + 16) * logval
    with mpmath.workprec(prec):
        return +total


def old_stirling(zeta, prec):
    with mpmath.workprec(prec + 24):
        zv = mpmath.mpmathify(zeta)
        if abs(zv) < mpmath.mpf(1) / 2:
            total = mpmath.mpc(0)
            power = mpmath.mpc(1)
            k = 0
            while True:
                p, q = mpmath.bernfrac(2 * k + 2)
                term = mpmath.mpf(int(p)) / int(q) / mpmath.factorial(2 * k + 2)
                total += term * power
                if abs(power) * abs(term) < mpmath.mpf(2) ** (-(prec + 24)) \
                        and k > 2:
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


def old_dilog(f, zeta, prec):
    with mpmath.workprec(prec + 16):
        zv = mpmath.mpmathify(zeta)
        total = mpmath.polylog(2, zv)
        if f.n:
            tau = 2 * mpmath.pi * mpmath.mpc(0, 1)
            total += -f.n * tau * (mpmath.log(zv) + f.m * tau)
    with mpmath.workprec(prec):
        return +total


def old_polar(f, radius, theta, prec):
    with mpmath.workprec(prec + 16):
        r = mpmath.mpf(radius)
        th = mpmath.mpf(theta)
        s = mpmath.mpf(f.sigma.numerator) / f.sigma.denominator
        logz = mpmath.log(r) + mpmath.mpc(0, 1) * th
        power = mpmath.exp((s - 1) * logz)
        if f.with_log:
            out = f.g_value(prec + 16) * power * logz \
                + f.g_prime_value(prec + 16) * power
        else:
            out = f.g_value(prec + 16) * power
    with mpmath.workprec(prec):
        return +out


def old_power(f, zeta, prec):
    with mpmath.workprec(prec + 16):
        zv = mpmath.mpmathify(zeta)
        return old_polar(f, abs(zv), mpmath.arg(zv), prec)


def old_pade(model, zeta, prec):
    with mpmath.workprec(prec + 16):
        zv = mpmath.mpmathify(zeta)
        num = mpmath.polyval(list(reversed(model.num)), zv)
        den = mpmath.polyval(list(reversed(model.den)), zv)
        out = num / den
    with mpmath.workprec(prec):
        return +out


# -- shapes and points -----------------------------------------------------------


def G(re, im=0):
    return ExactScalar.from_gaussian(GaussianRational(Fraction(re),
                                                      Fraction(im)))


# a double pole, a complex pole, a non-monic denominator and a full numerator
DOUBLE_POLE = RationalFunction([1, G(2, 1), Fraction(1, 3)],
                               poles={1: 1, G(0, -2): 2},
                               lead=Fraction(3, 2))
LOG_POLE = LogPoleBF(
    RationalFunction([1], poles={2: 1}),
    [(-1, RationalFunction([1, 1], poles={3: 1}), 2),
     (G(0, 1), RationalFunction.constant(Fraction(1, 2)), -1),
     (Fraction(5, 2), RationalFunction.constant(3), 0)])
POINTS = [mpmath.mpf("0.3"), mpmath.mpc("0.7", "-1.3"), mpmath.mpc(-2, "0.4"),
          mpmath.mpc("0.01", "0.02"), mpmath.mpf(7)]
# the Stirling minor switches from its Taylor sum to the closed form at
# |zeta| = 1/2: points on both sides, the small ones in mixed order
STIRLING_POINTS = [mpmath.mpf("0.3"), mpmath.mpc(0, "0.49"),
                   mpmath.mpf("0.001"), mpmath.mpc("-0.2", "0.1"),
                   mpmath.mpf("0.5"), mpmath.mpc("0.7", 3), mpmath.mpf(-9)]


@pytest.mark.parametrize("prec", PRECS)
class TestCompiledEvaluators:
    def test_rational_function(self, prec):
        for rat in (DOUBLE_POLE, euler_minor().rat, RationalFunction.zero()):
            evaluate = rat.numeric_evaluator(prec)
            for z in POINTS:
                assert evaluate(z) == old_rational(rat, z, prec)
                assert rat.numeric_eval(z, prec) == evaluate(z)

    def test_rational_shape(self, prec):
        f = RationalBF(DOUBLE_POLE)
        evaluate = f.numeric_evaluator(prec)
        for z in POINTS:
            assert evaluate(z) == old_rational(DOUBLE_POLE, z, prec)
            assert f.numeric_eval(z, prec) == evaluate(z)

    def test_log_pole_with_branch_integers(self, prec):
        assert sorted(k for _a, _r, k in LOG_POLE.log_terms) == [-1, 0, 2]
        evaluate = LOG_POLE.numeric_evaluator(prec)
        for z in POINTS:
            assert evaluate(z) == old_logpole(LOG_POLE, z, prec)
            assert LOG_POLE.numeric_eval(z, prec) == evaluate(z)

    def test_stirling_both_branches(self, prec):
        f = StirlingBF()
        evaluate = f.numeric_evaluator(prec)
        for z in STIRLING_POINTS:
            assert evaluate(z) == old_stirling(z, prec)
            assert f.numeric_eval(z, prec) == evaluate(z)

    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (-2, 1)])
    def test_dilog_sheets(self, prec, n, m):
        f = DilogBF(n, m)
        evaluate = f.numeric_evaluator(prec)
        for z in POINTS:
            assert evaluate(z) == old_dilog(f, z, prec)
            assert f.numeric_eval(z, prec) == evaluate(z)

    @pytest.mark.parametrize("sigma,with_log", [
        ("1/3", False), ("1/2", False), ("3/4", False), ("-1/2", False),
        ("1/2", True), ("5/4", True)])
    def test_power_kernel_on_both_sheets(self, prec, sigma, with_log):
        f = PowerBF(sigma, with_log=with_log)
        polar = f.polar_evaluator(prec)
        tau = 2 * mpmath.pi
        for r in (mpmath.mpf("0.25"), mpmath.mpf("0.7"), mpmath.mpf(9)):
            for th in (mpmath.mpf(0), mpmath.mpf("0.3"), -mpmath.mpf(2)):
                for sheet in (th, th - tau):
                    assert polar(r, sheet) == old_polar(f, r, sheet, prec)
                    assert f.polar_evaluator(prec)(r, sheet) \
                        == polar(r, sheet)
        evaluate = f.numeric_evaluator(prec)
        for z in POINTS:
            assert evaluate(z) == old_power(f, z, prec)
            assert f.numeric_eval(z, prec) == evaluate(z)

    def test_pade_model(self, prec):
        model = pade_minor(euler_series(12))
        evaluate = model.numeric_evaluator(prec)
        for z in POINTS:
            assert evaluate(z) == old_pade(model, z, prec)
            assert model.numeric_eval(z, prec) == evaluate(z)


class TestOncePerSum:
    """Each sum builds the singular values once, and each ray its tail
    rule once.  A sum asks a shape only for panel samplers and tail rules:
    shapes that sample in integers and prove their tails build no scalar
    evaluator, a shape on the default sampler builds one per contour it
    samples, and a sampled tail builds one per rule."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        for owner in (BorelFunction, RationalFunction, RationalBF, LogPoleBF,
                      StirlingBF, PowerBF, PadeApproximant):
            for name in ("numeric_evaluator", "polar_evaluator",
                         "singular_values"):
                if name in vars(owner):
                    monkeypatch.setattr(owner, name,
                                        self.counted(calls, name,
                                                     vars(owner)[name]))
        return calls

    @staticmethod
    def counted(calls, name, original):
        def method(self, *args, **kwargs):
            calls.append((type(self).__name__, name))
            return original(self, *args, **kwargs)

        return method

    def test_ray_builds_once(self, built):
        # integer samplers with proved tails: no evaluator on either ray
        ray = laplace_ray(StirlingBF(), 0, RaySpec(0, 10, target_error=1e-10))
        # four segments, each sampled once at the degree its bound picks
        assert ray.diagnostics["degrees"] == {12: 2, 16: 2}
        assert ray.nodes_used == 60
        assert built == [("StirlingBF", "singular_values")]
        built.clear()
        lateral_jump(euler_minor(), 0, mpmath.pi, "0.5", -3)
        assert built == [("RationalBF", "singular_values")] * 2

    def test_hankel_builds_once(self, built):
        hankel = hankel_laplace(PowerBF("1/2"), 0, 2)
        assert hankel.nodes_used > 100
        assert built == [("PowerBF", "singular_values")]

    def test_each_ray_builds_its_tail_rule_once(self, monkeypatch):
        rules = []
        for owner in (BorelFunction, RationalBF, LogPoleBF, StirlingBF,
                      DilogBF, PowerBF):
            monkeypatch.setattr(owner, "tail_rule", self.counted(
                rules, "tail_rule", vars(owner)["tail_rule"]))
        shapes = [euler_minor(), StirlingBF(), DilogBF(), PowerBF("1/2"),
                  pade_minor(euler_series(12)),
                  LogPoleBF(RationalFunction.simple_pole(-3, 2),
                            [(-1, RationalFunction.simple_pole(-2, 1), 0)])]
        for f in shapes:
            rules.clear()
            laplace_ray(f, 0, RaySpec("0.5", 2, target_error=1e-6))
            assert rules == [(type(f).__name__, "tail_rule")]
        rules.clear()
        lateral_jump(euler_minor(), 0, mpmath.pi, "0.5", -3)
        assert rules == [("RationalBF", "tail_rule")] * 2
        rules.clear()
        hankel_laplace(PowerBF("1/2"), 0, 2)
        assert rules == [("PowerBF", "tail_rule")]

    @pytest.mark.parametrize("target", [1e-10, 1e-30])
    def test_sampled_tail_builds_one_evaluator(self, built, target):
        # one evaluator for the tail rule and one for the ray's panels,
        # however many steps the truncation ladder takes
        laplace_ray(pade_minor(euler_series(12)), 0,
                    RaySpec(0, 2, target_error=target))
        own = [name for _owner, name in built]
        assert sorted(own) == ["numeric_evaluator"] * 2 + ["singular_values"]

    def test_default_sampler_builds_once_per_contour(self, built):
        # a proved log envelope, so only the two rays' samplers evaluate
        f = LogPoleBF(RationalFunction.simple_pole(-3, 2),
                      [(-1, RationalFunction.simple_pole(-2, 1), 0)])
        pair = lateral_jump(f, 0, 0, "0.5", 2)
        assert pair.plus.diagnostics["rigorous_tail"]
        own = [name for owner, name in built if owner == "LogPoleBF"]
        assert sorted(own) == ["numeric_evaluator"] * 2 \
            + ["singular_values"] * 2
        built.clear()
        # a single-valued model on a Hankel contour: its circle alone
        res = hankel_laplace(pade_minor(euler_series(12)), 0, 2)
        assert res.diagnostics["ray_nodes"] == 0
        assert sorted(built) == [("PadeApproximant", "numeric_evaluator"),
                                 ("PadeApproximant", "polar_evaluator"),
                                 ("PadeApproximant", "singular_values")]


# -- the Hankel contour as one ray integrand plus the circle ------------------------


def closed_form(sigma, with_log, z):
    with mpmath.workprec(200):
        zv = mpmath.mpmathify(z)
        s = mpmath.mpf(Fraction(sigma).numerator) / Fraction(sigma).denominator
        value = zv ** (-s)
        return -value * mpmath.log(zv) if with_log else value


@pytest.mark.parametrize("sigma,with_log", [
    ("1/3", False), ("1/2", False), ("3/4", False), ("1/2", True)])
def test_hankel_within_error_of_closed_form(sigma, with_log):
    f = PowerBF(sigma, with_log=with_log)
    for z in (2, 3):
        for theta in (0, "0.3"):
            res = hankel_laplace(f, theta, z)
            assert abs(res.value - closed_form(sigma, with_log, z)) \
                <= res.error_estimate
            assert res.error_estimate < 1e-10
            diag = res.diagnostics
            assert diag["ray_nodes"] + diag["circle_nodes"] == res.nodes_used
            assert diag["segments"] >= 1


def test_single_valued_pole_needs_fewer_nodes():
    # 2460 is the node count of the circle plus two separate ray
    # quadratures, and 1170 that of tanh-sinh on the one difference
    # integrand plus eight circle arcs; both sheets of a pole agree, so
    # the rays cancel identically and no ray segment is integrated
    shape = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))
    res = hankel_laplace(shape, 0, 3)
    assert abs(res.value - 1) <= res.error_estimate
    assert res.nodes_used < 2460
    diag = res.diagnostics
    assert diag["ray_nodes"] + diag["circle_nodes"] == res.nodes_used
    assert res.nodes_used < 1170
    assert diag["segments"] == 0


@pytest.mark.parametrize("theta,z", [
    (0, 3), (0, Fraction(9, 4)), ("0.7", mpmath.mpc(2, 1))])
def test_single_valued_hankel_is_its_circle(theta, z):
    shape = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))
    res = hankel_laplace(shape, theta, z)
    assert abs(res.value - 1) <= res.error_estimate
    diag = res.diagnostics
    assert diag["ray_nodes"] == 0
    assert diag["segments"] == 0
    assert diag["tail_bound"] == 0
    assert res.nodes_used == diag["circle_nodes"] > 0
    # the error is the circle's alone: 4 * its estimate + one unit
    with mpmath.workprec(80):
        unit = mpmath.ldexp(1 + abs(res.value), -53)
        assert res.error_estimate <= 4 * diag["quadrature_error"] + 2 * unit


def test_multivalued_hankel_still_integrates_the_ray():
    for f in (PowerBF("1/2"), PowerBF("1/3", with_log=True)):
        res = hankel_laplace(f, 0, 2)
        diag = res.diagnostics
        assert diag["ray_nodes"] > 0
        assert diag["segments"] >= 1
        assert diag["tail_bound"] > 0
        assert diag["ray_nodes"] + diag["circle_nodes"] == res.nodes_used
