"""Tests for exact Borel-plane germs, continuation, and extraction.

The independent oracle here integrates the defining differential equation
along an explicit polyline that realizes the detours geometrically: the
branch value of each logarithm is the running integral of 1/(u - a), and the
dilogarithm rides the coupled system.  No principal-branch logic enters the
oracle, so it cannot share a bug with the bookkeeping under test.
Convolution is checked against direct numerical quadrature of the defining
integral.
"""

from fractions import Fraction

import mpmath
import pytest

from resurgence.errors import NotSimpleError, UnreachableBranchError
from resurgence.scalars import ExactScalar
from resurgence.series import borel, euler_series, stirling_series
from resurgence.borelfun import (
    RationalFunction,
    RationalBF,
    LogPoleBF,
    PathSpec,
    points_between,
    continue_along,
    continue_eval,
    extract_singularity,
    convolve,
    euler_minor,
    stirling_minor,
    dilog_minor,
    power_minor,
)
from resurgence.laplace import pade_minor

ONE = ExactScalar.from_rational(1)
TAU = ExactScalar.tau()
IPI = ExactScalar.i_pi()


def rat(*coeffs, poles=None):
    return RationalFunction(list(coeffs), poles=poles or {})


# -- the path-integration oracle ---------------------------------------------------


def rk_path(derivs, y0, polyline, start=0, steps_per_unit=2500, dps=35):
    """RK4 integration of y' = derivs(zeta, y) along a polyline of vertices.

    The state is a list of complex values.  The integrand must stay smooth
    along the path (the polyline keeps clear of the singular points), but no
    branch cuts exist at this level: continuation is literal.
    """
    with mpmath.workdps(dps):
        y = [mpmath.mpc(v) for v in y0]
        pos = mpmath.mpc(start)
        for vertex in polyline:
            vertex = mpmath.mpc(vertex)
            seg = vertex - pos
            length = abs(seg)
            if length == 0:
                continue
            n = max(12, int(length * steps_per_unit))
            h = seg / n
            for i in range(n):
                z0 = pos + i * h
                k1 = derivs(z0, y)
                y1 = [y[j] + h / 2 * k1[j] for j in range(len(y))]
                k2 = derivs(z0 + h / 2, y1)
                y2 = [y[j] + h / 2 * k2[j] for j in range(len(y))]
                k3 = derivs(z0 + h / 2, y2)
                y3 = [y[j] + h * k3[j] for j in range(len(y))]
                k4 = derivs(z0 + h, y3)
                y = [
                    y[j] + h / 6 * (k1[j] + 2 * k2[j] + 2 * k3[j] + k4[j])
                    for j in range(len(y))
                ]
            pos = vertex
        return y


def log_values_along(branch_points, polyline, dps=35):
    """Continued values of Log(1 - zeta/a) for each a, along the polyline."""
    pts = [mpmath.mpc(a) for a in branch_points]

    def derivs(z, _y):
        return [1 / (z - a) for a in pts]

    return rk_path(derivs, [0] * len(pts), polyline, dps=dps)


def logpole_oracle(terms, rational_part, polyline, dps=35):
    """Assemble a LogPoleBF-shaped value from path-integrated logs.

    ``terms`` is a list of (branch_point, coefficient_function); the
    coefficient functions and the rational part are evaluated directly at
    the endpoint (they are single-valued)."""
    end = polyline[-1]
    logs = log_values_along([a for a, _r in terms], polyline, dps=dps)
    with mpmath.workdps(dps):
        total = rational_part.numeric_eval(mpmath.mpc(end), mpmath.mp.prec) \
            if rational_part is not None else mpmath.mpc(0)
        for (a, r), lv in zip(terms, logs):
            total += r.numeric_eval(mpmath.mpc(end), mpmath.mp.prec) * lv
        return total


# -- rational functions -------------------------------------------------------------


class TestRationalFunction:
    def test_evaluation_and_arithmetic(self):
        f = rat(1, 2, poles={3: 1})          # (1 + 2 zeta)/(zeta - 3)
        g = rat(0, 0, 1, poles={-1: 2})      # zeta^2/(zeta + 1)^2
        x = ExactScalar.from_rational(Fraction(1, 2))
        fx = f.exact_eval(x)
        gx = g.exact_eval(x)
        assert fx == ExactScalar.from_rational(Fraction(-4, 5))
        assert gx == ExactScalar.from_rational(Fraction(1, 9))
        assert (f + g).exact_eval(x) == fx + gx
        assert (f * g).exact_eval(x) == fx * gx
        assert (f - g).exact_eval(x) == fx - gx

    def test_numeric_matches_exact(self):
        f = rat(1, 0, 3, poles={2: 1, -1: 1})
        z = Fraction(1, 4)
        exact = f.exact_eval(ExactScalar.from_rational(z)).evaluate(80)
        numeric = f.numeric_eval(mpmath.mpf("0.25"), 80)
        assert abs(exact - numeric) < mpmath.mpf(2) ** -70

    def test_residue_simple(self):
        # (zeta + 5)/((zeta - 1)(zeta - 2)): residues -6 and 7
        f = rat(5, 1, poles={1: 1, 2: 1})
        assert f.residue(1) == ExactScalar.from_rational(-6)
        assert f.residue(2) == ExactScalar.from_rational(7)
        assert f.residue(9) == ExactScalar()

    def test_residue_after_cancellation(self):
        # declared double pole at 1 with numerator zero there: order drops
        f = rat(-1, 1, poles={1: 2})         # (zeta-1)/(zeta-1)^2
        assert f.pole_order(1) == 1
        assert f.residue(1) == ONE

    def test_double_pole_rejected(self):
        f = rat(1, poles={1: 2})
        assert f.pole_order(1) == 2
        with pytest.raises(NotSimpleError):
            f.residue(1)

    def test_taylor_at_matches_numeric(self):
        f = rat(2, -1, 1, poles={3: 2, -2: 1})
        series = f.taylor_at(ExactScalar.from_rational(1), 12)
        with mpmath.workdps(35):
            h = mpmath.mpf("0.05")
            direct = f.numeric_eval(1 + h, 110)
            summed = sum(c.evaluate(110) * h**k for k, c in enumerate(series))
            assert abs(direct - summed) < mpmath.mpf(10) ** -20

    def test_divide_linear(self):
        f = rat(1, 1)
        g = f.divide_linear(ExactScalar.from_rational(4))
        x = ExactScalar.from_rational(2)
        assert g.exact_eval(x) == ExactScalar.from_rational(Fraction(3, -2))


# -- convolution ----------------------------------------------------------------------


class TestConvolution:
    def test_monomial_beta_values(self):
        # u^2 * u = 2! 1! / 4! zeta^4 = zeta^4 / 12
        f = RationalBF(rat(0, 0, 1))
        g = RationalBF(rat(0, 1))
        h = convolve(f, g)
        expected = [ExactScalar()] * 4 + [ExactScalar.from_rational(Fraction(1, 12))]
        assert h.rat.num == expected

    def test_simple_pole_with_one(self):
        # 1/(u - 1) * 1 = Log(1 - zeta)
        h = convolve(RationalBF(RationalFunction.simple_pole(1, 1)),
                     RationalBF(rat(1)))
        assert isinstance(h, LogPoleBF)
        z = mpmath.mpf("0.3125")
        val = h.numeric_eval(z, 80)
        with mpmath.workprec(80):
            assert abs(val - mpmath.log(1 - z)) < mpmath.mpf(2) ** -70

    @pytest.mark.parametrize("numer,poles,gcoeffs", [
        ((1,), {1: 1}, (0, 0, 1)),
        ((2, 1), {2: 1}, (1, -1)),
        ((1, 0, 1), {1: 1, -2: 1}, (0, 1)),
        ((3,), {Fraction(3, 2): 1}, (1, 1, 1)),
    ])
    def test_against_quadrature(self, numer, poles, gcoeffs):
        f = RationalBF(rat(*numer, poles=poles))
        g = RationalBF(rat(*gcoeffs))
        h = convolve(f, g)
        with mpmath.workdps(30):
            zeta = mpmath.mpf("0.31")
            direct = mpmath.quad(
                lambda u: f.numeric_eval(u, 100) * g.numeric_eval(zeta - u, 100),
                [0, zeta],
            )
            assert abs(h.numeric_eval(zeta, 100) - direct) < mpmath.mpf(10) ** -18

    def test_commutative(self):
        f = RationalBF(rat(1, 1, poles={2: 1}))
        g = RationalBF(rat(0, 2, 1))
        h1 = convolve(f, g)
        h2 = convolve(g, f)
        z = mpmath.mpf("0.75")
        assert abs(h1.numeric_eval(z, 80) - h2.numeric_eval(z, 80)) \
            < mpmath.mpf(2) ** -60

    def test_euler_taylor_is_borel_of_euler_series(self):
        series_route = borel(euler_series(12))
        shape_route = euler_minor().taylor(11)
        assert series_route.taylor == shape_route.taylor

    def test_stirling_taylor_is_borel_of_stirling_series(self):
        series_route = borel(stirling_series(13))
        shape_route = stirling_minor().taylor(11)
        assert series_route.taylor[:12] == shape_route.taylor[:12]


# -- continuation -------------------------------------------------------------------


def _vmodel():
    """log(1 - zeta)/(zeta - 3): branch point 1, pole 3."""
    return LogPoleBF(RationalFunction.zero(),
                     [(1, RationalFunction.simple_pole(3, 1), 0)])


class TestContinuation:
    def test_frozen_lateral_values(self):
        lp = _vmodel()
        below = continue_eval(lp, PathSpec(2, signs=("+",)), prec=80)
        above = continue_eval(lp, PathSpec(2, signs=("-",)), prec=80)
        with mpmath.workprec(80):
            assert abs(below - (-mpmath.pi * 1j)) < mpmath.mpf(2) ** -70
            assert abs(above - (+mpmath.pi * 1j)) < mpmath.mpf(2) ** -70

    @pytest.mark.parametrize("sign,imag", [("+", -0.55), ("-", +0.55)])
    def test_lateral_against_path_integration(self, sign, imag):
        lp = _vmodel()
        got = continue_eval(lp, PathSpec(2, signs=(sign,)), prec=60)
        oracle = logpole_oracle(
            [(1, RationalFunction.simple_pole(3, 1))],
            None,
            [0.8 + imag * 1j, 1.6 + imag * 1j, 2.0],
        )
        assert abs(got - oracle) < mpmath.mpf(10) ** -9

    def test_two_branch_points_mixed_signs(self):
        # log(1 - zeta) + log(1 - 2 zeta/3), passed with opposite detours
        lp = LogPoleBF(
            RationalFunction.zero(),
            [(1, rat(1), 0), (Fraction(3, 2), rat(1), 0)],
        )
        got = continue_eval(lp, PathSpec(2, signs=("+", "-")), prec=60)
        oracle = logpole_oracle(
            [(1, rat(1)), (1.5, rat(1))],
            None,
            [0.7 - 0.4j, 1.25, 1.5 + 0.35j, 1.8, 2.0],
        )
        assert abs(got - oracle) < mpmath.mpf(10) ** -9

    def test_loop_against_path_integration(self):
        lp = LogPoleBF(RationalFunction.zero(), [(1, rat(1), 0)])
        # full counterclockwise loop around 1, then evaluate at 0.4
        looped = continue_along(
            lp, PathSpec(ExactScalar.from_rational(Fraction(2, 5)),
                         loops=((1, 1),))
        )
        got = looped.numeric_eval(mpmath.mpf("0.4"), 60)
        oracle = logpole_oracle(
            [(1, rat(1))],
            None,
            [0.4, 1 - 0.45j, 1.45, 1 + 0.45j, 0.55, 0.4],
        )
        assert abs(got - oracle) < mpmath.mpf(10) ** -9

    def test_sign_count_validation(self):
        lp = _vmodel()
        with pytest.raises(UnreachableBranchError):
            continue_along(lp, PathSpec(2))
        with pytest.raises(UnreachableBranchError):
            continue_along(lp, PathSpec(2, signs=("+", "-")))
        # target before the branch point: no signs needed
        g = continue_along(lp, PathSpec(Fraction(1, 2)))
        assert isinstance(g, LogPoleBF)

    def test_loop_at_regular_point_rejected(self):
        lp = _vmodel()
        with pytest.raises(UnreachableBranchError):
            continue_along(lp, PathSpec(2, signs=("+",), loops=((7, 1),)))

    def test_single_valued_model_is_its_own_continuation(self):
        model = pade_minor(euler_series(12))
        assert continue_along(model, PathSpec(1, loops=((2, 1),))) is model

    def test_points_between_is_exact(self):
        lp = _vmodel()
        pts = points_between(lp, 2)
        assert pts == [ONE]
        pts = points_between(lp, 4)
        assert pts == [ONE, ExactScalar.from_rational(3)]
        # off-ray target: nothing collinear
        assert points_between(lp, TAU) == []

    def test_meromorphic_paths_agree(self):
        s = stirling_minor()
        target = TAU * 2
        plus = continue_along(s, PathSpec(target, signs=("+",)))
        minus = continue_along(s, PathSpec(target, signs=("-",)))
        z = mpmath.mpc(0, 9)
        assert plus.numeric_eval(z, 80) == minus.numeric_eval(z, 80)


# -- extraction ---------------------------------------------------------------------


class TestExtraction:
    def test_euler_pole(self):
        data = extract_singularity(euler_minor(), -1)
        assert data.a0 == TAU
        assert data.chi is None
        assert data.chi_series.is_zero()

    def test_rational_regular_point(self):
        data = extract_singularity(euler_minor(), 5)
        assert data.a0.is_zero()

    def test_double_pole_not_simple(self):
        f = RationalBF(rat(1, poles={Fraction(1, 2): 2}))
        with pytest.raises(NotSimpleError):
            extract_singularity(f, Fraction(1, 2))

    def test_stirling_lattice_residues(self):
        s = stirling_minor()
        for k in (1, 2, 3):
            data = extract_singularity(s, TAU * k, signs=("+",) * (k - 1))
            assert data.a0 == ExactScalar.from_rational(Fraction(1, k))
            data = extract_singularity(s, TAU * (-k), signs=("-",) * (k - 1))
            assert data.a0 == ExactScalar.from_rational(Fraction(-1, k))

    def test_far_log_branch_dependent_weight(self):
        lp = _vmodel()
        plus = extract_singularity(lp, 3, signs=("+",))
        minus = extract_singularity(lp, 3, signs=("-",))
        ln2 = ExactScalar.log_rational(2)
        assert plus.a0 == TAU * (ln2 + IPI)
        assert minus.a0 == TAU * (ln2 - IPI)
        assert plus.chi is None

    def test_log_point_chi(self):
        lp = _vmodel()
        data = extract_singularity(lp, 1)
        assert data.a0.is_zero()
        # chi(xi) = tau / (xi - 2)
        expect = [TAU * Fraction(-1, 2), TAU * Fraction(-1, 4),
                  TAU * Fraction(-1, 8)]
        assert data.chi_series.taylor[:3] == expect

    def test_chi_constant_against_value_differences(self):
        # before the branch point no continuation happens, so the principal
        # formula is an independent route: f(1-x) - f(1-x/e) -> chi(0)/tau
        lp = _vmodel()
        with mpmath.workdps(40):
            x = mpmath.mpf("0.0005")
            def f(z):
                return mpmath.log(1 - z) / (z - 3)
            diff = f(1 - x) - f(1 - x / mpmath.e)
            data = extract_singularity(lp, 1)
            chi0 = data.chi_series.taylor[0].evaluate(120) / TAU.evaluate(120)
            assert abs(diff - chi0) < mpmath.mpf("0.002")

    def test_pole_and_log_mixed(self):
        # 5/(zeta-2) + 4 log(1 - zeta/2): pole and branch point coincide
        lp = LogPoleBF(RationalFunction.simple_pole(2, 5), [(2, rat(4), 0)])
        data = extract_singularity(lp, 2)
        assert data.a0 == TAU * 5
        assert data.chi_series.taylor[0] == TAU * 4

    def test_log_coefficient_pole_at_point_not_simple(self):
        # log(1 - zeta) scaled by a pole at 1 itself
        lp = LogPoleBF(RationalFunction.zero(),
                       [(1, RationalFunction.simple_pole(1, 1), 0)])
        with pytest.raises(NotSimpleError):
            extract_singularity(lp, 1)

    def test_log_shape_double_pole_reports_its_order(self):
        lp = LogPoleBF(rat(1, poles={2: 2}), [(3, rat(1), 0)])
        with pytest.raises(NotSimpleError, match="pole of order 2 at") as info:
            extract_singularity(lp, 2)
        assert info.value.details["order"] == 2

    def test_shape_without_exact_rules_is_unsupported(self):
        p = power_minor(Fraction(1, 2))
        with pytest.raises(NotImplementedError, match="PowerBF"):
            extract_singularity(p, 1)
        with pytest.raises(NotImplementedError, match="PowerBF"):
            p.taylor(3)
        with pytest.raises(NotImplementedError, match="PowerBF"):
            p.divide_linear(1)

    def test_extraction_linearity_over_signs(self):
        # difference of lateral branch values is tau times the k-step
        lp = _vmodel()
        plus = extract_singularity(lp, 3, signs=("+",))
        minus = extract_singularity(lp, 3, signs=("-",))
        assert plus.a0 - minus.a0 == TAU * TAU


# -- bundled minors ---------------------------------------------------------------------


class TestDilog:
    def test_taylor(self):
        d = dilog_minor()
        t = d.taylor(5)
        assert t.taylor[3] == ExactScalar.from_rational(Fraction(1, 9))

    def test_loop_monodromy_against_path_integration(self):
        d = dilog_minor()
        looped = continue_along(d, PathSpec(ONE, loops=((1, 1),)))
        got = looped.numeric_eval(mpmath.mpf("0.5"), 60)

        # coupled system: y0 = Log(1 - zeta), y1 = dilog, literally continued
        def derivs(z, y):
            return [1 / (z - 1), -y[0] / z]

        with mpmath.workdps(35):
            z0 = mpmath.mpf("0.05")
            y0 = [mpmath.log(1 - z0), mpmath.polylog(2, z0)]
            oracle = rk_path(
                derivs, y0,
                [0.5, 1 - 0.45j, 1.45, 1 + 0.45j, 0.55, 0.5],
                start=z0,
            )[1]
        assert abs(got - oracle) < mpmath.mpf(10) ** -9

    def test_clockwise_loop_inverts(self):
        d = dilog_minor()
        looped = continue_along(
            d, PathSpec(ONE, loops=((1, 1), (1, -1))))
        assert looped.n == 0

    def test_extraction_at_one(self):
        data = extract_singularity(dilog_minor(), 1)
        assert data.a0.is_zero()
        # chi = -tau log(1 + xi) = -tau (xi - xi^2/2 + xi^3/3 - ...)
        expect = [ExactScalar(), -TAU, TAU * Fraction(1, 2),
                  -TAU * Fraction(1, 3)]
        assert data.chi_series.taylor[:4] == expect

    def test_secondary_branch_point_after_loop(self):
        d = dilog_minor()
        looped = continue_along(d, PathSpec(ONE, loops=((1, 2),)))
        data = extract_singularity(looped, 0)
        assert data.chi_series.taylor[0] == TAU * TAU * (-2)


class TestStirlingShape:
    def test_evaluation_routes_agree(self):
        # the Taylor route (|zeta| < 1/2) and the closed form must describe
        # the same analytic function; compare the inner route against the
        # closed form computed here at much higher working precision
        s = stirling_minor()
        with mpmath.workdps(60):
            z = mpmath.mpf("0.375")
            inner = s.numeric_eval(z, 160)
            closed = (z / 2 * mpmath.coth(z / 2) - 1) / z**2
            assert abs(inner - closed) < mpmath.mpf(10) ** -40

    def test_even_function(self):
        s = stirling_minor()
        z = mpmath.mpc("0.3", "0.2")
        assert abs(s.numeric_eval(z, 80) - s.numeric_eval(-z, 80)) \
            < mpmath.mpf(2) ** -70

    def test_taylor_coefficients_exact(self):
        # coefficient of zeta^2 is B_4/4! = -1/720
        t = stirling_minor().taylor(4)
        assert t.taylor[2] == ExactScalar.from_rational(Fraction(-1, 720))
        assert t.taylor[1].is_zero()
        assert t.taylor[0] == ExactScalar.from_rational(Fraction(1, 12))


class TestPowerShape:
    def test_polar_evaluation_tracks_argument(self):
        p = power_minor(Fraction(1, 2))
        with mpmath.workdps(30):
            v0 = p.eval_polar(mpmath.mpf("0.7"), 0, 100)
            v2 = p.eval_polar(mpmath.mpf("0.7"), 2 * mpmath.pi, 100)
            # one full turn multiplies zeta^(sigma-1) by e^(2 pi i (sigma-1))
            phase = mpmath.exp(2j * mpmath.pi * (mpmath.mpf("0.5") - 1))
            assert abs(v2 - v0 * phase) < mpmath.mpf(10) ** -25

    def test_integer_sigma_rejected(self):
        with pytest.raises(ValueError):
            power_minor(2)

    def test_g_derivative_matches_difference_quotient(self):
        p = power_minor(Fraction(1, 3), with_log=True)
        with mpmath.workdps(40):
            h = mpmath.mpf(10) ** -12
            g = lambda s: mpmath.exp(1j * mpmath.pi * s) \
                * mpmath.gamma(1 - s) / (2j * mpmath.pi)
            s0 = mpmath.mpf(1) / 3
            numeric = (g(s0 + h) - g(s0 - h)) / (2 * h)
            assert abs(p.g_prime_value(130) - numeric) < mpmath.mpf(10) ** -11
