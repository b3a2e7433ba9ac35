"""Tests for Laplace summation along rays, lateral jumps, and Hankel contours.

Oracles, written before the tests and independent of the quadrature engine:

* Exponential integral.  The ray sum of the geometric-pole shape
  1/(1+zeta) at angle 0 equals e^z E_1(z) for Re z > 0.  The oracle
  computes E_1 through its continued fraction

      E_1(z) = e^(-z) / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...))))

  by backward recurrence (the partial numerators are -n^2), which uses no
  integration at all.  It is cross-checked against mpmath's own e1 to
  twenty digits before use.

* Factorial correction.  The ray sum of the lattice-pole shape at angle 0
  and z = 10 must reproduce the correction term of the factorial formula:

      log(9!) - 9.5 log 10 + 10 - log(2 pi)/2,

  an identity between exact constants evaluated at high precision.

* Lateral jump.  Collapsing the two lateral rays of the geometric-pole
  shape onto the singular direction pi leaves the residue contribution

      jump = 2 pi i * e^z   (pole at -1, counterclockwise),

  so at z = -3 the modulus is 2 pi e^-3.  The same number must come out
  of the alien bridge: the "+" lateral operator at -1 produces the exact
  constant 2 pi i, weighted by e^(-omega z) = e^-3.  For the lattice
  shape at direction pi/2 the residues 1/(2 pi i k) give the telescoped
  jump sum over k of e^(-2 pi i k z)/k, whose one-term truncation error
  is bounded by the k = 2 term.

* Hankel contours.  For a0/(2 pi i zeta) the two rays cancel and the
  circle integral is a0 by the residue theorem.  For the power kernels,
  collapsing the contour onto the positive axis gives

      (1 - e^(-2 pi i sigma)) Gamma(sigma) g(sigma) z^-sigma = z^-sigma,

  by the reflection formula, and differentiating in sigma gives
  -z^-sigma log z for the log variant.

* Gevrey envelope.  The geometric-pole expansion has coefficients
  (-1)^(n-1) (n-1)!, alternating for z > 0, so the remainder after the
  z^-n term is bounded by the first omitted term n! z^-(n+1).  The
  rescaled remainders sup |z|^(n+1) |S - P_n| must therefore sit below
  n! with any margin factor above one.
"""

import math
from fractions import Fraction

import mpmath
import pytest

from resurgence.alien import alien_plus, euler_resurgent, stirling_resurgent
from resurgence.borelfun import (
    DilogBF,
    LogPoleBF,
    RationalBF,
    RationalFunction,
    dilog_minor,
    euler_minor,
    power_minor,
    stirling_minor,
)
from resurgence.errors import (MIN_PREC, DecayMarginError, PoleInclusionError,
                               RayBlockedError)
from resurgence.laplace import (
    AsymptoticsReport,
    LateralPair,
    PadeApproximant,
    RaySpec,
    hankel_laplace,
    lateral_jump,
    laplace_ray,
    pade_minor,
    verify_asymptotics,
)
from resurgence.scalars import ExactScalar
from resurgence.series import FormalSeries, euler_series, stirling_series


def exp_integral(z, prec=120, depth=360):
    """E_1(z) for Re z > 0, without any quadrature.

    Small |z| uses the entire-series form -gamma - log z + sum over k of
    (-z)^k (-1)/(k k!); larger |z| uses the continued fraction by backward
    recurrence (partial numerators -n^2).
    """
    with mpmath.workprec(prec + 32):
        zv = mpmath.mpmathify(z)
        if abs(zv) <= 4:
            total = -mpmath.euler - mpmath.log(zv)
            term = mpmath.mpf(1)
            for k in range(1, prec + 64):
                term = term * (-zv) / k
                total -= term / k
            out = total
        else:
            tail = mpmath.mpf(0)
            for n in range(depth, 0, -1):
                tail = n * n / (zv + 2 * n + 1 - tail)
            out = mpmath.exp(-zv) / (zv + 1 - tail)
    with mpmath.workprec(prec):
        return +out


def stirling_correction_target(prec=120):
    """log(9!) - 9.5 log 10 + 10 - log(2 pi)/2 at high precision."""
    with mpmath.workprec(prec):
        return (mpmath.log(mpmath.mpf(362880))
                - mpmath.mpf("9.5") * mpmath.log(10)
                + 10 - mpmath.log(2 * mpmath.pi) / 2)


class TestOracles:
    def test_continued_fraction_matches_reference(self):
        with mpmath.workprec(140):
            for z in (mpmath.mpf(2), mpmath.mpf("0.7"), mpmath.mpc(3, 1),
                      mpmath.mpf(15)):
                assert abs(exp_integral(z) - mpmath.e1(z)) < mpmath.mpf(10) ** -20

    def test_continued_fraction_depth_converged(self):
        a = exp_integral(2, depth=80)
        b = exp_integral(2, depth=96)
        assert abs(a - b) < mpmath.mpf(10) ** -30


class TestRaySpec:
    def test_precision_follows_target(self):
        assert RaySpec(0, 2, target_error=1e-12).working_prec() >= 53 + 18
        assert RaySpec(0, 2, target_error=1e-30).working_prec() >= 131

    def test_explicit_precision_wins(self):
        assert RaySpec(0, 2, prec=200).working_prec() == 200

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            RaySpec(0, 2, max_nodes=10)
        with pytest.raises(ValueError):
            RaySpec(0, 2, target_error=0.0)

    def test_precision_below_floor_refused(self):
        """An explicit precision below MIN_PREC is refused, not raised to
        the floor; a target-driven precision still starts at the floor."""
        assert RaySpec(0, 2, target_error=1e-3).working_prec() == MIN_PREC
        assert RaySpec(0, 2, prec=MIN_PREC).working_prec() == MIN_PREC
        with pytest.raises(ValueError, match="below the floor"):
            laplace_ray(euler_minor(), 0, RaySpec(0, 2, prec=40))
        with pytest.raises(ValueError, match="below the floor"):
            lateral_jump(euler_minor(), 0, mpmath.pi, "0.2", -3, prec=40)
        with pytest.raises(ValueError, match="below the floor"):
            hankel_laplace(power_minor("1/2"), 0, 2, prec=40)


class TestLaplaceRay:
    def test_geometric_pole_matches_exponential_integral(self):
        res = laplace_ray(euler_minor(), 0, RaySpec(0, 2))
        with mpmath.workprec(120):
            exact = mpmath.exp(2) * exp_integral(2)
            assert abs(res.value - exact) <= res.error_estimate
            assert abs(res.value - exact) < 1e-12
        assert float(res.error_estimate) < 1e-12

    @pytest.mark.parametrize("z,theta", [
        (mpmath.mpf("1.5"), 0),
        (mpmath.mpf(7), mpmath.mpf("0.3")),
        (mpmath.mpc(3, 1), 0),
        (mpmath.mpc(2, -1), mpmath.mpf("-0.25")),
    ])
    def test_geometric_pole_off_axis(self, z, theta):
        res = laplace_ray(euler_minor(), 0, RaySpec(theta, z))
        with mpmath.workprec(120):
            exact = mpmath.exp(z) * exp_integral(z)
        assert abs(res.value - exact) <= res.error_estimate + mpmath.mpf(10) ** -20

    def test_factorial_correction_at_ten(self):
        res = laplace_ray(stirling_minor(), 0, RaySpec(0, 10))
        target = stirling_correction_target()
        assert abs(res.value - target) < 1e-9
        assert abs(res.value - target) <= res.error_estimate

    def test_zero_shape_returns_constant(self):
        shape = RationalBF(RationalFunction.zero())
        res = laplace_ray(shape, ExactScalar.from_rational(Fraction(5, 2)),
                          RaySpec(0, 2))
        assert abs(res.value - mpmath.mpf(5) / 2) <= res.error_estimate
        assert float(res.error_estimate) < 1e-15

    def test_removable_pole_on_the_ray_is_never_sampled(self):
        """(zeta - 1) / (zeta - 1) is the constant 1, whose sum at z = 2 is
        1/2; its declared pole at 1 lies on the ray and cancels."""
        shape = RationalBF(RationalFunction([-1, 1], poles={1: 1}))
        res = laplace_ray(shape, 0, RaySpec(0, 2))
        assert res.certified
        assert abs(res.value - mpmath.mpf(1) / 2) <= res.error_estimate

    def test_removable_pole_sums_as_the_reduced_function(self):
        """(zeta - 1) / ((zeta - 1)(zeta + 3)) sums as 1/(zeta + 3), bit
        for bit, on 90 nodes: its removable pole bounds nothing."""
        spec = RaySpec("0.3", 2)
        got = laplace_ray(RationalBF(RationalFunction(
            [-1, 1], poles={1: 1, -3: 1})), 0, spec)
        want = laplace_ray(RationalBF(RationalFunction.simple_pole(-3)), 0,
                           spec)
        assert (got.value, got.error_estimate, got.nodes_used) \
            == (want.value, want.error_estimate, 90)
        assert got.certified

    def test_power_kernel_endpoint_singularity(self):
        res = laplace_ray(power_minor("1/2"), 0, RaySpec(0, 2))
        with mpmath.workprec(120):
            exact = mpmath.mpf(2) ** (-mpmath.mpf(1) / 2) / 2
        assert abs(res.value - exact) <= res.error_estimate
        assert abs(res.value - exact) < 1e-10

    @pytest.mark.parametrize("z", [2, 5, 10])
    def test_differential_equation_bridge(self, z):
        value = laplace_ray(euler_minor(), 0, RaySpec(0, z))
        slope = laplace_ray(euler_minor(), 0, RaySpec(0, z), moment=1)
        with mpmath.workprec(120):
            residual = abs(-slope.value + value.value - mpmath.mpf(1) / z)
            assert residual < 1e-8
            assert residual <= 2 * (value.error_estimate + slope.error_estimate)

    def test_ray_gluing(self):
        a = laplace_ray(euler_minor(), 0, RaySpec(0, 3))
        b = laplace_ray(euler_minor(), 0, RaySpec("0.4", 3))
        c = laplace_ray(euler_minor(), 0, RaySpec("-0.3", 3))
        assert abs(a.value - b.value) <= 2 * (a.error_estimate + b.error_estimate)
        assert abs(a.value - c.value) <= 2 * (a.error_estimate + c.error_estimate)

    def test_dilog_ray_matches_direct_quadrature(self):
        res = laplace_ray(dilog_minor(), 0,
                          RaySpec(float(mpmath.pi), -4, target_error=1e-12))
        with mpmath.workprec(200):
            oracle = -mpmath.quad(
                lambda t: mpmath.exp(-4 * t) * mpmath.polylog(2, -t),
                [0, 1, 2, 4, 8, 16, 32, 64])
            diff = abs(res.value - oracle)
            assert diff < 1e-11
            assert diff <= 2 * res.error_estimate
        assert res.certified

    def test_deterministic(self):
        a = laplace_ray(euler_minor(), 0, RaySpec(0, 2))
        b = laplace_ray(euler_minor(), 0, RaySpec(0, 2))
        assert a.value == b.value
        assert a.nodes_used == b.nodes_used

    def test_diagnostics_fields(self):
        res = laplace_ray(euler_minor(), 0, RaySpec(0, 2))
        for key in ("margin", "truncation", "tail_bound", "quadrature_error",
                    "segments", "method"):
            assert key in res.diagnostics
        assert res.certified
        assert res.diagnostics["margin"] == pytest.approx(2.0)
        assert res.nodes_used > 0

    def test_negative_margin_rejected(self):
        with pytest.raises(DecayMarginError) as info:
            laplace_ray(euler_minor(), 0, RaySpec(0, -3))
        assert info.value.details["margin"] == pytest.approx(-3.0)

    def test_purely_oscillatory_margin_rejected(self):
        with pytest.raises(DecayMarginError):
            laplace_ray(euler_minor(), 0, RaySpec(0, mpmath.mpc(0, 5)))

    def test_non_integrable_power_rejected(self):
        with pytest.raises(DecayMarginError):
            laplace_ray(power_minor("-1/2"), 0, RaySpec(0, 2))

    def test_margin_at_rounding_level_rejected(self):
        # cos(-pi/2) in floats leaves a margin of 2e-16: the kernel would
        # turn about 1e17 times before the truncation point, far more than
        # any node budget resolves, so the rule's error estimate would not
        # bound its error
        theta = -math.pi / 2
        with pytest.raises(DecayMarginError) as info:
            laplace_ray(power_minor("1/2"), 0,
                        RaySpec(theta, 4, target_error=1e-6))
        assert info.value.details["turns"] > 4000
        with pytest.raises(DecayMarginError):
            hankel_laplace(power_minor("1/2"), theta, 2)

    def test_blocked_ray_names_nearest_singularity(self):
        with pytest.raises(RayBlockedError) as info:
            laplace_ray(euler_minor(), 0, RaySpec(mpmath.pi, -3))
        assert "-1" in info.value.details["nearest"]

    def test_blocked_vertical_ray_on_lattice(self):
        with pytest.raises(RayBlockedError) as info:
            laplace_ray(stirling_minor(), 0,
                        RaySpec(mpmath.pi / 2, mpmath.mpc(0, -5)))
        assert "6.28" in info.value.details["nearest"]

    def test_complex_angle_rejected(self):
        with pytest.raises(TypeError):
            laplace_ray(euler_minor(), 0, RaySpec(mpmath.mpc(0, 1), 2))

    def test_negative_moment_rejected(self):
        with pytest.raises(ValueError):
            laplace_ray(euler_minor(), 0, RaySpec(0, 2), moment=-1)

    @pytest.mark.parametrize("n,m", [(1, 0), (1, 1), (-1, 0)])
    def test_looped_dilog_refused_before_sampling(self, monkeypatch, n, m):
        # after a loop at 1 the minor carries -n 2 pi i log(zeta), which is
        # infinite at the endpoint t = 0 of the first panel
        def no_sampling(self, prec=53):
            raise AssertionError("the refused shape was sampled")

        monkeypatch.setattr(DilogBF, "numeric_evaluator", no_sampling)
        with pytest.raises(NotImplementedError,
                           match="log singularity at the origin"):
            laplace_ray(DilogBF(n, m), 0,
                        RaySpec("-0.5", 3, target_error=1e-6))


class TestLateralJump:
    def test_geometric_pole_jump_modulus(self):
        pair = lateral_jump(euler_minor(), 0, mpmath.pi, "0.2", -3)
        with mpmath.workprec(120):
            modulus = 2 * mpmath.pi * mpmath.exp(-3)
        assert abs(abs(pair.jump) - modulus) < 1e-7
        assert abs(abs(pair.jump) - modulus) <= pair.error_estimate

    def test_geometric_pole_jump_phase(self):
        pair = lateral_jump(euler_minor(), 0, mpmath.pi, "0.2", -3)
        with mpmath.workprec(120):
            predicted = 2 * mpmath.pi * mpmath.mpc(0, 1) * mpmath.exp(-3)
        assert abs(pair.jump - predicted) < 1e-7
        assert pair.jump.imag > 0

    def test_jump_matches_alien_bridge(self):
        # the "+" lateral operator at omega = -1 yields the exact constant
        # 2 pi i; the bridge weight is e^(-omega z) = e^z at z = -3
        lateral = alien_plus(euler_resurgent(), -1)
        stokes_constant = lateral.constant_term
        assert stokes_constant == ExactScalar.tau()
        pair = lateral_jump(euler_minor(), 0, mpmath.pi, "0.2", -3)
        with mpmath.workprec(120):
            bridge = mpmath.exp(-3) * stokes_constant.evaluate(120)
        assert abs(pair.jump - bridge) <= pair.error_estimate + mpmath.mpf(10) ** -20

    def test_clear_sector_jump_vanishes(self):
        pair = lateral_jump(euler_minor(), 0, 0, "0.4", 3)
        assert abs(pair.jump) <= 2 * pair.error_estimate

    def test_lattice_jump_one_term_dominance(self):
        z = mpmath.mpc(5, -5)
        pair = lateral_jump(stirling_minor(), 0, mpmath.pi / 2, "0.3", z,
                            target_error=1e-22, prec=105)
        lateral = alien_plus(stirling_resurgent(), ExactScalar.tau())
        assert lateral.constant_term == ExactScalar.coerce(1)
        with mpmath.workprec(160):
            tau_i = 2 * mpmath.pi * mpmath.mpc(0, 1)
            leading = mpmath.exp(-tau_i * z)
            second = mpmath.exp(-2 * tau_i * z) / 2
            # the jump is exponentially small yet resolved far beyond it
            assert abs(leading) < 1e-13
            assert float(pair.error_estimate) < 1e-18
            assert abs(pair.jump - leading) <= abs(second) + pair.error_estimate
            assert abs(second) < mpmath.mpf(10) ** -27

    def test_lateral_pair_unpacks(self):
        pair = lateral_jump(euler_minor(), 0, 0, "0.4", 3)
        plus, minus, jump = pair
        assert plus is pair.plus
        assert minus is pair.minus
        assert jump == pair.jump

    @pytest.mark.parametrize("delta", [0, -0.1, 2.0])
    def test_opening_angle_validation(self, delta):
        with pytest.raises(ValueError):
            lateral_jump(euler_minor(), 0, mpmath.pi, delta, -3)


class TestHankelLaplace:
    def test_pure_pole_gives_its_coefficient(self):
        shape = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))
        res = hankel_laplace(shape, 0, 3)
        assert abs(res.value - 1) < 1e-8
        assert abs(res.value - 1) <= res.error_estimate + mpmath.mpf(10) ** -15

    def test_pure_pole_any_direction(self):
        shape = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))
        res = hankel_laplace(shape, "0.7", mpmath.mpc(2, 1))
        assert abs(res.value - 1) < 1e-8

    def test_power_kernel_gives_inverse_root(self):
        res = hankel_laplace(power_minor("1/2"), 0, 2)
        with mpmath.workprec(120):
            exact = mpmath.mpf(2) ** (-mpmath.mpf(1) / 2)
        assert abs(res.value - exact) < 1e-8
        assert abs(res.value - exact) <= res.error_estimate

    def test_power_kernel_rotated_contour(self):
        res = hankel_laplace(power_minor("1/2"), "0.3", 2)
        with mpmath.workprec(120):
            exact = mpmath.mpf(2) ** (-mpmath.mpf(1) / 2)
        assert abs(res.value - exact) < 1e-8

    def test_log_power_kernel(self):
        res = hankel_laplace(power_minor("1/2", with_log=True), 0, 2)
        with mpmath.workprec(120):
            exact = -mpmath.mpf(2) ** (-mpmath.mpf(1) / 2) * mpmath.log(2)
        assert abs(res.value - exact) < 1e-6
        assert abs(res.value - exact) <= res.error_estimate

    def test_regular_single_valued_shape_vanishes(self):
        res = hankel_laplace(stirling_minor(), 0, 4)
        assert abs(res.value) <= res.error_estimate + mpmath.mpf(10) ** -12

    def test_multivalued_shape_without_polar_eval_rejected(self):
        shape = LogPoleBF(RationalFunction.zero(),
                          [(1, RationalFunction.constant(1))])
        with pytest.raises(NotImplementedError):
            hankel_laplace(shape, 0, 3)

    def test_negative_margin_rejected(self):
        with pytest.raises(DecayMarginError):
            hankel_laplace(power_minor("1/2"), 0, -2)

    def test_diagnostics_record_radius(self):
        shape = RationalBF(RationalFunction.simple_pole(0, ExactScalar.tau(-1)))
        res = hankel_laplace(shape, 0, 3)
        assert res.diagnostics["radius"] == pytest.approx(0.25)
        lattice = hankel_laplace(stirling_minor(), 0, 4)
        assert lattice.diagnostics["radius"] == pytest.approx(math.pi / 2)


class TestVerifyAsymptotics:
    def test_alternating_remainder_envelope(self):
        report = verify_asymptotics(euler_minor(), 0, euler_series(12), 0,
                                    [5, 10, 20], orders=range(9))
        assert isinstance(report, AsymptoticsReport)
        assert report.satisfies_envelope("1.25", 1)
        for n, sup, slack in zip(report.orders, report.sups, report.sup_errors):
            assert sup <= mpmath.mpf("1.25") * mpmath.factorial(n) + slack

    def test_order_zero_measures_distance_to_constant(self):
        report = verify_asymptotics(euler_minor(), 0, euler_series(12), 0,
                                    [5, 10], orders=[0])
        direct = max(
            abs(z) * abs(laplace_ray(euler_minor(), 0,
                                     RaySpec(0, z, target_error=1e-24)).value)
            for z in (5, 10)
        )
        assert abs(report.sups[0] - direct) < 1e-12

    def test_rows_expose_gevrey_ratios(self):
        report = verify_asymptotics(euler_minor(), 0, euler_series(12), 0,
                                    [10], orders=range(5))
        rows = report.rows()
        assert [r["order"] for r in rows] == [0, 1, 2, 3, 4]
        for row in rows:
            assert row["gevrey_ratio"] == pytest.approx(
                row["sup"] / math.factorial(row["order"]))

    def test_lattice_shape_report_is_finite(self):
        report = verify_asymptotics(stirling_minor(), 0, stirling_series(8), 0,
                                    [8, 12], orders=range(5),
                                    target_error=1e-20)
        assert all(mpmath.isfinite(s) for s in report.sups)
        # the lattice expansion is 1-Gevrey with rate 1/(2 pi); a generous
        # envelope above that rate must hold
        assert report.satisfies_envelope(1, "0.5")

    def test_constant_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_asymptotics(euler_minor(), 1, euler_series(6), 0, [5])

    def test_order_beyond_series_rejected(self):
        with pytest.raises(ValueError):
            verify_asymptotics(euler_minor(), 0, euler_series(4), 0, [5],
                               orders=[6])


class TestPadeMinor:
    def test_geometric_series_collapses_to_exact_pole(self):
        model = pade_minor(euler_series(12))
        poles = model.poles_numeric(60)
        assert len(poles) == 1
        assert abs(poles[0] + 1) < 1e-10
        assert abs(model.numeric_eval("0.3", 60)
                   - 1 / mpmath.mpf("1.3")) < 1e-14

    def test_summation_through_model(self):
        model = pade_minor(euler_series(12))
        res = laplace_ray(model, 0, RaySpec(0, 2, target_error=1e-10))
        exact = mpmath.exp(2) * exp_integral(2)
        assert abs(res.value - exact) < 1e-8
        assert not res.certified

    def test_lattice_series_finds_first_pole_pair(self):
        model = pade_minor(stirling_series(16))
        poles = sorted(model.poles_numeric(60), key=lambda p: abs(p))
        tau = 2 * mpmath.pi
        assert abs(abs(poles[0]) - tau) / tau < 0.02
        assert abs(abs(poles[1]) - tau) / tau < 0.02

    @pytest.mark.parametrize("prec", [53, 113])
    def test_each_root_lies_in_its_disk_alone(self, prec):
        """The Braess-Hadeler disks of the computed roots hold one root
        each of the denominator, found again 256 bits finer."""
        model = pade_minor(stirling_series(16))
        disks = model._factors(prec).poles
        with mpmath.workprec(prec + 256):
            exact = mpmath.polyroots(list(reversed(model.den)),
                                     maxsteps=200, extraprec=256)
            for r, m, radius in disks:
                inside = [e for e in exact if abs(e - r) <= radius]
                assert (m, len(inside)) == (1, 1)
                assert radius < abs(r) * mpmath.ldexp(1, 8 - prec)
        assert len(disks) == len(exact) == len(model.den) - 1

    def test_roots_that_do_not_converge_are_refused(self, monkeypatch):
        def stuck(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("no convergence")

        monkeypatch.setattr(mpmath, "polyroots", stuck)
        model = pade_minor(stirling_series(16))
        with pytest.raises(PoleInclusionError) as refusal:
            laplace_ray(model, 0, RaySpec(0, 2, target_error=1e-10))
        assert refusal.value.payload()["error"] == "pole-inclusion"
        assert refusal.value.details == {"degree": 6}
        with pytest.raises(PoleInclusionError, match="did not converge"):
            model.poles_numeric(60)

    def test_meeting_disks_are_refused(self):
        # 1 / (1 + zeta)^2: the two computed roots of a double root are too
        # close for either disk to hold one root alone
        model = PadeApproximant([1], [1, 2, 1])
        with pytest.raises(PoleInclusionError, match="meet"):
            laplace_ray(model, 0, RaySpec(0, 2, target_error=1e-10))

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            PadeApproximant([1], [0, 0])

    def test_insufficient_coefficients_rejected(self):
        with pytest.raises(ValueError):
            pade_minor(euler_series(4), degree=4)

    def test_repr_names_the_fit(self):
        assert "PadeApproximant" in repr(pade_minor(euler_series(12)))
