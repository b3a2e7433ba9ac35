"""Tests for alien operators: weights, anchors, derivation structure, Stokes.

The two classical anchors are frozen from independent derivations:

* the Euler-type series with minor 1/(1 + zeta) has a simple pole at -1
  with residue 1, so the pointed operator there is the constant 2*pi*i;
* the Stirling-type minor has simple poles at 2*pi*i*k with residue
  1/(2*pi*i*k), so the alien derivative at 2*pi*i*r is exactly 1/r, and
  because the minor is meromorphic every lateral path gives the same
  answer (the weights then sum to 1 and drop out).

The derivation property is tested through an honest convolution: the
product of the Euler-type function with a series whose minor is a
polynomial has a computable log-pole minor, and the alien derivative of
the product must equal (Delta phi) * psi to every order.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from resurgence.alien import (
    alien_derivation,
    alien_exp,
    ResurgentSeries,
    Transseries,
    apply_stokes,
    alien_minus,
    lateral_operator,
    alien_plus,
    euler_resurgent,
    lateral_data,
    path_weights,
    stirling_resurgent,
    stokes_power,
    z_derivative,
    _add_minors,
)
from resurgence.borelfun import (
    LogPoleBF,
    RationalBF,
    RationalFunction,
    convolve,
    euler_minor,
)
from resurgence.laplace import pade_minor
from resurgence.scalars import ExactScalar
from resurgence.series import (FormalSeries, euler_series, inverse_borel,
                               predict_coefficients)

TAU = ExactScalar.tau()
ONE = ExactScalar.from_rational(1)


def rat(x):
    return ExactScalar.from_rational(x)


class TestPathWeights:
    def test_counts(self):
        for r in range(1, 7):
            assert len(path_weights(r)) == 2 ** (r - 1)

    @given(st.integers(min_value=1, max_value=9))
    def test_weights_sum_to_one(self, r):
        assert sum(path_weights(r).values()) == 1

    def test_frozen_values_r4(self):
        w = path_weights(4)
        assert w[("+", "+", "+")] == Fraction(1, 4)
        assert w[("-", "-", "-")] == Fraction(1, 4)
        assert w[("+", "-", "+")] == Fraction(1, 12)
        assert w[("+", "+", "-")] == Fraction(1, 12)

    def test_depth_one_weight(self):
        assert path_weights(1) == {(): Fraction(1)}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_weights(0)


class TestStirlingDelta:
    def test_lattice_values(self):
        st_fn = stirling_resurgent(order=6)
        for r in (1, 2, 3):
            d = alien_derivation(st_fn, TAU * r)
            assert d.series == FormalSeries.constant(ONE / rat(r), 6)

    def test_all_paths_agree(self):
        # the minor is meromorphic, so every sign word yields the same data
        st_fn = stirling_resurgent(order=4)
        target = TAU * 3
        values = set()
        for signs in path_weights(3):
            data = lateral_data(st_fn, target, signs)
            values.add(str(data.a0))
            assert data.chi is None
        assert len(values) == 1

    def test_delta_equals_lateral(self):
        st_fn = stirling_resurgent(order=4)
        target = TAU * 2
        assert alien_derivation(st_fn, target).series == alien_plus(st_fn, target).series
        assert alien_derivation(st_fn, target).series == alien_minus(st_fn, target).series

    def test_off_lattice_vanishes(self):
        st_fn = stirling_resurgent(order=4)
        assert alien_derivation(st_fn, 3).series.is_zero()


class TestEulerDelta:
    def test_pointed_value(self):
        eu = euler_resurgent(order=8)
        d = alien_plus(eu, -1)
        assert d.series == FormalSeries.constant(TAU, 8)

    def test_single_path_sees_no_average(self):
        eu = euler_resurgent(order=6)
        assert alien_derivation(eu, -1).series == alien_plus(eu, -1).series

    def test_regular_points_vanish(self):
        eu = euler_resurgent(order=4)
        assert alien_derivation(eu, -2).series.is_zero()
        assert alien_derivation(eu, 1).series.is_zero()

    def test_prediction_bridge(self):
        # feed the extracted polar weight straight into the coefficient
        # growth predictor and recover the actual coefficients exactly
        eu = euler_resurgent(order=20)
        data = lateral_data(eu, -1, signs=())
        n_values = list(range(4, 13))
        predicted = predict_coefficients(
            [(rat(-1), data.a0)], n_values
        )
        for n, p in zip(n_values, predicted):
            assert p == eu.series[n + 1]


class TestDerivationStructure:
    def test_commutator_euler(self):
        # d/dz (Delta phi) - Delta (d/dz phi) = omega * Delta phi
        eu = euler_resurgent(order=6)
        lhs = z_derivative(alien_derivation(eu, -1)).series - alien_derivation(z_derivative(eu), -1).series
        rhs = alien_derivation(eu, -1).series.scale(-1)
        assert lhs.agrees_with(rhs)

    def test_commutator_rational_example(self):
        minor = RationalBF(
            RationalFunction([ONE], poles={rat(2): 1, rat(5): 1})
        )
        phi = ResurgentSeries(
            inverse_borel(minor.taylor(6)), minor
        )
        lhs = z_derivative(alien_derivation(phi, 2)).series - alien_derivation(z_derivative(phi), 2).series
        rhs = alien_derivation(phi, 2).series.scale(2)
        assert lhs.agrees_with(rhs)

    def test_z_derivative_layers_agree(self):
        # differentiating the series matches multiplying the minor by -zeta
        eu = euler_resurgent(order=8)
        d = z_derivative(eu)
        recovered = inverse_borel(d.minor.taylor(8))
        assert recovered.agrees_with(d.series)

    def test_leibniz_through_convolution(self):
        # psi has constant part 1 and entire minor 2 + 3 zeta, so the
        # product's minor is euler_minor + euler_minor * (2 + 3 zeta),
        # computable in closed form; Delta(phi psi) must be (Delta phi) psi
        eu = euler_resurgent(order=6)
        psi_series = FormalSeries([1, 2, 3], order=6)
        q_poly = RationalBF(RationalFunction([rat(2), rat(3)]))
        prod_minor = _add_minors(euler_minor(), convolve(euler_minor(), q_poly))
        prod = ResurgentSeries(eu.series * psi_series, prod_minor)
        lhs = alien_derivation(prod, -1)
        rhs = alien_derivation(eu, -1).series * psi_series
        assert lhs.series.agrees_with(rhs)

    def test_leibniz_second_factor_contributes_zero(self):
        # the entire factor has no singularity at -1, so its term drops out
        q_poly = RationalBF(RationalFunction([rat(2), rat(3)]))
        psi = ResurgentSeries(FormalSeries([1, 2, 3], order=6), q_poly)
        assert alien_derivation(psi, -1).series.is_zero()


class TestIteratedOperators:
    def _depth_two_minor(self):
        # log(1 - zeta) / (zeta - 3): branch point at 1, the log
        # coefficient has its own pole at 3
        return LogPoleBF(
            RationalFunction.zero(),
            [(ONE, RationalFunction([ONE], poles={rat(3): 1}), 0)],
        )

    def test_prefix_extraction(self):
        # Delta_plus at 1 turns the depth-two shape into 2 pi i times the
        # simple pole at the remaining point 3 - 1 = 2
        phi = ResurgentSeries(FormalSeries.zero(6), self._depth_two_minor())
        d = alien_plus(phi, 1)
        assert isinstance(d.minor, RationalBF)
        expected = RationalFunction([TAU], poles={rat(2): 1})
        assert d.minor.rat == expected

    def test_iterated_chain(self):
        # following with Delta_plus at 2 reaches the composed chain and
        # gives the constant (2 pi i)^2 times the residue 1
        phi = ResurgentSeries(FormalSeries.zero(6), self._depth_two_minor())
        second = alien_plus(alien_plus(phi, 1), 2)
        assert second.series == FormalSeries.constant(TAU * TAU, 6)

    def test_iterated_other_order_vanishes(self):
        # no branch point at 2 in the original shape, so the chain
        # starting there is empty
        phi = ResurgentSeries(FormalSeries.zero(6), self._depth_two_minor())
        first = alien_plus(phi, 2)
        assert first.series.is_zero()


class TestResurgentSeriesAlgebra:
    def test_add_merges_log_terms_with_offsets(self):
        # r1 (L + tau) + r2 (L - 2 tau) merges into one log term plus a
        # rational correction; the numeric values must agree
        import mpmath

        r1 = RationalFunction([rat(1), rat(2)])
        r2 = RationalFunction([rat(3)])
        f = LogPoleBF(RationalFunction.zero(), [(ONE, r1, 1)])
        g = LogPoleBF(RationalFunction.zero(), [(ONE, r2, -2)])
        merged = _add_minors(f, g)
        z = mpmath.mpf(1) / 4
        with mpmath.workprec(80):
            lhs = merged.numeric_eval(z, prec=80)
            rhs = f.numeric_eval(z, prec=80) + g.numeric_eval(z, prec=80)
            assert abs(lhs - rhs) < mpmath.mpf(2) ** -70

    def test_add_cancels_to_rational(self):
        r1 = RationalFunction([rat(1), rat(2)])
        f = LogPoleBF(RationalFunction.zero(), [(ONE, r1, 0)])
        g = LogPoleBF(RationalFunction.zero(), [(ONE, r1.scale(rat(-1)), 0)])
        merged = _add_minors(f, g)
        assert isinstance(merged, RationalBF)
        assert merged.rat.is_zero()

    def test_scale(self):
        eu = euler_resurgent(order=4)
        doubled = eu.scale(2)
        assert doubled.series == eu.series.scale(2)
        assert doubled.minor.rat == eu.minor.rat.scale(rat(2))

    def test_minor_required(self):
        phi = ResurgentSeries(FormalSeries([0, 1], order=4), None)
        with pytest.raises(ValueError):
            alien_derivation(phi, 1)

    def test_minor_without_exact_rules_is_unsupported(self):
        phi = ResurgentSeries(FormalSeries.zero(4),
                              pade_minor(euler_series(12)))
        with pytest.raises(NotImplementedError, match="PadeApproximant"):
            alien_plus(phi, 1)

    def test_unsupported_minor_sum_degrades_to_none(self):
        eu = euler_resurgent(order=4)
        st_fn = stirling_resurgent(order=4)
        combined = eu + st_fn
        assert combined.minor is None
        assert combined.series == eu.series + st_fn.series


class TestStokesAction:
    def test_euler_automorphism(self):
        eu = euler_resurgent(order=6)
        ts = Transseries(rat(-1), {0: eu})
        img = apply_stokes(ts, up_to=3)
        assert img.component(0).series == eu.series
        assert img.component(1).series == FormalSeries.constant(TAU, 6)
        assert img.component(2).series.is_zero()
        assert img.component(3).series.is_zero()

    def test_stirling_automorphism(self):
        st_fn = stirling_resurgent(order=6)
        ts = Transseries(TAU, {0: st_fn})
        img = apply_stokes(ts, up_to=3)
        for k in (1, 2, 3):
            assert img.component(k).series == FormalSeries.constant(
                ONE / rat(k), 6
            )

    def test_half_power(self):
        st_fn = stirling_resurgent(order=6)
        ts = Transseries(TAU, {0: st_fn})
        img = stokes_power(ts, Fraction(1, 2), up_to=3)
        for k in (1, 2, 3):
            assert img.component(k).series == FormalSeries.constant(
                ONE / rat(2 * k), 6
            )

    def test_power_one_matches_automorphism(self):
        # on a meromorphic minor the averaged and pointed operators agree
        # and iterated terms vanish, so S^1 must equal S
        st_fn = stirling_resurgent(order=5)
        ts = Transseries(TAU, {0: st_fn})
        a = apply_stokes(ts, up_to=3)
        b = stokes_power(ts, 1, up_to=3)
        for k in range(4):
            assert a.component(k).series == b.component(k).series

    def test_power_zero_is_identity(self):
        eu = euler_resurgent(order=5)
        ts = Transseries(rat(-1), {0: eu})
        img = stokes_power(ts, 0, up_to=2)
        assert img.component(0).series == eu.series
        assert img.component(1).series.is_zero()

    def test_group_law(self):
        st_fn = stirling_resurgent(order=5)
        ts = Transseries(TAU, {0: st_fn})
        a, b = Fraction(1, 3), Fraction(1, 4)
        two = stokes_power(stokes_power(ts, a, up_to=3), b, up_to=3)
        one = stokes_power(ts, a + b, up_to=3)
        for k in range(4):
            assert two.component(k).series.agrees_with(one.component(k).series)

    def test_multicomponent_input(self):
        eu = euler_resurgent(order=6)
        ts = Transseries(rat(-1), {0: eu, 1: eu})
        img = apply_stokes(ts, up_to=2)
        assert img.component(1).series == (
            eu.series + FormalSeries.constant(TAU, 6)
        )
        # component 2 receives Delta_plus of component 1's copy of phi
        assert img.component(2).series == FormalSeries.constant(TAU, 6)

    def test_omitted_grade_skips_its_compositions(self):
        # grade 2 has no action, so every composition through it drops out:
        # component 2 keeps (1,1) only and component 3 keeps (3), (1,1,1)
        eu = euler_resurgent(order=4)
        ts = Transseries(rat(-1), {0: eu})
        actions = {1: lambda psi: psi.scale(2), 3: lambda psi: psi.scale(5)}
        w = Fraction(1, 3)
        img = stokes_power(ts, w, actions=actions, up_to=3)
        expected = {1: w * 2, 2: w**2 / 2 * 2**2,
                    3: w * 5 + w**3 / 6 * 2**3}
        for k, c in expected.items():
            assert img.component(k).series == eu.series.scale(c)
        pointed = apply_stokes(ts, actions=actions, up_to=3)
        assert pointed.component(2).series.is_zero()
        assert pointed.component(3).series == eu.series.scale(5)

    def test_component_default_keeps_order(self):
        eu = euler_resurgent(order=9)
        ts = Transseries(rat(-1), {0: eu})
        assert ts.component(5).series.order == 9


class TestLateralPathValidation:
    def test_wrong_sign_count_rejected(self):
        from resurgence.errors import UnreachableBranchError

        st_fn = stirling_resurgent(order=4)
        with pytest.raises(UnreachableBranchError):
            lateral_operator(st_fn, TAU * 3, signs=("+",))


class TestResurgentPairInvariant:
    def test_from_minor_matches_euler(self):
        phi = ResurgentSeries.from_minor(euler_minor(), constant=0, order=10)
        assert phi.series == euler_resurgent(order=10).series
        assert phi.consistent()

    def test_from_minor_constant_term(self):
        phi = ResurgentSeries.from_minor(euler_minor(), constant=7, order=6)
        assert phi.series[0] == rat(7)
        assert phi.constant_term == rat(7)
        assert phi.consistent()

    def test_inconsistent_pair_detected(self):
        phi = ResurgentSeries(FormalSeries([0, 5, 5], order=4), euler_minor())
        assert not phi.consistent()


class TestAlienChainRule:
    def test_truncation_consistency_stirling(self):
        # the chain rule is the definition for exp-composites; the test is
        # that the truncation of the result is stable: computing through a
        # longer expansion and cutting back changes nothing
        from resurgence.alien import _exp_series

        st_small = stirling_resurgent(order=8)
        st_big = stirling_resurgent(order=14)
        lhs = alien_exp(st_small, TAU)
        rhs_big = alien_derivation(st_big, TAU).series * _exp_series(st_big.series)
        assert lhs.series.agrees_with(rhs_big.truncate(8))

    def test_exp_chain_rule_shape(self):
        # Delta stirling at 2 pi i is the constant 1, so the alien image
        # of exp(stirling) is exp(stirling) itself
        from resurgence.alien import _exp_series

        st_fn = stirling_resurgent(order=8)
        result = alien_exp(st_fn, TAU)
        assert result.series == _exp_series(st_fn.series)
        assert result.minor is None

    def test_exp_requires_zero_constant(self):
        from resurgence.alien import _exp_series

        with pytest.raises(ValueError):
            _exp_series(FormalSeries([1, 1], order=3))


class TestStokesMorphism:
    def test_constant_components_trivial_action(self):
        from resurgence.alien import transseries_product

        A = Transseries(rat(-1), {0: ResurgentSeries.constant(2, 4),
                                  1: ResurgentSeries.constant(3, 4)})
        B = Transseries(rat(-1), {0: ResurgentSeries.constant(5, 4),
                                  1: ResurgentSeries.constant(7, 4)})
        lhs = apply_stokes(transseries_product(A, B), up_to=2)
        rhs = transseries_product(apply_stokes(A, up_to=2),
                                  apply_stokes(B, up_to=2), up_to=2)
        for k in range(3):
            assert lhs.component(k).series.agrees_with(rhs.component(k).series)

    def test_representable_product_morphism(self):
        # A carries the Euler-type function, B an entire-minor series; the
        # product component is representable through an exact convolution,
        # and the automorphism must distribute over the product
        from resurgence.alien import transseries_product

        eu = euler_resurgent(order=6)
        psi_series = FormalSeries([1, 2, 3], order=6)
        q_poly = RationalBF(RationalFunction([rat(2), rat(3)]))
        psi = ResurgentSeries(psi_series, q_poly)
        prod_minor = _add_minors(euler_minor(), convolve(euler_minor(), q_poly))
        prod = ResurgentSeries(eu.series * psi_series, prod_minor)

        A = Transseries(rat(-1), {0: eu})
        B = Transseries(rat(-1), {0: psi})
        AB = Transseries(rat(-1), {0: prod})
        lhs = apply_stokes(AB, up_to=1)
        rhs = transseries_product(apply_stokes(A, up_to=1),
                                  apply_stokes(B, up_to=1), up_to=1)
        for k in range(2):
            assert lhs.component(k).series.agrees_with(rhs.component(k).series)

    def test_half_then_minus_half_roundtrip(self):
        st_fn = stirling_resurgent(order=5)
        ts = Transseries(TAU, {0: st_fn})
        back = stokes_power(
            stokes_power(ts, Fraction(1, 2), up_to=3),
            Fraction(-1, 2), up_to=3,
        )
        assert back.component(0).series == st_fn.series
        for k in (1, 2, 3):
            assert back.component(k).series.is_zero()

    def test_supplied_actions_override(self):
        # explicit action maps take precedence over minor-derived ones
        eu = euler_resurgent(order=4)
        ts = Transseries(rat(-1), {0: eu})
        marker = ResurgentSeries.constant(99, 4)
        img = apply_stokes(ts, actions={1: lambda psi: marker}, up_to=1)
        assert img.component(1).series == marker.series


class TestAnnihilation:
    def test_entire_minor_annihilated(self):
        # alien operators vanish on convergent series (entire minors)
        poly = RationalBF(RationalFunction([rat(4), rat(0), rat(1)]))
        phi = ResurgentSeries(inverse_borel(poly.taylor(5)), poly)
        for omega in (1, -1, 2):
            assert alien_derivation(phi, omega).series.is_zero()
            assert alien_plus(phi, omega).series.is_zero()
