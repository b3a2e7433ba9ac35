"""Formal series and Borel transforms: algebra, substitution group,
coefficient prediction.  Frozen values come from hand derivations noted
inline; numeric checks use mpmath reference functions."""

import math
from fractions import Fraction

import mpmath
import pytest

from resurgence.scalars import ExactScalar
from resurgence.series import (
    BorelSeries,
    FormalSeries,
    borel,
    cauchy_product,
    euler_series,
    gevrey_bound,
    group_inverse,
    inverse_borel,
    predict_coefficients,
    stirling_series,
    substitute,
)

S = ExactScalar.from_rational


class TestFormalSeries:
    def test_product_truncation(self):
        a = FormalSeries([1, 2, 3])  # 1 + 2/z + 3/z^2
        b = FormalSeries([0, 1])  # 1/z, order 1
        p = a * b
        assert p.order == 1
        assert p[0] == S(0) and p[1] == S(1)

    def test_differentiate_gains_an_order(self):
        a = FormalSeries([0, 1, 5])  # 1/z + 5/z^2
        d = a.differentiate()
        assert d.order == 3
        assert d[2] == S(-1) and d[3] == S(-10)

    def test_shift_both_ways(self):
        a = FormalSeries([0, 0, 7], order=4)
        up = a.shift(1)
        assert up[3] == S(7) and up.order == 5
        down = a.shift(-2)
        assert down[0] == S(7) and down.order == 2
        with pytest.raises(ValueError):
            FormalSeries([1, 2]).shift(-1)

    def test_partial_sum_matches_geometric(self):
        # sum of z^-n = 1/(1 - 1/z) at z = 10, first 30 terms
        geo = FormalSeries([1] * 31, order=30)
        got = geo.partial_sum(10, prec=80)
        with mpmath.workprec(80):
            expect = (1 - mpmath.mpf(10) ** -31) / (1 - mpmath.mpf("0.1"))
            assert mpmath.almosteq(got, expect)

    def test_json_roundtrip(self):
        a = FormalSeries([ExactScalar.tau(), S(Fraction(1, 3))], order=3)
        assert FormalSeries.from_json(a.to_json()) == a

    def test_json_without_variable_name(self):
        a = FormalSeries([1, 2], order=2)
        assert set(a.to_json()) == {"order", "coeffs"}
        # JSON written with the former "var" key still loads
        assert FormalSeries.from_json(dict(a.to_json(), var="z")) == a
        assert repr(a) == "<FormalSeries ((1)) + ((2))/z + O(1/z^3)>"


class TestBorel:
    def test_euler_minor_is_geometric(self):
        # B(euler) = 1/(1+zeta): Taylor coefficients (-1)^n
        e = euler_series(8)
        b = borel(e)
        assert b.delta.is_zero()
        assert b.taylor == [S((-1) ** n) for n in range(8)]

    def test_roundtrip(self):
        phi = FormalSeries([2, 3, 0, Fraction(5, 7), 1], order=4)
        assert inverse_borel(borel(phi)).agrees_with(phi, order=4)

    def test_morphism_two_routes(self):
        # borel(phi * psi) computed via series product, versus the
        # convolution-integral formula on Taylor coefficients
        phi = FormalSeries([0, 1, 2, Fraction(-1, 3), 5, 0, 7], order=6)
        psi = FormalSeries([0, 2, 0, 1, Fraction(4, 5), -3, 1], order=6)
        left = borel(phi * psi)
        right = cauchy_product(borel(phi), borel(psi))
        assert left.taylor[: len(right.taylor)] == right.taylor[: len(left.taylor)]
        assert left.delta == right.delta == S(0)

    def test_delta_is_convolution_unit(self):
        one = BorelSeries(1, [0, 0, 0])
        f = BorelSeries(0, [1, Fraction(1, 2), 3])
        assert cauchy_product(one, f) == f
        assert cauchy_product(f, one) == f

    def test_convolution_of_ones(self):
        # 1 * 1 = zeta (the Borel image of z^-1 times itself)
        f = BorelSeries(0, [1, 0, 0])
        g = cauchy_product(f, f)
        assert g.taylor == [S(0), S(1), S(0)]


class TestSubstitution:
    def test_shift_by_constant(self):
        # phi(z) = 1/z, chi = c: 1/(z+c) = 1/z - c/z^2 + c^2/z^3 - ...
        phi = FormalSeries([0, 1], order=4)
        chi = FormalSeries.constant(3, 4)
        got = substitute(phi, chi)
        want = FormalSeries([0, 1, -3, 9, -27], order=4)
        assert got == want

    def test_group_inverse_catalan(self):
        # psi + chi(z + psi) = 0 with chi = 1/z gives psi z + psi^2 = -1,
        # whose series solution has Catalan coefficients:
        # psi = -1/z - 1/z^3 - 2/z^5 - 5/z^7 - ...
        chi = FormalSeries.inverse_power(1, 7)
        psi = group_inverse(chi)
        want = FormalSeries([0, -1, 0, -1, 0, -2, 0, -5], order=7)
        assert psi == want

    def test_group_inverse_composes_to_identity_both_ways(self):
        chi = FormalSeries([0, 1, Fraction(1, 2), -2, 0, 1], order=5)
        psi = group_inverse(chi)
        # (z + chi) then (z + psi): total displacement psi + chi(z + psi) = 0
        assert (psi + substitute(chi, psi)).is_zero()
        # and the other way round
        assert (chi + substitute(psi, chi)).is_zero()

    def test_substitution_morphism(self):
        # (phi * rho)(z + chi) = phi(z + chi) * rho(z + chi)
        phi = FormalSeries([1, 2, 0, 1], order=6)
        rho = FormalSeries([0, 1, 1, 0, 2], order=6)
        chi = FormalSeries([0, 0, 1, -1], order=6)
        left = substitute(phi * rho, chi)
        right = substitute(phi, chi) * substitute(rho, chi)
        assert left.agrees_with(right, order=5)


class TestPrediction:
    def test_euler_exact_all_orders(self):
        # one singularity at -1 with weight 2*pi*i reproduces every
        # coefficient of the Euler series exactly
        tau = ExactScalar.tau()
        preds = predict_coefficients([(S(-1), tau)], range(0, 31))
        truth = euler_series(32)
        for n, p in zip(range(0, 31), preds):
            assert p == truth[n + 1], f"n = {n}"

    def test_stirling_within_two_percent_at_20(self):
        # nearest singularities at +-2*pi*i with weights 1 and -1
        tau = ExactScalar.tau()
        preds = predict_coefficients(
            [(tau, S(1)), (-tau, S(-1))], [20]
        )
        truth = stirling_series(21)[21].evaluate(120)
        got = preds[0].evaluate(120)
        rel = abs((got - truth) / truth)
        assert rel < 0.02
        # odd rows vanish by symmetry
        assert predict_coefficients([(tau, S(1)), (-tau, S(-1))], [19])[0].is_zero()

    def test_stirling_prediction_improves_with_more_rows(self):
        tau = ExactScalar.tau()
        truth = stirling_series(21)[21].evaluate(160)
        sings = [(tau, S(1)), (-tau, S(-1))]
        rel1 = abs((predict_coefficients(sings, [20])[0].evaluate(160) - truth) / truth)
        sings2 = sings + [
            (tau * 2, S(Fraction(1, 2))), (tau * (-2), S(Fraction(-1, 2)))
        ]
        rel2 = abs((predict_coefficients(sings2, [20])[0].evaluate(160) - truth) / truth)
        assert rel2 < rel1 * 1e-3


class TestGevrey:
    def test_euler_growth_rate(self):
        c, m, resid = gevrey_bound(euler_series(25), skip=2)
        assert 0.5 < m < 1.2

    def test_stirling_growth_rate(self):
        # singularities at distance 2*pi: M should approach 1/(2*pi)
        c, m, resid = gevrey_bound(stirling_series(41), skip=3)
        assert 0.12 < m < 0.20


class TestNamedSeries:
    def test_euler_solves_its_equation(self):
        # -phi' + phi = 1/z termwise
        phi = euler_series(10)
        lhs = -phi.differentiate() + phi
        rhs = FormalSeries.inverse_power(1, 10)
        assert lhs.agrees_with(rhs, order=10)

    def test_stirling_first_coefficients(self):
        s = stirling_series(7)
        assert s[1] == S(Fraction(1, 12))
        assert s[3] == S(Fraction(-1, 360))
        assert s[5] == S(Fraction(1, 1260))
        assert s[7] == S(Fraction(-1, 1680))
        assert s[2].is_zero() and s[4].is_zero() and s[6].is_zero()

    def test_stirling_matches_loggamma_numerically(self):
        # log Gamma(z) - (z - 1/2) log z + z - log(2 pi)/2 at z = 10
        s = stirling_series(15)
        got = s.partial_sum(10, prec=80)
        with mpmath.workprec(80):
            z = mpmath.mpf(10)
            expect = (
                mpmath.loggamma(z) - (z - mpmath.mpf(1) / 2) * mpmath.log(z)
                + z - mpmath.log(2 * mpmath.pi) / 2
            )
            # the optimally truncated tail is below 1e-10 at z = 10
            assert abs(got - expect) < mpmath.mpf("1e-10")
