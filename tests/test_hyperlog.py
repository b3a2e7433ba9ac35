"""Tests for the hyperlogarithmic monomial family and its derived moulds.

Frozen oracle values used below, all independently derivable by hand:

* depth-1 series: the monomial of a single letter c is
  -sum_k k! c^-k-1 z^-k-1 (inverse Borel transform of 1/(zeta - c));
* alien derivation extractions at the letter-sum point sigma = a + b of
  the depth-2 Borel shape log(1 - zeta/a)/(zeta - sigma): the averaged
  branch value of the logarithm at sigma is log|1 - sigma/a|, giving
  -2*pi*i*log(2) for the word (1,2), +2*pi*i*log(2) for (2,1), and 0 for
  equal letters (the average of +/- i*pi vanishes);
* the one-sided (below-path) values keep the +i*pi half-residue, giving
  2*pi*i*log 2 + (2*pi*i)^2/2 for (1,2) and the conjugate sign for (2,1);
* contour integrals: integrating dzeta/(zeta - 1) from 0 to 2 along a
  path dipping below the pole picks up +i*pi from the half-circle, so
  the depth-2 iterated integral of the word (1,1) equals
  2*pi*i * i*pi = -2*pi^2, and shuffle relations fix depth 3.
"""

import dataclasses
import random
from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_chebyshev import chebyshev_nodes

from resurgence._chebyshev import chebyshev_cumulative
from resurgence.alien import alien_derivation, alien_plus, z_derivative
from resurgence.borelfun import LogPoleBF, RationalBF, RationalFunction
from resurgence.errors import MIN_PREC, ResonanceError
from resurgence.hyperlog import (
    IteratedIntegral,
    L_numeric,
    MonomialFamily,
    build_U,
    default_U,
    extract_L,
    extract_V,
    gu_mould,
    gu_resurgent,
    total_V,
    v_borel,
    v_mould,
    v_resurgent,
    v_series,
)
from resurgence.moulds import Mould, is_alternal, is_symmetral
from resurgence.scalars import ExactScalar
from resurgence.series import FormalSeries, borel
from resurgence.words import Word

TAU = ExactScalar.tau()
ONE = ExactScalar.from_rational(1)
LOG2 = ExactScalar.log_rational(2)
HALF_TAU_SQ = TAU * TAU / ExactScalar.from_rational(2)

DEPTH_TWO_WORDS = [(1, 2), (2, 1), (1, 1), (2, 2)]


@pytest.fixture(scope="module")
def fam():
    return MonomialFamily([1, 2], order=12)


@pytest.fixture(scope="module")
def normalizer(fam):
    return default_U(fam)


def rat(x):
    return ExactScalar.from_rational(Fraction(x))


def minors_agree(a, b, order: int = 9) -> bool:
    """Exact agreement of two minors on the supported shapes."""
    def empty(m):
        return m is None or not m.singular_points()
    if a is None or b is None:
        return empty(a) and empty(b)
    if isinstance(a, RationalBF) and isinstance(b, RationalBF):
        return a.rat == b.rat
    return (a.taylor(order) == b.taylor(order)
            and a.singular_points() == b.singular_points())


class TestSeriesRecursion:
    def test_empty_word_is_one(self, fam):
        assert v_series(fam, ()) == FormalSeries.constant(1, 12)

    @pytest.mark.parametrize("c", [1, 2])
    def test_depth_one_closed_form(self, fam, c):
        v = v_series(fam, (c,))
        assert v[0].is_zero()
        for k in range(12):
            assert v[k + 1] == rat(Fraction(-factorial(k), c ** (k + 1)))

    def test_depth_one_matches_inverse_borel(self, fam):
        v = v_series(fam, (2,))
        shape = v_borel(fam, (2,))
        recomputed = borel(v).taylor
        assert recomputed == shape.taylor(len(recomputed) - 1).taylor

    def test_recursion_identity_depth_two(self, fam):
        v = v_series(fam, (1, 2))
        lhs = v.differentiate() + v.scale(3)
        rhs = (v_series(fam, (1,)) * fam.input_series(2)).scale(-1)
        assert lhs.agrees_with(rhs)

    def test_weighted_letter(self):
        weighted = MonomialFamily([1], a_hat={1: [0, 1]}, order=8)
        assert weighted.input_series(1) == FormalSeries.inverse_power(2, 8)
        v = v_series(weighted, (1,))
        # -(d/dz + 1)^-1 z^-2 has coefficients -(k+1)! at z^-k-2
        for k in range(7):
            assert v[k + 2] == rat(-factorial(k + 1))
        lhs = v.differentiate() + v
        assert lhs.agrees_with(FormalSeries.inverse_power(2, 8).scale(-1))

    def test_prefix_cache_filled(self):
        fresh = MonomialFamily([1, 2], order=6)
        v_series(fresh, (1, 2, 1))
        assert Word((1,)) in fresh._cache
        assert Word((1, 2)) in fresh._cache

    def test_letter_outside_alphabet(self, fam):
        with pytest.raises(ValueError):
            v_series(fam, (3,))

    def test_resonant_word_raises(self):
        mixed = MonomialFamily([1, -1], order=6)
        with pytest.raises(ResonanceError):
            v_series(mixed, (1, -1))
        with pytest.raises(ResonanceError):
            v_series(mixed, (-1, 1))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([1, 2, -1, -2, 3]),
                    min_size=0, max_size=3))
    def test_every_resonant_word_raises(self, base):
        total = sum(base)
        word = tuple(base) if (base and total == 0) else tuple(base) + (-total,)
        if 0 in word:
            word = word[:-1]
        if not word or all(sum(word[:k]) != 0 for k in range(1, len(word) + 1)):
            return
        family = MonomialFamily(sorted(set(word)), order=4)
        with pytest.raises(ResonanceError):
            v_series(family, word)


def neumann_series(fam, word):
    """The monomial of ``word`` by the Neumann sum
    sum_(j<=N) (-1)^j s^(-j-1) (d/dz)^j rhs at each letter: the
    construction the coefficient recurrence of ``v_series`` replaced,
    kept here as its reference."""
    value, total = FormalSeries.constant(1, fam.order), Fraction(0)
    for letter in word:
        total += letter
        term = (value * fam.input_series(letter)).scale(-1)
        value = FormalSeries.zero(fam.order)
        for j in range(fam.order + 1):
            value = value + term.scale(Fraction((-1) ** j) / total ** (j + 1))
            term = term.differentiate()
    return value


def seeded_family(seed, order):
    """Three distinct nonzero integer letters, some negative, each with
    probability 1/2 a weight polynomial of degree up to 2 with fractional
    coefficients.  (Letters are integers: the alphabet refuses a Fraction,
    so fractions enter through 1/s and the weights.)"""
    rng = random.Random(seed)
    letters = rng.sample([-3, -2, -1, 1, 2, 3, 5], 3)
    a_hat = {c: [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))]
             for c in letters if rng.random() < 0.5}
    return MonomialFamily(letters, a_hat=a_hat, order=order), rng


class TestCoefficientRecurrence:
    """``v_series`` solves (d/dz + s) y = rhs by the coefficient recurrence;
    each value equals the Neumann sum it replaced, exactly."""

    @pytest.mark.parametrize("order", [1, 2, 12, 40])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_neumann_sum(self, seed, order):
        fam, rng = seeded_family(seed, order)
        checked = 0
        for _ in range(6):
            word = Word(rng.choice(fam.alphabet.letters)
                        for _ in range(rng.randint(1, 4)))
            if any(sum(word[:k]) == 0 for k in range(1, len(word) + 1)):
                continue
            assert v_series(fam, word) == neumann_series(fam, word)
            checked += 1
        assert checked
        # every prefix the recursion cached, not only the words asked for
        for word, value in fam._cache.items():
            assert value.order == order
            assert value == neumann_series(fam, word)

    def test_order_zero_is_refused(self):
        with pytest.raises(ValueError):
            MonomialFamily([1, 2], order=0)

    def test_vanishing_prefix_sum_is_refused(self):
        fam = MonomialFamily([-2, 1, 3], order=5)
        v_series(fam, (1, 3))
        cached = dict(fam._cache)
        with pytest.raises(ResonanceError) as err:
            v_series(fam, (1, 3, -2, -2))
        assert err.value.details["prefix_length"] == 4
        assert fam._cache == cached

    def test_scalar_products(self, monkeypatch):
        """Four letters at order 100 make at most 20,000 scalar products
        (15,760: the Cauchy products take 14,952); the Neumann sum made
        136,960."""
        calls = [0]

        def counted(method):
            def wrapper(self, other):
                calls[0] += 1
                return method(self, other)
            return wrapper

        for name in ("__mul__", "__rmul__"):
            monkeypatch.setattr(ExactScalar, name,
                                counted(getattr(ExactScalar, name)))
        v_series(MonomialFamily([1, 2, 3, 4], order=100), (1, 2, 3, 4))
        assert calls[0] <= 20000


class TestSymmetrality:
    def test_mould_is_symmetral_total_length_three(self, fam):
        assert is_symmetral(v_mould(fam), max_length=3, letters=[1, 2])

    def test_shuffle_identity_explicit(self, fam):
        lhs = v_series(fam, (1,)) * v_series(fam, (2,))
        rhs = v_series(fam, (1, 2)) + v_series(fam, (2, 1))
        assert lhs.agrees_with(rhs)


class TestBorelShapes:
    def test_depth_one_simple_pole(self, fam):
        shape = v_borel(fam, (2,))
        assert isinstance(shape, RationalBF)
        assert shape.rat == RationalFunction.simple_pole(2, 1)

    def test_depth_two_log_over_pole(self, fam):
        shape = v_borel(fam, (1, 2))
        assert isinstance(shape, LogPoleBF)
        assert shape.rational_part.is_zero()
        [(base, factor, offset)] = shape.log_terms
        assert base == ONE
        assert factor == RationalFunction.simple_pole(3, 1)
        assert offset == 0

    @pytest.mark.parametrize("w", [(1,), (2,)] + DEPTH_TWO_WORDS)
    def test_taylor_cross_check(self, fam, w):
        series_side = borel(v_series(fam, w))
        function_side = v_borel(fam, w).taylor(series_side.order)
        assert series_side == function_side

    @pytest.mark.parametrize("w", [(1,), (2,)] + DEPTH_TWO_WORDS)
    def test_resurgent_pair_is_consistent(self, fam, w):
        assert v_resurgent(fam, w).consistent()

    def test_empty_word_rejected(self, fam):
        with pytest.raises(ValueError):
            v_borel(fam, ())

    def test_depth_cap(self, fam):
        with pytest.raises(NotImplementedError):
            v_borel(fam, (1, 1, 1))

    def test_unit_weights_required(self):
        weighted = MonomialFamily([1], a_hat={1: [2]}, order=6)
        with pytest.raises(NotImplementedError):
            v_borel(weighted, (1,))

    def test_resonant_word_rejected(self):
        mixed = MonomialFamily([1, -1], order=6)
        with pytest.raises(ResonanceError):
            v_borel(mixed, (1, -1))


class TestExtractionMoulds:
    def test_depth_one_value(self, fam):
        assert extract_V(fam, 1)[Word((1,))] == -TAU
        assert extract_V(fam, 2)[Word((2,))] == -TAU

    def test_depth_two_values(self, fam):
        at_three = extract_V(fam, 3)
        assert at_three[Word((1, 2))] == -(TAU * LOG2)
        assert at_three[Word((2, 1))] == TAU * LOG2

    def test_equal_letters_vanish(self, fam):
        assert extract_V(fam, 2)[Word((1, 1))].is_zero()
        assert extract_V(fam, 4)[Word((2, 2))].is_zero()

    def test_support_condition(self, fam):
        at_three = extract_V(fam, 3)
        assert at_three[Word((1,))].is_zero()
        assert at_three[Word((2, 2))].is_zero()
        assert extract_V(fam, 1)[Word((2,))].is_zero()

    def test_alternality(self, fam):
        for eta in [1, 2, 3, 4]:
            assert is_alternal(extract_V(fam, eta), max_length=2)

    def test_left_factor_relation_at_interior_point(self, fam):
        # the derivation at a leading-prefix point multiplies from the
        # left: on the word (1, 2) at point 1 it produces
        # -V(1)[(1,)] * monomial(2) = 2*pi*i * monomial(2)
        out = alien_derivation(v_resurgent(fam, (1, 2)), 1)
        assert out.constant_term.is_zero()
        assert out.series.agrees_with(v_series(fam, (2,)).scale(TAU))

    def test_non_singular_point_annihilated(self, fam):
        out = alien_derivation(v_resurgent(fam, (1, 2)), 2)
        assert out.is_zero()

    def test_one_sided_depth_one(self, fam):
        assert extract_L(fam, 1)[Word((1,))] == TAU
        assert extract_L(fam, 2)[Word((2,))] == TAU

    def test_one_sided_depth_two_values(self, fam):
        assert extract_L(fam, 2)[Word((1, 1))] == HALF_TAU_SQ
        at_three = extract_L(fam, 3)
        assert at_three[Word((1, 2))] == TAU * LOG2 + HALF_TAU_SQ
        assert at_three[Word((2, 1))] == -(TAU * LOG2) + HALF_TAU_SQ
        assert extract_L(fam, 4)[Word((2, 2))] == HALF_TAU_SQ

    def test_one_sided_family_is_symmetral(self, fam):
        entries = {Word(()): ONE}
        for eta in [1, 2, 3, 4]:
            entries.update(extract_L(fam, eta).entries)
        assembled = Mould(fam.alphabet, 2, entries=entries)
        assert is_symmetral(assembled, max_length=2)

    def test_depth_cap(self, fam):
        with pytest.raises(NotImplementedError):
            extract_V(fam, 3, max_length=3)


class TestNormalizer:
    def test_depth_one_value(self, normalizer):
        assert normalizer[Word((1,))] == ONE / TAU
        assert normalizer[Word((2,))] == ONE / TAU

    def test_depth_two_values(self, normalizer):
        tau_sq = TAU * TAU
        assert normalizer[Word((1, 2))] == -(LOG2 / tau_sq)
        assert normalizer[Word((2, 1))] == LOG2 / tau_sq
        assert normalizer[Word((1, 1))].is_zero()
        assert normalizer[Word((2, 2))].is_zero()

    def test_empty_entry_vanishes(self, normalizer):
        assert normalizer[Word(())].is_zero()

    def test_alternality(self, normalizer):
        assert is_alternal(normalizer, max_length=2)

    def test_composition_with_total_mould_is_minus_identity(self, fam, normalizer):
        composed = total_V(fam, 2).compose(normalizer)
        assert composed[Word((1,))] == -ONE
        assert composed[Word((2,))] == -ONE
        for w in DEPTH_TWO_WORDS:
            assert composed[Word(w)].is_zero()

    def test_total_mould_lives_on_sum_closure(self, fam):
        v_total = total_V(fam, 2)
        assert list(v_total.alphabet.letters) == [1, 2, 3, 4]
        assert v_total[Word((3,))] == -TAU
        assert v_total[Word((1, 2))] == -(TAU * LOG2)


class TestNormalizedMould:
    def test_empty_entry_is_one(self, fam, normalizer):
        assert gu_mould(fam, u=normalizer)[Word(())] == FormalSeries.constant(1, 12)

    def test_depth_one_minor(self, fam, normalizer):
        pair = gu_resurgent(fam, (1,), u=normalizer)
        assert isinstance(pair.minor, RationalBF)
        assert pair.minor.rat == RationalFunction.simple_pole(1, ONE / TAU)
        assert pair.consistent()

    @pytest.mark.parametrize("w", [(1,), (2,)] + DEPTH_TWO_WORDS)
    def test_composition_matches_exact_assembly(self, fam, normalizer, w):
        composed = gu_mould(fam, u=normalizer)
        pair = gu_resurgent(fam, w, u=normalizer)
        assert pair.series.agrees_with(composed[Word(w)])
        assert pair.consistent()

    def test_depth_one_prefix_rule(self, fam, normalizer):
        out = alien_derivation(gu_resurgent(fam, (1,), u=normalizer), 1)
        assert out.constant_term == ONE
        assert all(out.series[k].is_zero()
                   for k in range(1, out.series.order + 1))
        assert minors_agree(out.minor, None)

    def test_depth_one_other_point_vanishes(self, fam, normalizer):
        out = alien_derivation(gu_resurgent(fam, (1,), u=normalizer), 2)
        assert out.is_zero()

    @pytest.mark.parametrize("w", DEPTH_TWO_WORDS)
    def test_prefix_rule_deletes_leading_letter(self, fam, normalizer, w):
        pair = gu_resurgent(fam, w, u=normalizer)
        out = alien_derivation(pair, w[0])
        tail = gu_resurgent(fam, (w[1],), u=normalizer)
        assert out.series.agrees_with(tail.series)
        assert out.constant_term == tail.constant_term
        assert minors_agree(out.minor, tail.minor)

    @pytest.mark.parametrize("w", DEPTH_TWO_WORDS)
    def test_letter_sum_point_annihilates(self, fam, normalizer, w):
        pair = gu_resurgent(fam, w, u=normalizer)
        assert alien_derivation(pair, w[0] + w[1]).is_zero()

    def test_non_prefix_letter_annihilates(self, fam, normalizer):
        pair = gu_resurgent(fam, (1, 2), u=normalizer)
        assert alien_derivation(pair, 2).is_zero()
        pair = gu_resurgent(fam, (2, 1), u=normalizer)
        assert alien_derivation(pair, 1).is_zero()

    def test_depth_cap(self, fam, normalizer):
        with pytest.raises(NotImplementedError):
            gu_resurgent(fam, (1, 1, 1), u=normalizer)


class TestDerivationCommutator:
    """d/dz after an alien derivation, minus the derivation after d/dz,
    equals the singular point times the derivation, on family data."""

    @pytest.mark.parametrize("omega", [1, 3])
    def test_commutator_on_depth_two_monomial(self, fam, omega):
        phi = v_resurgent(fam, (1, 2))
        lhs = z_derivative(alien_derivation(phi, omega))
        rhs = alien_derivation(z_derivative(phi), omega)
        combined = rhs + alien_derivation(phi, omega).scale(omega)
        assert lhs.series.agrees_with(combined.series)
        assert minors_agree(lhs.minor, combined.minor)

    def test_far_log_residue_value(self, fam):
        # the derivative's minor is -zeta log(1 - zeta)/(zeta - 3); the
        # residue of -zeta/(zeta - 3) at 3 is -3, so the extraction at 3
        # averages to -3 * 2*pi*i*log 2
        phi = v_resurgent(fam, (1, 2))
        out = alien_derivation(z_derivative(phi), 3)
        assert out.constant_term == -(rat(3) * TAU * LOG2)


class TestIteratedIntegrals:
    def test_depth_one_convention(self):
        for w in [(5,), (-4,)]:
            got = L_numeric(w)
            # half a unit of 2 pi i rounded to 53 bits
            assert got.error_estimate == mpmath.ldexp(1, -51)
            assert got.nodes == 0 and got.certified
            with mpmath.workprec(60):
                assert abs(got.value - 2j * mpmath.pi) < mpmath.mpf(2) ** -45

    def test_depth_two_equal_letters(self):
        got = L_numeric((1, 1), prec=60)
        with mpmath.workprec(80):
            exact = -2 * mpmath.pi ** 2
            assert abs(got.value - exact) < 1e-12
        assert got.error_estimate < 1e-10

    def test_depth_two_mixed_letters(self):
        with mpmath.workprec(80):
            base = -2 * mpmath.pi ** 2
            twist = 2 * mpmath.pi * mpmath.log(2)
            assert abs(L_numeric((1, 2), prec=60).value
                       - mpmath.mpc(base, twist)) < 1e-12
            assert abs(L_numeric((2, 1), prec=60).value
                       - mpmath.mpc(base, -twist)) < 1e-12

    def test_negative_direction(self):
        got = L_numeric((-1, -1), prec=60)
        with mpmath.workprec(80):
            assert abs(got.value - (-2 * mpmath.pi ** 2)) < 1e-12

    def test_pole_beyond_endpoint(self):
        got = L_numeric((3, -1), prec=60)
        with mpmath.workprec(80):
            exact = -2j * mpmath.pi * mpmath.log(3)
            assert abs(got.value - exact) < 1e-12

    def test_depth_three(self):
        got = L_numeric((1, 1, 1), prec=60)
        with mpmath.workprec(80):
            exact = mpmath.mpc(0, -4 * mpmath.pi ** 3 / 3)
            assert abs(got.value - exact) < 1e-10
        assert got.error_estimate < 1e-8

    def test_shuffle_relation_numeric(self):
        # (c) shuffled with (c, c) covers (c, c, c) three times
        one = L_numeric((2,), prec=60).value
        two = L_numeric((2, 2), prec=60).value
        three = L_numeric((2, 2, 2), prec=60).value
        assert abs(one * two - 3 * three) < 1e-9

    def test_matches_exact_extraction(self, fam):
        exact = extract_L(fam, 2)[Word((1, 1))].evaluate(80)
        got = L_numeric((1, 1), prec=60).value
        assert abs(got - exact) < 1e-12
        exact = extract_L(fam, 3)[Word((1, 2))].evaluate(80)
        got = L_numeric((1, 2), prec=60).value
        assert abs(got - exact) < 1e-12

    def test_high_precision(self):
        got = L_numeric((1, 2), prec=90)
        with mpmath.workprec(140):
            exact = mpmath.mpc(-2 * mpmath.pi ** 2,
                               2 * mpmath.pi * mpmath.log(2))
            assert abs(mpmath.mpc(got.value) - exact) < mpmath.mpf(10) ** -24

    def test_resonant_words_raise(self):
        for w in [(1, -1), (2, -2), (1, 1, -2), (1, 1, -1)]:
            with pytest.raises(ResonanceError):
                L_numeric(w)

    def test_error_covers_rounding(self):
        """The estimate bounds the deviation from L(1,1) = -2 pi^2 and
        includes the rounding of the returned value."""
        for prec in (53, 80):
            got = L_numeric((1, 1), prec=prec)
            assert got.error_estimate >= mpmath.ldexp(abs(got.value), -prec)
            with mpmath.workprec(3 * prec):
                assert abs(got.value + 2 * mpmath.pi ** 2) <= got.error_estimate

    def test_precision_floor(self):
        with pytest.raises(ValueError, match="precision"):
            L_numeric((1, 1), prec=MIN_PREC - 1)
        with pytest.raises(ValueError, match="precision"):
            L_numeric((1,), prec=8)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            L_numeric(())
        with pytest.raises(NotImplementedError):
            L_numeric((1, 1, 1, 1))
        with pytest.raises(ValueError):
            L_numeric((1, 0))
        with pytest.raises(TypeError):
            L_numeric((Fraction(1, 2), 1))

    def test_result_shape(self):
        got = L_numeric((1, 1))
        assert isinstance(got, IteratedIntegral)
        assert got.nodes > 0 and got.certified
        assert got.error_estimate >= 0

    def test_result_is_frozen(self):
        got = L_numeric((1, 1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.nodes = 0


class TestSpectralCumulative:
    def test_exponential(self):
        with mpmath.workprec(120):
            xs = chebyshev_nodes(48)
            outs = chebyshev_cumulative([mpmath.exp(x) for x in xs])
            for x, f in zip(xs, outs):
                assert abs(f - (mpmath.exp(x) - mpmath.exp(-1))) < 1e-30

    def test_starts_at_zero(self):
        with mpmath.workprec(60):
            xs = chebyshev_nodes(16)
            outs = chebyshev_cumulative([x ** 2 for x in xs])
            assert outs[0] == 0
            assert abs(outs[-1] - mpmath.mpf(2) / 3) < 1e-12
