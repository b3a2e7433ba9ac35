"""Tests for coloured nested harmonic sums and their integral twins.

Oracles, all classical and independently derivable:

* Single sums reduce to the Riemann zeta function or to logarithms of
  roots of unity: sum 1/n^s = zeta(s), and for a root of unity z != 1,
  sum z^n / n = -log(1 - z) with the principal branch.  In particular
  the half colour gives sum (-1)^n / n^s = (2^{1-s} - 1) zeta(s), so
  ze((1), (1/2)) = -log 2 and ze((2), (1/2)) = -pi^2/12.

* Splitting a double sum over m > n along the diagonal gives
  (sum a_n)^2 = 2 sum_{m>n} a_m a_n + sum a_n^2, hence
  ze((2,2)) = (zeta(2)^2 - zeta(4)) / 2 = pi^4/120 and
  ze((1,1), (1/2,1/2)) = ((log 2)^2 - zeta(2)) / 2.

* Euler's reduction gives ze((2,1)) = zeta(3), and more generally the
  sum with head 2 and a run of k ones equals zeta(k + 2); the weight-4
  cases pin ze((3,1)) = pi^4/360 and ze((2,1,1)) = zeta(4) = pi^4/90.

* On the integral side, wa((1,0)) unfolds to the single integral of
  -log(1 - z)/z over [0, 1], which is zeta(2); wa((-1,)) is the
  integral of 1/(-1-z), which is -log 2.  The quadrature is also
  checked against mpmath.quad directly for those two shapes.

* Complex colours fix the dictionary's letters: ze((1), (1/3)) =
  -log(1 - e^(2 pi i/3)), while wa of the single letter a is
  -log(1 - 1/a), so the letter must be the inverse root e^(-2 pi i/3).

* Scalar tail sums have reference values from mpmath: the phase-free
  tail is a Hurwitz zeta, and the alternating tail is a Lerch
  transcendent, sum_{n>N} (-1)^n n^{-s} = (-1)^{N+1} lerchphi(-1,s,N+1).

The certified error bounds are treated as part of the contract: every
closed-form comparison also asserts that the true deviation stays
within the reported bound.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import gcd

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resurgence import _chebyshev, _work
from resurgence.errors import MIN_PREC, DivergentIndexError
from resurgence.mzv import (
    _FIX_GUARD,
    MAX_COLOUR_DENOMINATOR,
    MAX_CUTOFF,
    MzvIndex,
    WaWord,
    _colour_row,
    _decode_word,
    _direct_root,
    _roots,
    _sum_level,
    _TailForm,
    _unit_root,
    stuffle_product,
    verify_relation,
    wa_eval,
    ze_eval,
    ze_to_wa,
)

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)
SIXTH = Fraction(1, 6)


def tail_sum(form):
    """The tail W(m) = sum over n > m of ``form``, at its cutoff."""
    return _sum_level(form.q, form.t, form.c, form.err, form.P).at(
        form.R, form.cutoff)


def mpf_pi_power(k):
    return mpmath.pi**k


@pytest.fixture(scope="module")
def wa_values():
    """Quadrature values shared across tests, one evaluation per word."""
    cache = {}

    def get(*letters):
        if letters not in cache:
            cache[letters] = wa_eval(WaWord(letters))
        return cache[letters]

    return get


class TestIndexValidation:
    def test_divergent_head_rejected(self):
        with pytest.raises(DivergentIndexError):
            MzvIndex((1,))
        with pytest.raises(DivergentIndexError):
            MzvIndex((1, 2))

    def test_coloured_head_converges(self):
        idx = MzvIndex((1,), (HALF,))
        assert idx.depth == 1 and idx.weight == 1

    def test_inner_ones_allowed(self):
        idx = MzvIndex((2, 1, 1))
        assert idx.weight == 4 and idx.depth == 3

    def test_positive_exponents_required(self):
        with pytest.raises(ValueError):
            MzvIndex((0, 2))
        with pytest.raises(ValueError):
            MzvIndex((2, -1))

    def test_colour_denominator_cap(self):
        MzvIndex((2,), (Fraction(1, MAX_COLOUR_DENOMINATOR),))
        with pytest.raises(ValueError):
            MzvIndex((2,), (Fraction(1, MAX_COLOUR_DENOMINATOR + 1),))

    def test_colours_normalised_mod_one(self):
        idx = MzvIndex((2, 3), (Fraction(-1, 3), Fraction(7, 2)))
        assert idx.eps == (Fraction(2, 3), HALF)

    def test_default_colours_are_zero(self):
        assert MzvIndex((3, 2)).eps == (0, 0)
        assert MzvIndex((3, 2)).is_real()

    def test_eps_arity_must_match(self):
        with pytest.raises(ValueError):
            MzvIndex((2, 3), (HALF,))

    def test_floats_rejected_as_colours(self):
        with pytest.raises(TypeError):
            MzvIndex((2,), (0.5,))

    def test_empty_index(self):
        idx = MzvIndex(())
        assert idx.depth == 0 and idx.weight == 0

    def test_hashable_and_letters(self):
        idx = MzvIndex((2, 1), (0, HALF))
        assert {idx: 1}[MzvIndex((2, 1), (0, HALF))] == 1
        assert tuple(idx.letters()) == ((2, Fraction(0)), (1, HALF))


class TestWordValidation:
    def test_value_letters_coerced_to_phases(self):
        w = WaWord((1, -1, 0))
        assert w.phases == (Fraction(0), HALF, None)

    def test_fraction_letters_kept(self):
        w = WaWord((THIRD, 0))
        assert w.phases == (THIRD, None)

    def test_leading_zero_rejected(self):
        with pytest.raises(DivergentIndexError):
            WaWord((0, 1))

    def test_trailing_one_rejected(self):
        with pytest.raises(DivergentIndexError):
            WaWord((1, 1))
        with pytest.raises(DivergentIndexError):
            WaWord((1,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            WaWord(())

    def test_zero_count(self):
        assert WaWord((1, 0, -1, 0)).zero_count == 2
        assert WaWord((-1,)).zero_count == 0

    def test_letter_values(self):
        vals = WaWord((1, -1, 0)).letter_values()
        assert abs(vals[0] - 1) < 1e-15
        assert abs(vals[1] + 1) < 1e-15
        assert vals[2] == 0


class TestTailEngine:
    N, P = 200, 120

    def base(self, q, t):
        """n^-t times the colour q as a tail form with 7 correction slots."""
        return _TailForm(q, t, ([1 << self.P] + [0] * 7, None), [0] * 8, 0,
                         self.N, self.P)

    def within(self, tail, exact):
        """The tail at N against ``exact``, within its certified remainder
        and its rounding term; the remainder is below 1e-18."""
        (re, im), rounding = tail.value_at(self.N)
        with mpmath.workprec(3 * self.P):
            got = mpmath.mpc(mpmath.mpf((re, -self.P)),
                             mpmath.mpf((im or 0, -self.P)))
            budget = mpmath.ldexp(tail.error_at(self.N) + rounding, -self.P)
            assert abs(got - exact) <= budget
        assert mpmath.ldexp(tail.error_at(self.N), -self.P) < 1e-18

    def test_phase_free_tail_is_hurwitz(self):
        with mpmath.workprec(3 * self.P):
            self.within(tail_sum(self.base(Fraction(0), 3)),
                        mpmath.zeta(3, self.N + 1))

    def test_alternating_tail_is_lerch(self):
        with mpmath.workprec(3 * self.P):
            self.within(tail_sum(self.base(HALF, 2)),
                        (-1) ** (self.N + 1)
                        * mpmath.lerchphi(-1, 2, self.N + 1))


def per_root(q, P):
    """exp(2 pi i q) for a reduced q, root by root: libmp's cos(pi x) and
    sin(pi x) at x = 2q, both rounded at P + 16 bits, then times 2^P
    rounded to the nearest integers."""
    with mpmath.workprec(P + 16):
        z = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
        return int(mpmath.nint(mpmath.ldexp(z.real, P))), \
            int(mpmath.nint(mpmath.ldexp(z.imag, P)))


REDUCED = sorted({Fraction(k, d) for d in range(1, MAX_COLOUR_DENOMINATOR + 1)
                  for k in range(d)})


class TestUnitRoots:
    @pytest.mark.parametrize("prec", [53, 80, 113, 240])
    def test_rotated_roots_match_per_root_rounding(self, prec):
        """Every root of unity with denominator up to 12, and every colour
        row, read off one rotated table per denominator, is the root
        rounded one by one; so are roots of the larger denominators of
        sums of colours, computed alone."""
        P = prec + _FIX_GUARD
        for q in REDUCED:
            assert _unit_root(q, P) == per_root(q, P), q
            re, im = _colour_row(q, P)
            assert list(zip(re, im)) == [per_root(q * n % 1, P)
                                         for n in range(1, q.denominator + 1)]
        for q in (Fraction(7, 60), Fraction(1, 1260)):
            assert _unit_root(q, P) == per_root(q, P), q

    def test_roots_without_rotation_guard(self, monkeypatch):
        """With no guard bits the rotation can tell no root: each is
        computed root by root, one libmp call besides the seed, and the
        table holds the same integers."""
        monkeypatch.setattr(_chebyshev, "_ROTATION_GUARD", 0)
        _roots.cache_clear()
        try:
            P = 53 + _FIX_GUARD
            for d in (1, 2, 7, 12):
                _direct_root.cache_clear()
                with _work.counting() as counts:
                    table = _roots(d, P)
                assert table == tuple(per_root(Fraction(k, d), P)
                                      for k in range(d))
                # each root counted under its reduced denominator
                assert sum(counts.values()) == d + 1
        finally:
            _roots.cache_clear()
            _direct_root.cache_clear()
            _colour_row.cache_clear()


class TestZeEval:
    CLOSED_FORMS = [
        ((2,), (), lambda: mpmath.pi**2 / 6),
        ((3,), (), lambda: mpmath.zeta(3)),
        ((4,), (), lambda: mpmath.pi**4 / 90),
        ((12,), (), lambda: mpmath.zeta(12)),
        ((2, 1), (), lambda: mpmath.zeta(3)),
        ((2, 2), (), lambda: mpmath.pi**4 / 120),
        ((3, 1), (), lambda: mpmath.pi**4 / 360),
        ((2, 1, 1), (), lambda: mpmath.pi**4 / 90),
        ((2, 1, 1, 1), (), lambda: mpmath.zeta(5)),
        ((1,), (HALF,), lambda: -mpmath.log(2)),
        ((2,), (HALF,), lambda: -mpmath.pi**2 / 12),
        ((1, 1), (HALF, HALF), lambda: (mpmath.log(2) ** 2 - mpmath.pi**2 / 6) / 2),
        ((1,), (THIRD,), lambda: -mpmath.log(1 - mpmath.expjpi(mpmath.mpf(2) / 3))),
    ]

    @pytest.mark.parametrize("s,eps,exact", CLOSED_FORMS,
                             ids=[str(c[0]) + str(c[1]) for c in CLOSED_FORMS])
    def test_closed_forms_within_reported_bound(self, s, eps, exact):
        ev = ze_eval(MzvIndex(s, eps))
        assert ev.certified
        assert ev.error < 1e-10
        assert abs(ev.value - exact()) <= ev.error

    def test_euler_reduction_pinned_tight(self):
        ev = ze_eval(MzvIndex((2, 1)))
        assert abs(ev.value - mpmath.zeta(3)) < 1e-9

    def test_real_index_returns_real_value(self):
        assert isinstance(ze_eval(MzvIndex((2,))).value, mpmath.mpf)

    def test_coloured_index_returns_complex_value(self):
        ev = ze_eval(MzvIndex((2,), (THIRD,)))
        assert isinstance(ev.value, mpmath.mpc)
        assert ev.value.imag != 0

    def test_empty_index_is_one(self):
        ev = ze_eval(MzvIndex(()))
        assert ev.value == 1 and ev.error == 0

    def test_accepts_bare_tuple(self):
        assert abs(ze_eval((3,)).value - mpmath.zeta(3)) < 1e-12

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            ze_eval(MzvIndex((2, 1, 1, 1, 1)))

    def test_weight_cap(self):
        with pytest.raises(ValueError):
            ze_eval(MzvIndex((13,)))

    def test_cutoff_floor(self):
        with pytest.raises(ValueError):
            ze_eval(MzvIndex((2,)), cutoff=32)

    def test_cutoff_ceiling(self):
        with pytest.raises(ValueError, match="cutoff"):
            ze_eval(MzvIndex((2,)), cutoff=MAX_CUTOFF + 1)

    def test_precision_floor(self):
        # below the floor a certified error would describe a meaningless value
        for idx in (MzvIndex((2,)), MzvIndex(())):
            with pytest.raises(ValueError, match="precision"):
                ze_eval(idx, prec=MIN_PREC - 1)
        assert ze_eval(MzvIndex((2,)), prec=MIN_PREC).certified

    def test_smaller_cutoff_still_honest(self):
        ev = ze_eval(MzvIndex((2, 1)), cutoff=500)
        assert abs(ev.value - mpmath.zeta(3)) <= ev.error

    def test_high_precision(self):
        ev = ze_eval(MzvIndex((2, 1)), prec=120)
        with mpmath.workprec(140):
            diff = abs(ev.value - mpmath.zeta(3))
        assert diff <= ev.error
        assert ev.error < mpmath.mpf(10) ** -30

    def test_deterministic(self):
        a = ze_eval(MzvIndex((3, 2)))
        b = ze_eval(MzvIndex((3, 2)))
        assert a.value == b.value and a.error == b.error


class TestStuffleProduct:
    def test_two_times_three(self):
        out = stuffle_product(MzvIndex((2,)), MzvIndex((3,)))
        assert out == {
            MzvIndex((2, 3)): 1,
            MzvIndex((3, 2)): 1,
            MzvIndex((5,)): 1,
        }

    def test_square_of_two(self):
        out = stuffle_product(MzvIndex((2,)), MzvIndex((2,)))
        assert out == {MzvIndex((2, 2)): 2, MzvIndex((4,)): 1}

    def test_empty_is_neutral(self):
        out = stuffle_product(MzvIndex(()), MzvIndex((3,)))
        assert out == {MzvIndex((3,)): 1}

    def test_colours_contract_mod_one(self):
        half = MzvIndex((1,), (HALF,))
        out = stuffle_product(half, half)
        assert out == {
            MzvIndex((1, 1), (HALF, HALF)): 2,
            MzvIndex((2,), (0,)): 1,
        }

    def test_coloured_contraction_numerically(self):
        half = MzvIndex((1,), (HALF,))
        lhs = ze_eval(half).value ** 2
        rhs = (
            2 * ze_eval(MzvIndex((1, 1), (HALF, HALF))).value
            + ze_eval(MzvIndex((2,))).value
        )
        assert abs(lhs - rhs) < 1e-12


class TestDictionary:
    def test_depth_one(self):
        assert ze_to_wa(MzvIndex((2,))).phases == (Fraction(0), None)
        assert ze_to_wa(MzvIndex((3,))).phases == (Fraction(0), None, None)

    def test_depth_two(self):
        assert ze_to_wa(MzvIndex((2, 1))).phases == (Fraction(0), Fraction(0), None)

    def test_colours_accumulate(self):
        w = ze_to_wa(MzvIndex((2,), (HALF,)))
        assert w.phases == (HALF, None)
        w = ze_to_wa(MzvIndex((2, 1), (HALF, HALF)))
        assert w.phases == (Fraction(0), HALF, None)

    def test_letters_are_inverse_roots(self):
        assert ze_to_wa(MzvIndex((1,), (THIRD,))).phases == (Fraction(2, 3),)
        w = ze_to_wa(MzvIndex((2, 1), (THIRD, QUARTER)))
        assert w.phases == (Fraction(5, 12), Fraction(2, 3), None)

    def test_decoding_inverts_spelling(self):
        colours = (0, HALF, THIRD, QUARTER, SIXTH)
        for s in [(1,), (2,), (3,), (1, 1), (2, 1), (1, 2), (2, 1, 1)]:
            for eps in product(colours, repeat=len(s)):
                if s[0] == 1 and eps[0] == 0:
                    continue
                idx = MzvIndex(s, eps)
                assert _decode_word(ze_to_wa(idx)) == idx

    def test_length_is_weight(self):
        for idx in [MzvIndex((2, 2)), MzvIndex((3, 1)), MzvIndex((2, 1, 1))]:
            assert ze_to_wa(idx).length == idx.weight

    def test_empty_has_no_word(self):
        with pytest.raises(ValueError):
            ze_to_wa(MzvIndex(()))

    def test_divergent_rejected_before_spelling(self):
        with pytest.raises(DivergentIndexError):
            ze_to_wa((1, 2))


class TestWaEval:
    def test_precision_floor(self):
        with pytest.raises(ValueError, match="precision"):
            wa_eval(WaWord((1, 0)), prec=1)

    DICTIONARY = [
        ((1, 0), (2,), (), lambda: mpmath.pi**2 / 6),
        ((-1,), (1,), (HALF,), lambda: -mpmath.log(2)),
        ((-1, 0), (2,), (HALF,), lambda: -mpmath.pi**2 / 12),
        ((1, 0, 0), (3,), (), lambda: mpmath.zeta(3)),
        ((1, 1, 0), (2, 1), (), lambda: mpmath.zeta(3)),
        ((1, 0, 1, 0), (2, 2), (), lambda: mpmath.pi**4 / 120),
        ((1, 1, 0, 0), (3, 1), (), lambda: mpmath.pi**4 / 360),
        ((1, 1, 1, 0), (2, 1, 1), (), lambda: mpmath.pi**4 / 90),
    ]

    @pytest.mark.parametrize("letters,s,eps,exact", DICTIONARY,
                             ids=[str(c[0]) for c in DICTIONARY])
    def test_dictionary_consistency(self, wa_values, letters, s, eps, exact):
        """The two-representation link: quadrature matches the nested sum
        within 1e-6 on every weight <= 4 index, and within the reported
        errors."""
        wa = wa_values(*letters)
        ze = ze_eval(MzvIndex(s, eps))
        assert ze_to_wa(MzvIndex(s, eps)).phases == WaWord(letters).phases
        assert not wa.flagged
        assert wa.certified
        assert abs(wa.value - exact()) <= wa.error
        assert abs(wa.value - ze.value) < 1e-6
        assert abs(wa.value - ze.value) <= wa.error + ze.error

    # every colour of {0, 1/2, 1/3, 1/4, 1/6} in each slot, every shape of
    # depth <= 2 and weight <= 3
    COLOURED = [
        ((1,), (THIRD,)), ((1,), (SIXTH,)), ((2,), (QUARTER,)),
        ((3,), (THIRD,)), ((1, 1), (THIRD, QUARTER)), ((1, 1), (QUARTER, HALF)),
        ((1, 1), (SIXTH, 0)), ((2, 1), (THIRD, QUARTER)), ((2, 1), (0, SIXTH)),
        ((2, 1), (HALF, THIRD)), ((1, 2), (SIXTH, HALF)),
        ((1, 2), (QUARTER, THIRD)), ((1, 2), (THIRD, SIXTH)),
    ]

    @pytest.mark.parametrize("s,eps", COLOURED,
                             ids=[f"{c[0]}{tuple(map(str, c[1]))}"
                                  for c in COLOURED])
    def test_complex_colours_agree(self, s, eps):
        """Sum and integral agree within their reported errors off the
        real-colour slice, where a conjugated dictionary differs by
        0.1 to 1.8."""
        idx = MzvIndex(s, eps)
        ze = ze_eval(idx)
        wa = wa_eval(ze_to_wa(idx))
        assert abs(ze.value - wa.value) <= ze.error + wa.error

    def test_quadrature_against_direct_integral(self, wa_values):
        direct = mpmath.quad(lambda z: -mpmath.log(1 - z) / z, [0, 1])
        assert abs(wa_values(1, 0).value - direct) < 1e-10
        direct = mpmath.quad(lambda z: 1 / (-1 - z), [0, 1])
        assert abs(wa_values(-1).value - direct) < 1e-12

    def test_real_word_returns_real_value(self, wa_values):
        assert isinstance(wa_values(1, 0).value, mpmath.mpf)

    def test_length_cap(self):
        """A word's length is its weight: up to MAX_WEIGHT letters."""
        with pytest.raises(NotImplementedError):
            wa_eval(WaWord((1,) + (0,) * 12))

    def test_endpoint_series_leave_the_unit(self):
        """With the endpoint slivers summed as series, (4, 1) reports
        about one unit at 53 bits, not an endpoint allowance."""
        idx = MzvIndex((4, 1))
        wa = wa_eval(ze_to_wa(idx))
        assert wa.error < 1e-14
        assert abs(wa.value - ze_eval(idx).value) <= wa.error

    # (4, 1), (4, 3, 2, 1) and a weight-12 coloured word, then a seeded
    # sample of the supported domain
    NAMED = [((4, 1), (0, 0)), ((4, 3, 2, 1), (0, 0, 0, 0)),
             ((5, 4, 2, 1), (Fraction(1, 5), Fraction(2, 7),
                             Fraction(3, 11), Fraction(5, 12)))]

    @staticmethod
    def domain_sample(seed, count):
        """Indices of depth 1 to 4 and weight up to 12, with colours of
        denominator up to 12 and a convergent head."""
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            depth = rng.randint(1, 4)
            weight = rng.randint(depth, 12)
            cuts = sorted(rng.sample(range(1, weight), depth - 1))
            s = tuple(b - a for a, b in zip([0] + cuts, cuts + [weight]))
            eps = []
            for _ in s:
                d = rng.randint(1, MAX_COLOUR_DENOMINATOR)
                eps.append(Fraction(rng.choice(
                    [k for k in range(d) if gcd(k, d) == 1]), d))
            if (s[0], eps[0]) != (1, 0):
                out.append((s, tuple(eps)))
        return out

    @pytest.mark.parametrize("prec,sample", [(53, 60), (113, 20)])
    def test_domain_sample_agrees(self, prec, sample):
        """Sum and integral agree within their summed errors over the
        whole supported domain, at 53 bits, where the unit dominates, and
        at 113, where the panel estimate does."""
        for s, eps in self.NAMED + self.domain_sample(prec, sample):
            idx = MzvIndex(s, eps)
            ze, wa = ze_eval(idx, prec=prec), wa_eval(ze_to_wa(idx), prec=prec)
            assert abs(ze.value - wa.value) <= ze.error + wa.error, (s, eps)

    def test_agrees_within_four_units_at_113_bits(self):
        """With a degree that follows prec, sum and integral agree at 113
        bits within their errors and within 4 units 2^-113 (1 + |value|),
        on NAMED and a seeded sample; a fixed degree stalled at about
        1e-23 here."""
        for s, eps in self.NAMED + self.domain_sample(2025, 10):
            idx = MzvIndex(s, eps)
            ze, wa = ze_eval(idx, prec=113), wa_eval(ze_to_wa(idx), prec=113)
            gap = abs(ze.value - wa.value)
            assert gap <= ze.error + wa.error, (s, eps)
            assert gap <= mpmath.ldexp(4 * (1 + abs(ze.value)), -113), \
                (s, eps)

    def test_error_below_1e_70_at_240_bits(self):
        """At 240 bits each error is at most 1e-70, and each call, the
        first at its degree included, takes under half a second of this
        process's time."""
        for s, eps in self.NAMED + self.domain_sample(2026, 10):
            word = ze_to_wa(MzvIndex(s, eps))
            began = time.process_time()
            wa = wa_eval(word, prec=240)
            assert time.process_time() - began < 0.5, (s, eps)
            assert wa.certified and wa.error <= mpmath.mpf("1e-70"), (s, eps)

    def test_non_integrable_words_rejected(self):
        with pytest.raises(DivergentIndexError):
            wa_eval(WaWord((1, 0, 1)))

    def test_out_of_dictionary_word_is_flagged(self):
        """Cumulative phases 1/11 and 1/12 difference to a colour of
        denominator 132, outside the supported set, so no nested sum
        anchors this word's sign convention."""
        ev = wa_eval(WaWord((Fraction(1, 11), Fraction(1, 12))))
        assert ev.flagged

    def test_small_denominators_not_flagged(self):
        ev = wa_eval(WaWord((THIRD, 0)))
        assert not ev.flagged


class TestShuffleSymmetry:
    def test_square_of_simplest_word(self, wa_values):
        """Interleaving (1,0) with itself gives 2 copies of (1,0,1,0)
        and 4 of (1,1,0,0); the identity is checked on quadrature values
        alone, so it probes the integral side, not the dictionary."""
        product = wa_values(1, 0).value ** 2
        total = 2 * wa_values(1, 0, 1, 0).value + 4 * wa_values(1, 1, 0, 0).value
        budget = (
            2 * abs(wa_values(1, 0).value) * wa_values(1, 0).error
            + 2 * wa_values(1, 0, 1, 0).error
            + 4 * wa_values(1, 1, 0, 0).error
        )
        assert abs(product - total) <= budget + mpmath.mpf(1e-12)

    def test_mixed_length_three(self, wa_values):
        """(1,0) shuffled with (-1) has the three interleavings
        (-1,1,0), (1,-1,0), (1,0,-1), all integrable."""
        product = wa_values(1, 0).value * wa_values(-1).value
        total = (
            wa_values(-1, 1, 0).value
            + wa_values(1, -1, 0).value
            + wa_values(1, 0, -1).value
        )
        assert abs(product - total) < 1e-9


class TestVerifyRelation:
    def test_square_of_zeta_two(self):
        """Both decompositions of zeta(2)^2: the nested-sum side gives
        2 ze(2,2) + ze(4), the integral side 2 ze(2,2) + 4 ze(3,1), and
        both equal pi^4/36."""
        report = verify_relation(MzvIndex((2,)), MzvIndex((2,)))
        assert report.ok
        exact = mpmath.pi**4 / 36
        assert abs(report.product_value - exact) < 1e-8
        by_mode = {check.mode: check for check in report.checks}
        assert dict(by_mode["stuffle"].terms) == {
            MzvIndex((2, 2)): 2,
            MzvIndex((4,)): 1,
        }
        assert dict(by_mode["shuffle"].terms) == {
            MzvIndex((2, 2)): 2,
            MzvIndex((3, 1)): 4,
        }
        for check in report.checks:
            assert abs(check.value - exact) < 1e-8
            assert check.residual <= check.budget

    def test_zeta_two_times_zeta_three(self):
        report = verify_relation(MzvIndex((2,)), MzvIndex((3,)))
        assert report.ok
        by_mode = {check.mode: check for check in report.checks}
        assert dict(by_mode["stuffle"].terms) == {
            MzvIndex((2, 3)): 1,
            MzvIndex((3, 2)): 1,
            MzvIndex((5,)): 1,
        }
        exact = mpmath.pi**2 / 6 * mpmath.zeta(3)
        assert abs(by_mode["stuffle"].value - exact) < 1e-8

    def test_neutral_factor(self):
        report = verify_relation(MzvIndex(()), MzvIndex((2,)))
        assert report.ok
        for check in report.checks:
            assert dict(check.terms) == {MzvIndex((2,)): 1}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            verify_relation(MzvIndex((2,)), MzvIndex((2,)), modes=("cyclic",))

    def test_empty_modes_rejected(self):
        """A report with no checks would be ok vacuously."""
        with pytest.raises(ValueError, match="at least one"):
            verify_relation(MzvIndex((2,)), MzvIndex((2,)), modes=())

    def test_report_serialises(self):
        report = verify_relation(MzvIndex((2,)), MzvIndex((2,)))
        data = report.to_dict()
        assert data["ok"] is True
        assert {c["mode"] for c in data["checks"]} == {"stuffle", "shuffle"}
        for check in data["checks"]:
            assert set(check) >= {"terms", "value", "residual", "budget", "ok"}


def _convergent_pairs():
    """Pairs of depth <= 2 convergent indices with total weight <= 8,
    over a few colours, so every stuffle term stays evaluable."""
    colours = [Fraction(0), HALF, THIRD]
    pool = []
    for s1 in range(1, 5):
        for e1 in colours:
            if s1 == 1 and e1 == 0:
                continue
            pool.append(MzvIndex((s1,), (e1,)))
            for s2 in range(1, 4):
                for e2 in colours:
                    pool.append(MzvIndex((s1, s2), (e1, e2)))
    return [
        (a, b)
        for a in pool
        for b in pool
        if a.weight + b.weight <= 8
    ]


class TestStuffleSymmetryProperty:
    """The nested sums multiply by the quasi-shuffle of their indices.
    Budgets come from the certified bounds, so a violation would be a
    genuine contradiction, not a tolerance artifact."""

    PAIRS = _convergent_pairs()

    @settings(max_examples=12, deadline=None)
    @given(st.sampled_from(PAIRS))
    def test_product_matches_stuffle(self, pair):
        a, b = pair
        report = verify_relation(a, b, modes=("stuffle",))
        assert report.ok
