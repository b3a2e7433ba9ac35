"""Mould algebra: product group laws, composition, exp/log, predicates.

Random moulds are built from fixed-seed rationals so failures reproduce.
Alternal inputs are manufactured from letter-supported moulds (alternal for
trivial reasons) and their product brackets; the bracket-closure fact is
itself asserted separately.
"""

import json
import math
import random
from fractions import Fraction

import pytest

from resurgence import _work
from resurgence.errors import CarrierEscapeError, TruncationError
from resurgence.hyperlog import MonomialFamily, v_mould
from resurgence.moulds import (
    Mould,
    comp_inverse,
    exp_scale_mould,
    identity_mould,
    is_alternal,
    is_alternel,
    is_symmetral,
    is_symmetrel,
    mould_exp,
    mould_from_json,
    mould_log,
    mould_to_json,
    passage_mould,
    unit_mould,
)
from resurgence.scalars import ExactScalar, GaussianRational
from resurgence.series import FormalSeries
from resurgence.words import (EMPTY, Alphabet, Word, letter_sort_key,
                              lyndon_factorization, shuffle)

S = ExactScalar.from_rational
AB = Alphabet([1, 2])
CLOSURE = Alphabet(list(range(1, 9)))


def random_mould(alphabet, max_length, rng, empty_value=0):
    entries = {EMPTY: S(empty_value)}
    for w in alphabet.words(max_length, min_length=1):
        entries[w] = S(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return Mould(alphabet, max_length, entries=entries)


def random_alternal(alphabet, max_length, rng):
    """A random alternal mould: a combination of letter-supported moulds and
    one product bracket (letter-supported moulds are alternal because every
    shuffle of two nonempty words has length at least two)."""

    def letters_only():
        entries = {
            Word((a,)): S(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
            for a in alphabet
        }
        return Mould(alphabet, max_length, entries=entries)

    m1, m2, m3 = letters_only(), letters_only(), letters_only()
    bracket = m1 * m2 - m2 * m1
    deep = (m1 * bracket - bracket * m1).scale(Fraction(rng.randint(-2, 2), 3))
    return m2 + bracket.scale(Fraction(rng.randint(-2, 2), 2)) + deep + m3


class TestProductGroup:
    def test_unit_laws(self):
        rng = random.Random(1)
        m = random_mould(AB, 3, rng, empty_value=2)
        one = unit_mould(AB)
        assert (one * m).same_entries(m)
        assert (m * one).same_entries(m)

    def test_associativity(self):
        rng = random.Random(2)
        a = random_mould(AB, 3, rng, empty_value=1)
        b = random_mould(AB, 3, rng, empty_value=-1)
        c = random_mould(AB, 3, rng, empty_value=2)
        assert ((a * b) * c).same_entries(a * (b * c))

    def test_product_formula_by_hand(self):
        # length-2 expansion of (M*N)^(1,2)
        rng = random.Random(3)
        m = random_mould(AB, 2, rng, empty_value=1)
        n = random_mould(AB, 2, rng, empty_value=2)
        w = Word((1, 2))
        expect = (
            m[EMPTY] * n[w]
            + m[Word((1,))] * n[Word((2,))]
            + m[w] * n[EMPTY]
        )
        assert (m * n)[w] == expect

    def test_mult_inverse_two_sided(self):
        rng = random.Random(4)
        m = random_mould(AB, 4, rng, empty_value=3)
        inv = m.mult_inverse()
        one = unit_mould(AB).materialize(AB, 4)
        assert (m * inv).same_entries(one)
        assert (inv * m).same_entries(one)

    def test_exp_log_bijection(self):
        rng = random.Random(5)
        m = random_mould(AB, 4, rng, empty_value=0)
        assert mould_log(mould_exp(m)).same_entries(m)
        g = random_mould(AB, 4, rng, empty_value=1)
        assert mould_exp(mould_log(g)).same_entries(g)

    def test_exp_log_keep_series_zero(self):
        # series-valued moulds: exp and log stay in the ring of series
        rng = random.Random(6)
        zero = FormalSeries.zero(3)
        entries = {w: FormalSeries([S(Fraction(rng.randint(-3, 3), k + 1))
                                    for k in range(4)], order=3)
                   for w in AB.words(3, min_length=1)}
        m = Mould(AB, 3, entries=entries, zero=zero)
        e = mould_exp(m)
        assert isinstance(e.zero, FormalSeries)
        assert e[EMPTY] == zero.one()
        back = mould_log(e)
        assert isinstance(back.zero, FormalSeries)
        assert back.same_entries(m)

    def test_exp_scale_group(self):
        # Exp_w * Exp_w' = Exp_{w+w'}, and w = 1/2, -1/2 cancel to the unit
        half = exp_scale_mould(Fraction(1, 2)).materialize(AB, 4)
        neg = exp_scale_mould(Fraction(-1, 2)).materialize(AB, 4)
        one = unit_mould(AB).materialize(AB, 4)
        assert (half * neg).same_entries(one)
        third = exp_scale_mould(Fraction(1, 3)).materialize(AB, 4)
        sixth = exp_scale_mould(Fraction(5, 6)).materialize(AB, 4)
        assert (half * third).same_entries(sixth)

    @pytest.mark.parametrize("alphabet", [Alphabet([1]), AB], ids=str)
    def test_exp_scale_entries_follow_the_formula(self, alphabet):
        """The entries computed once per length equal (==) w^r / r! taken
        afresh for every word, to length 6."""
        w = ExactScalar.coerce(Fraction(-2, 3))
        m = exp_scale_mould(w).materialize(alphabet, 6)
        words = list(alphabet.words(6))
        assert len(m.entries) == len(words)
        for word in words:
            assert m[word] == w**len(word) / math.factorial(len(word))

    def test_log_of_exp_scale_is_scaled_identity(self):
        e = exp_scale_mould(2).materialize(AB, 4)
        want = identity_mould(AB).materialize(AB, 4).scale(2)
        assert mould_log(e).same_entries(want)


def sparse_mould(alphabet, max_length, rng):
    """A random mould with about half of its entries zero, the empty word
    included."""
    entries = {w: S(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
               for w in alphabet.words(max_length) if rng.random() < 0.5}
    return Mould(alphabet, max_length, entries=entries)


def dense_product(m, n, alphabet, max_length):
    """The product by its definition, sum over w = a.b of m^a n^b, every
    word up to max_length and every split read through lookup: the
    nonzero sums in alphabet.words order."""
    out = {}
    for w in alphabet.words(max_length):
        acc = m[w[:0]] * n[w]
        for k in range(1, len(w) + 1):
            acc = acc + m[w[:k]] * n[w[k:]]
        if not acc.is_zero():
            out[w] = acc
    return out


def comparable(entries):
    """(word, value) pairs in stored order; a series is compared by its
    order and coefficients."""
    return [(w, (v.order, tuple(v.coeffs)) if isinstance(v, FormalSeries)
             else v) for w, v in entries.items()]


def series_mould(fam, max_length, rng):
    zero = FormalSeries.zero(fam.order)
    entries = {w: FormalSeries([S(Fraction(rng.randint(-3, 3), k + 1))
                                for k in range(fam.order + 1)],
                               order=fam.order)
               for w in fam.alphabet.words(max_length) if rng.random() < 0.5}
    return Mould(fam.alphabet, max_length, entries=entries, zero=zero)


class TestSparseProduct:
    """The product multiplies stored entries only; it equals the product
    by its definition, in the same entry order."""

    @pytest.mark.parametrize("letters,lengths,seed", [
        ([1, 2], (3, 4), 11), ([1, 2], (4, 2), 12), ([1, 2, 3], (3, 2), 13),
        ([1, 2, 3], (2, 3), 14), ([1, 2, 3], (3, 3), 15)])
    def test_equals_dense_reference(self, letters, lengths, seed):
        rng = random.Random(seed)
        alphabet = Alphabet(letters)
        m, n = (sparse_mould(alphabet, L, rng) for L in lengths)
        L = min(lengths)
        for a, b in ((m, n), (n, m)):
            product = a * b
            assert product.max_length == L
            assert comparable(product.entries) == comparable(
                dense_product(a, b, alphabet, L))

    @pytest.mark.parametrize("rule", ["unit", "exp_scale"])
    def test_rule_backed_factor_either_side(self, rule):
        rng = random.Random(21)
        m = sparse_mould(AB, 3, rng)
        r = unit_mould() if rule == "unit" else exp_scale_mould(
            Fraction(-2, 3))
        for a, b in ((m, r), (r, m)):
            product = a * b
            assert (product.alphabet, product.max_length) == (AB, 3)
            assert comparable(product.entries) == comparable(
                dense_product(a, b, AB, 3))

    def test_series_valued_rule_factor(self):
        from resurgence.hyperlog import MonomialFamily, v_mould

        fam = MonomialFamily([1, 2], order=4)
        rng = random.Random(22)
        v = v_mould(fam)
        for m in (series_mould(fam, 3, rng), sparse_mould(fam.alphabet, 3,
                                                          rng)):
            for a, b in ((m, v), (v, m)):
                product = a * b
                assert product.zero is a.zero
                assert comparable(product.entries) == comparable(
                    dense_product(a, b, fam.alphabet, 3))

    def test_entries_follow_alphabet_words_order(self):
        rng = random.Random(23)
        alphabet = Alphabet([1, 2, 3])
        product = sparse_mould(alphabet, 3, rng) * sparse_mould(alphabet, 3,
                                                                rng)
        order = [w for w in alphabet.words(3) if w in product.entries]
        assert list(product.entries) == order
        assert len(order) > 10

    def test_cancelling_sum_stores_no_entry(self):
        w = Word((1, 2))
        m = Mould(AB, 2, entries={Word((1,)): S(1), w: S(-1)})
        n = Mould(AB, 2, entries={EMPTY: S(1), Word((2,)): S(1)})
        product = m * n
        assert w not in product.entries
        assert product[w].is_zero()
        assert product.entries == {Word((1,)): S(1)}

    def test_power_stores_no_word_shorter_than_its_exponent(self):
        rng = random.Random(24)
        x = random_mould(AB, 4, rng, empty_value=0)
        power = unit_mould(AB)
        for k in range(1, 5):
            power = power * x
            assert power.entries
            assert min(map(len, power.entries)) == k

    def test_multiplies_stored_pairs_only(self, monkeypatch):
        # two entries each, one pair too long: three scalar products
        m = Mould(AB, 3, entries={Word((1,)): S(2), Word((1, 2)): S(3)})
        n = Mould(AB, 3, entries={Word((2,)): S(5), Word((2, 1)): S(7)})
        calls = []
        mul = ExactScalar.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(ExactScalar, "__mul__", counted)
        product = m * n
        assert len(calls) == 3
        assert product.entries == {Word((1, 2)): S(10),
                                   Word((1, 2, 1)): S(14),
                                   Word((1, 2, 2)): S(15)}


class TestComposition:
    def test_identity_is_two_sided_unit(self):
        rng = random.Random(6)
        u = random_mould(AB, 3, rng, empty_value=0)
        assert identity_mould().compose(u).same_entries(u)
        # M o I = M needs M's own alphabet on the inside
        m = random_mould(AB, 3, rng, empty_value=5)
        ident = identity_mould(AB).materialize(AB, 3)
        assert m.compose(ident).same_entries(m)

    def test_compose_formula_by_hand(self):
        rng = random.Random(7)
        m = random_mould(CLOSURE, 2, rng, empty_value=1)
        u = random_mould(AB, 2, rng, empty_value=0)
        w = Word((1, 2))
        expect = (
            m[Word((3,))] * u[w]
            + m[Word((1, 2))] * u[Word((1,))] * u[Word((2,))]
        )
        assert m.compose(u)[w] == expect

    def test_compose_associativity(self):
        rng = random.Random(8)
        outer = exp_scale_mould(Fraction(1, 2))
        mid = random_mould(CLOSURE, 3, rng, empty_value=0)
        inner = random_mould(AB, 3, rng, empty_value=0)
        left = outer.compose(mid).compose(inner)
        right = outer.compose(mid.compose(inner))
        assert left.same_entries(right)

    def test_carrier_escape(self):
        rng = random.Random(9)
        m = random_mould(AB, 3, rng, empty_value=1)  # alphabet {1,2} only
        u = random_mould(AB, 3, rng, empty_value=0)
        with pytest.raises(CarrierEscapeError):
            m.compose(u)  # needs entries at letter sums 3 and 4

    def test_comp_inverse_carrier_escape(self):
        rng = random.Random(11)
        v = random_mould(AB, 2, rng, empty_value=0)
        for a in AB:
            v.entries[Word((a,))] = S(a)
        # the word (1, 2) needs the outer entry at its letter sum 3
        with pytest.raises(CarrierEscapeError):
            comp_inverse(v)

    def test_comp_inverse_right_inverse(self):
        rng = random.Random(10)
        v = random_mould(CLOSURE, 3, rng, empty_value=0)
        # make all single-letter entries invertible
        for a in CLOSURE:
            v.entries[Word((a,))] = S(Fraction(rng.randint(1, 5)))
        w = comp_inverse(v, letters=[1, 2])
        ident = identity_mould(AB).materialize(AB, 3)
        assert v.compose(w).same_entries(ident)

    def test_comp_inverse_two_sided_on_sum_closed_alphabet(self):
        # the alphabet {0} is closed under addition, so both compositions
        # stay inside the truncation and the inverse is genuinely two-sided
        zero_alph = Alphabet([0])
        rng = random.Random(101)
        v = random_mould(zero_alph, 4, rng, empty_value=0)
        v.entries[Word((0,))] = S(Fraction(3, 2))
        w = comp_inverse(v)
        ident = identity_mould(zero_alph).materialize(zero_alph, 4)
        assert v.compose(w).same_entries(ident)
        assert w.compose(v).same_entries(ident)


class TestPredicates:
    def test_exp_scale_is_symmetral_not_alternal(self):
        e = exp_scale_mould(Fraction(2, 3)).materialize(AB, 4)
        assert is_symmetral(e)
        assert not is_alternal(e)

    def test_letter_supported_and_brackets_are_alternal(self):
        rng = random.Random(11)
        for _ in range(5):
            a = random_alternal(AB, 4, rng)
            assert is_alternal(a)

    def test_lie_closure_of_alternals(self):
        rng = random.Random(12)
        a = random_alternal(AB, 3, rng)
        b = random_alternal(AB, 3, rng)
        assert is_alternal(a * b - b * a)
        # and the plain product is not alternal in general
        prod = a * b
        assert not is_alternal(prod) or is_alternal(b * a)

    def test_group_closure_of_symmetrals(self):
        e1 = exp_scale_mould(Fraction(1, 2)).materialize(AB, 4)
        rng = random.Random(13)
        a = random_alternal(AB, 4, rng)
        e2 = mould_exp(a)  # exp of alternal is symmetral
        assert is_symmetral(e2)
        assert is_symmetral(e1 * e2)
        assert is_symmetral(e2.mult_inverse())

    def test_constant_sign_mould_is_symmetrel(self):
        # M^w = (-1)^(length w) satisfies the stuffle law; checked by hand
        # at depths (1,1), (1,2) and (2,2) and here by full enumeration.
        # Pairs are drawn from {1,...,4} so contractions stay within 1..8.
        entries = {
            w: S((-1) ** len(w)) for w in CLOSURE.words(4)
        }
        m = Mould(CLOSURE, 4, entries=entries)
        assert is_symmetrel(m, max_length=4, letters=[1, 2, 3, 4])
        assert not is_alternel(m, max_length=4, letters=[1, 2, 3, 4])

    def test_alternel_by_construction_depth_two(self):
        # A^(c) free, A^(a,b) = -(A^(a+b))/2 makes depth-two stuffles vanish
        entries = {}
        for c in CLOSURE:
            entries[Word((c,))] = S(Fraction(c, 2))
        for a in CLOSURE:
            for b in CLOSURE:
                if a + b <= 8:
                    entries[Word((a, b))] = S(Fraction(-(a + b), 4))
        m = Mould(CLOSURE, 2, entries=entries)
        assert is_alternel(m, max_length=2, letters=[1, 2, 3, 4])
        bad = Mould(CLOSURE, 2, entries={**entries, Word((1, 1)): S(7)})
        assert not is_alternel(bad, max_length=2, letters=[1, 2, 3, 4])


def pair_law(m, symmetral, max_length=None, letters=None):
    """The shuffle law by the pair enumeration: for every pair of nonempty
    words a, b over the letters with |a| + |b| <= max_length, the sum of m
    over the shuffles of a and b, with multiplicities, vanishes (alternal)
    or equals m^a m^b (symmetral)."""
    L = m.max_length if max_length is None else max_length
    alphabet = m.alphabet if letters is None else Alphabet(letters)
    for n in range(2, L + 1):
        for la in range(1, n):
            for a in alphabet.words(la, min_length=la):
                for b in alphabet.words(n - la, min_length=n - la):
                    acc = None
                    for w, mult in shuffle(a, b).items():
                        v = m[w] * mult
                        acc = v if acc is None else acc + v
                    if symmetral and not acc == m[a] * m[b]:
                        return False
                    if not symmetral and not acc.is_zero():
                        return False
    return True


def keys(word):
    return [letter_sort_key(a) for a in word]


def is_lyndon(word):
    """Nonempty and strictly smaller than each proper nonempty suffix."""
    return bool(word) and all(keys(word) < keys(word[i:])
                              for i in range(1, len(word)))


def witt(k, n):
    """The number of Lyndon words of length n over k letters,
    (1/n) sum over d | n of mu(d) k^(n/d)."""
    def mu(d):
        sign, p = 1, 2
        while d > 1:
            if d % p == 0:
                d //= p
                if d % p == 0:
                    return 0
                sign = -sign
            p += 1
        return sign

    return sum(mu(d) * k ** (n // d) for d in range(1, n + 1)
               if n % d == 0) // n


TAU = ExactScalar.tau()
# (alphabet, length) of the seeded law cases: 1 to 3 letters, plain and
# exact-scalar (multiples of 2 pi i)
LAW_ALPHABETS = [
    (Alphabet([1]), 6),
    (Alphabet([1, 2]), 6),
    (Alphabet([3, 1, 2]), 4),
    (Alphabet([TAU, TAU * 2]), 5),
    (Alphabet([TAU, TAU * Fraction(-1, 2), TAU * 3]), 4),
]


def law_moulds(alphabet, L, rng):
    """The exp of a letter-supported mould (symmetral), a bracket
    combination (alternal) and a random mould, each as built and with one
    entry of length >= 2 perturbed."""
    letters = Mould(alphabet, L, entries={
        Word((a,)): S(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for a in alphabet})
    built = [mould_exp(letters), random_alternal(alphabet, L, rng),
             random_mould(alphabet, L, rng, empty_value=1)]
    out = []
    for m in built:
        w = rng.choice(list(alphabet.words(L, min_length=2)))
        delta = S(Fraction(rng.choice([-1, 1]), rng.randint(1, 3)))
        out += [m, Mould(alphabet, L, entries={**m.entries,
                                                w: m[w] + delta})]
    return out


class TestLyndonBasis:
    """The shuffle laws on one condition per non-Lyndon word decide what
    the pair enumeration decides (moulds module docstring)."""

    @pytest.mark.parametrize("k,L", [(1, 8), (2, 7), (3, 5), (4, 4)])
    def test_factorization(self, k, L):
        """Each word is the concatenation of nonincreasing Lyndon factors,
        and the words of one factor are Witt's count."""
        alphabet = Alphabet(range(1, k + 1))
        for n in range(1, L + 1):
            lyndon = 0
            for w in alphabet.words(n, min_length=n):
                factors = lyndon_factorization(w)
                assert Word(sum(factors, ())) == w
                assert all(type(f) is Word and is_lyndon(f) for f in factors)
                assert all(keys(f) >= keys(g)
                           for f, g in zip(factors, factors[1:]))
                lyndon += len(factors) == 1
            assert lyndon == witt(k, n)
        assert lyndon_factorization(()) == ()

    def test_factorization_of_scalar_letters(self):
        """Exact scalars compare as Alphabet sorts them."""
        a, b = Alphabet([TAU * 2, TAU]).letters
        assert lyndon_factorization((b, a, a, b, a)) == (
            Word((b,)), Word((a, a, b)), Word((a,)))

    @pytest.mark.parametrize("case", range(len(LAW_ALPHABETS)))
    def test_laws_match_the_pair_enumeration(self, case):
        alphabet, L = LAW_ALPHABETS[case]
        rng = random.Random(3700 + case)
        sub = alphabet.letters[::-1][:max(1, len(alphabet) - 1)]
        outcomes = []
        for m in law_moulds(alphabet, L, rng) + law_moulds(alphabet, L, rng):
            for length, letters in [(None, None), (L - 1, None),
                                    (None, sub), (L - 2, sub)]:
                for symmetral, law in [(False, is_alternal),
                                       (True, is_symmetral)]:
                    got = law(m, max_length=length, letters=letters)
                    assert got == pair_law(m, symmetral, length, letters)
                    outcomes.append(got)
        assert True in outcomes and False in outcomes

    def test_every_single_perturbation_is_seen(self):
        """A symmetral and an alternal mould over two letters with any one
        entry of length 2 .. 4 changed: both forms say no."""
        rng = random.Random(3750)
        letters = Mould(AB, 4, entries={Word((a,)): S(a) for a in AB})
        for m, law in [(mould_exp(letters), is_symmetral),
                       (random_alternal(AB, 4, rng), is_alternal)]:
            assert law(m)
            for w in AB.words(4, min_length=2):
                bad = Mould(AB, 4, entries={**m.entries, w: m[w] + S(1)})
                assert not law(bad)
                assert not pair_law(bad, law is is_symmetral)

    def test_series_valued_v_mould(self):
        """The rule-backed series-valued mould of a monomial family, and a
        stored copy with one entry changed."""
        fam = MonomialFamily([1, 2], order=4)
        v = v_mould(fam)
        for length, letters in [(3, None), (3, [2]), (2, [1, 2])]:
            assert is_symmetral(v, length, letters)
            assert pair_law(v, True, length, letters)
            assert not is_alternal(v, length, letters)
            assert not pair_law(v, False, length, letters)
        table = v.materialize(fam.alphabet, 3)
        for w in [(1, 2), (2, 1, 1), (2, 2, 2)]:
            w = Word(w)
            bad = Mould(fam.alphabet, 3, zero=table.zero, entries={
                **table.entries, w: table[w] + table[w].one()})
            assert not is_symmetral(bad)
            assert not pair_law(bad, True)

    @pytest.mark.parametrize("k,L,conditions,leaves", [
        (2, 6, 103, 585), (3, 4, 88, 328), (2, 3, 9, 16), (1, 6, 5, 5)])
    def test_one_condition_per_non_lyndon_word(self, k, L, conditions,
                                               leaves):
        """A check that passes tests every non-Lyndon word of length
        2 .. L, where the pairs are sum over n of (n - 1) k^n."""
        alphabet = Alphabet(range(1, k + 1))
        zero = Mould(alphabet, L, entries={})
        with _work.counting() as counts:
            assert is_alternal(zero)
        expected = sum(k ** n - witt(k, n) for n in range(2, L + 1))
        assert counts["law_conditions"] == expected == conditions
        assert counts["law_leaves"] == leaves


class TestPassageMould:
    def test_values_and_symmetrality(self):
        i = GaussianRational(0, 1)
        letters = [
            ExactScalar.from_rational(1),
            ExactScalar.from_rational(2),
            ExactScalar.from_gaussian(i),
        ]
        al = Alphabet(letters)
        p = passage_mould(al, -0.1, 1.7)  # sector holds arg 0 and arg pi/2
        one, two, im = letters[1 - 1], letters[2 - 1], letters[2]
        assert p[Word((one,))] == S(1)
        # two letters on the real ray: one run of length 2
        assert p[Word((one, two))] == S(Fraction(1, 2))
        # increasing argument: separate runs
        assert p[Word((one, im))] == S(1)
        # decreasing argument: zero
        assert p[Word((im, one))] == S(0)
        assert is_symmetral(p.materialize(al, 3))

    def test_sector_excludes(self):
        letters = [ExactScalar.from_rational(1),
                   ExactScalar.from_gaussian(GaussianRational(0, 1))]
        al = Alphabet(letters)
        # sector (0.1, 1.7]: the positive real ray (arg 0) is outside
        p = passage_mould(al, 0.1, 1.7)
        assert p[Word((letters[0],))] == S(0)
        assert p[Word((letters[1],))] == S(1)

    def test_three_letter_run_weight(self):
        letters = [ExactScalar.from_rational(k) for k in (1, 2, 3)]
        al = Alphabet(letters)
        p = passage_mould(al, -0.5, 0.5)
        w = Word((letters[0], letters[1], letters[2]))
        assert p[w] == S(Fraction(1, 6))


class TestStorage:
    def test_truncation_error(self):
        rng = random.Random(14)
        m = random_mould(AB, 2, rng)
        with pytest.raises(TruncationError):
            m[Word((1, 1, 1))]

    def test_foreign_letter_lookup(self):
        rng = random.Random(15)
        m = random_mould(AB, 2, rng)
        with pytest.raises(CarrierEscapeError):
            m[Word((7,))]

    def test_json_roundtrip_bit_exact(self):
        rng = random.Random(16)
        m = random_mould(AB, 3, rng, empty_value=1)
        m.entries[Word((1, 2))] = ExactScalar.tau(-2) * GaussianRational(
            Fraction(1, 3), Fraction(-2, 7)
        )
        data = json.loads(json.dumps(mould_to_json(m)))
        m2 = mould_from_json(data)
        assert m2.same_entries(m)
        assert m2.alphabet == m.alphabet
        assert m2.max_length == m.max_length

    def test_scalar_letter_json(self):
        al = Alphabet([ExactScalar.tau(), ExactScalar.from_rational(1)])
        entries = {Word(()): S(1),
                   Word((ExactScalar.tau(),)): ExactScalar.i_pi()}
        m = Mould(al, 1, entries=entries)
        m2 = mould_from_json(json.loads(json.dumps(mould_to_json(m))))
        assert m2.same_entries(m)
