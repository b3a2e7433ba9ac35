"""Word combinatorics: shuffles, stuffles, splittings.

The brute-force oracle enumerates lattice paths directly (right, up, and for
the stuffle also diagonal steps), independently of the recursive production
rules used in the package.
"""

from fractions import Fraction
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from resurgence.words import (
    Alphabet,
    Word,
    add_letters,
    shuffle,
    shuffle_coefficient,
    splittings,
    stuffle,
)


def paths_oracle(a, b, diagonal=False, add=None):
    """Enumerate monotone lattice paths from (0,0) to (len(a), len(b)).

    Each path spells a word: a right step consumes a letter of ``a``, an up
    step a letter of ``b``, and (when ``diagonal``) a diagonal step consumes
    one of each, merged with ``add``.  Returns {word: count}.
    """
    out = {}
    stack = [(0, 0, ())]
    while stack:
        i, j, acc = stack.pop()
        if i == len(a) and j == len(b):
            out[Word(acc)] = out.get(Word(acc), 0) + 1
            continue
        if i < len(a):
            stack.append((i + 1, j, acc + (a[i],)))
        if j < len(b):
            stack.append((i, j + 1, acc + (b[j],)))
        if diagonal and i < len(a) and j < len(b):
            stack.append((i + 1, j + 1, acc + (add(a[i], b[j]),)))
    return out


class TestShuffle:
    def test_frozen_small_cases(self):
        # (1) shuffled with (1): the doubled word counts twice
        assert shuffle((1,), (1,)) == {Word((1, 1)): 2}
        # (1,2) with (1,): two ways to produce (1,1,2), one for (1,2,1)
        sh = shuffle((1, 2), (1,))
        assert sh == {Word((1, 1, 2)): 2, Word((1, 2, 1)): 1}
        assert shuffle_coefficient((1, 2), (1,), (1, 1, 2)) == 2
        assert shuffle_coefficient((1, 2), (1,), (1, 2, 1)) == 1
        assert shuffle_coefficient((1, 2), (1,), (2, 1, 1)) == 0

    def test_total_count_is_binomial(self):
        # distinct letters: every interleaving is distinct
        a, b = (1, 2, 3), (4, 5)
        sh = shuffle(a, b)
        assert all(m == 1 for m in sh.values())
        assert len(sh) == comb(5, 2)

    @given(
        st.lists(st.integers(1, 3), min_size=0, max_size=4),
        st.lists(st.integers(1, 3), min_size=0, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_path_oracle(self, a, b):
        assert shuffle(a, b) == paths_oracle(tuple(a), tuple(b))

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry(self, a, b):
        assert shuffle(a, b) == shuffle(b, a)


class TestStuffle:
    def test_frozen_depth_one(self):
        # (s1)*(s2) -> (s1,s2) + (s2,s1) + (s1+s2)
        assert stuffle((2,), (3,)) == {
            Word((2, 3)): 1,
            Word((3, 2)): 1,
            Word((5,)): 1,
        }

    def test_colored_merge(self):
        a = ((2, Fraction(1, 3)),)
        b = ((1, Fraction(5, 6)),)
        merged = (3, Fraction(1, 6))  # 1/3 + 5/6 = 7/6 = 1/6 mod 1
        st_ = stuffle(a, b)
        assert st_[Word((merged,))] == 1
        assert len(st_) == 3

    @given(
        st.lists(st.integers(1, 3), min_size=0, max_size=3),
        st.lists(st.integers(1, 3), min_size=0, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_against_path_oracle(self, a, b):
        got = stuffle(a, b)
        want = paths_oracle(tuple(a), tuple(b), diagonal=True, add=add_letters)
        assert got == want

    def test_term_count_delannoy(self):
        # with all-distinct labels the number of terms (with multiplicity)
        # is the Delannoy number D(m, n)
        a, b = (10, 20, 30), (1, 2)
        total = sum(stuffle(a, b).values())
        # D(3,2) = 25
        assert total == 25


class TestSplittings:
    def test_all_splittings_of_length_three(self):
        w = (1, 2, 3)
        got = set(splittings(w))
        want = {
            (Word((1, 2, 3)),),
            (Word((1,)), Word((2, 3))),
            (Word((1, 2)), Word((3,))),
            (Word((1,)), Word((2,)), Word((3,))),
        }
        assert got == want

    def test_empty_word_has_one_splitting(self):
        assert list(splittings(())) == [()]

    def test_count_is_composition_number(self):
        w = tuple(range(6))
        assert len(list(splittings(w))) == 2 ** (len(w) - 1)


class TestAlphabet:
    def test_sum_closure(self):
        al = Alphabet([1, 2], require_nonzero=True)
        assert al.sum_closure(2) == [1, 2, 3, 4]
        assert al.sum_closure(4) == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_word_enumeration_deterministic(self):
        al = Alphabet([2, 1])
        ws = list(al.words(2))
        assert ws == [
            Word(()),
            Word((1,)),
            Word((2,)),
            Word((1, 1)),
            Word((1, 2)),
            Word((2, 1)),
            Word((2, 2)),
        ]

    def test_rejects_zero_when_asked(self):
        import pytest

        with pytest.raises(ValueError):
            Alphabet([0, 1], require_nonzero=True)
        Alphabet([0, 1])  # fine without the flag

    def test_word_slicing_stays_word(self):
        w = Word((1, 2, 3))
        assert isinstance(w[1:], Word)
        assert w[1:] == Word((2, 3))
        assert w.reversed() == Word((3, 2, 1))
