"""Words over an alphabet, with shuffle and stuffle combinatorics.

A word is a finite tuple of letters.  Letters may be plain integers, exact
scalars, or (for the multizeta moulds) pairs (s, eps) with s a positive
integer exponent and eps a rational color taken modulo 1.  The alphabet
knows how to add two letters, which serves two distinct purposes that happen
to coincide:

* the *weight* of a word is the sum of its letters (used by mould
  composition and by the exponential-scale bookkeeping of alien operators);
* the *stuffle* product contracts adjacent letters by the same addition.

``shuffle_coefficient(a, b, w)`` counts the interleavings of ``a`` and ``b``
equal to ``w``; ``shuffle(a, b)`` enumerates them with multiplicity, and
``stuffle(a, b)`` enumerates the quasi-shuffle terms where any aligned
pair of letters may also merge.  All counts are exact integers.

``lyndon_factorization(w)`` is the Chen-Fox-Lyndon factorization of a word
into a nonincreasing sequence of Lyndon words (Duval's algorithm), with
letters ordered as :class:`Alphabet` sorts them.  A word is Lyndon when it
is strictly smaller than each of its proper nonempty suffixes; it is its
own one factor.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from itertools import product as _iter_product

from .scalars import ExactScalar

__all__ = [
    "Word",
    "Alphabet",
    "add_letters",
    "shuffle",
    "shuffle_coefficient",
    "stuffle",
    "splittings",
    "compositions",
    "lyndon_factorization",
]


class Word(tuple):
    """An immutable word (tuple of letters) with a few conveniences."""

    def __new__(cls, letters=()):
        return super().__new__(cls, tuple(letters))

    @property
    def length(self) -> int:
        return len(self)

    def concat(self, other) -> "Word":
        return Word(tuple(self) + tuple(other))

    def reversed(self) -> "Word":
        return Word(tuple(self)[::-1])

    def __getitem__(self, item):
        result = super().__getitem__(item)
        if isinstance(item, slice):
            return Word(result)
        return result

    def __repr__(self):
        return "Word(%s)" % (", ".join(repr(a) for a in self),)


EMPTY = Word()


def add_letters(a, b):
    """Add two letters of the same kind (integer, scalar, or (s, eps) pair)."""
    if isinstance(a, int) and isinstance(b, int):
        return a + b
    if isinstance(a, ExactScalar) and isinstance(b, ExactScalar):
        return a + b
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b) == 2:
        return (a[0] + b[0], (Fraction(a[1]) + Fraction(b[1])) % 1)
    raise TypeError(f"cannot add letters {a!r} and {b!r}")


def _letter_is_zero(a) -> bool:
    if isinstance(a, int):
        return a == 0
    if isinstance(a, ExactScalar):
        return a.is_zero()
    if isinstance(a, tuple):
        return a[0] == 0 and a[1] == 0
    raise TypeError(f"unsupported letter {a!r}")


def letter_sort_key(a):
    if isinstance(a, int):
        return (0, a)
    if isinstance(a, ExactScalar):
        return (1, a.sort_key())
    if isinstance(a, tuple):
        return (2, a[0], Fraction(a[1]))
    raise TypeError(f"unsupported letter {a!r}")


class Alphabet:
    """A finite set of letters closed under the operations the moulds need.

    ``require_nonzero=True`` rejects zero letters at construction time; the
    alien and hyperlogarithmic machinery needs that (a zero letter would be a
    singular point at the origin).
    """

    def __init__(self, letters, require_nonzero: bool = False):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must have at least one letter")
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct")
        if require_nonzero:
            for a in letters:
                if _letter_is_zero(a):
                    raise ValueError(f"alphabet letter {a!r} is zero")
        self.letters = tuple(sorted(letters, key=letter_sort_key))

    def __contains__(self, letter) -> bool:
        return letter in self.letters

    def __iter__(self):
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({list(self.letters)!r})"

    def word_sum(self, word):
        """The sum of the word's letters; None for the empty word."""
        if not word:
            return None
        total = word[0]
        for a in word[1:]:
            total = add_letters(total, a)
        return total

    def words(self, max_length: int, min_length: int = 0):
        """Iterate all words over the alphabet with the given length range,
        shortest first, in deterministic letter order."""
        for r in range(min_length, max_length + 1):
            for combo in _iter_product(self.letters, repeat=r):
                yield Word(combo)

    def sum_closure(self, max_length: int):
        """All letter-sums of nonempty words up to ``max_length``, sorted."""
        sums = set()
        for w in self.words(max_length, min_length=1):
            sums.add(self.word_sum(w))
        return sorted(sums, key=letter_sort_key)


def compositions(k: int):
    """All ordered tuples of positive integers summing to k; the empty
    tuple for k = 0."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


def splittings(word):
    """Iterate the decompositions of ``word`` into consecutive nonempty
    blocks, one tuple of Words per composition of its length, in the order
    of :func:`compositions`.

    The empty word has exactly one decomposition, the empty tuple.
    """
    word = Word(word)
    for sizes in compositions(len(word)):
        yield tuple(word[end - size:end]
                    for size, end in zip(sizes, accumulate(sizes)))


def lyndon_factorization(word) -> tuple:
    """The Lyndon words l1 >= l2 >= ... >= lk whose concatenation is
    ``word``, as a tuple of Words; the empty word has none.

    Duval's algorithm, in time linear in the length.  Letters compare by
    :func:`letter_sort_key`, the order of ``Alphabet.letters`` (exact
    scalars have no ``<`` of their own); words compare lexicographically,
    a proper prefix first.
    """
    word = Word(word)
    keys = [letter_sort_key(a) for a in word]
    n, i, factors = len(keys), 0, []
    while i < n:
        # keys[i:j] is a power of a Lyndon word of period j - k, plus a
        # proper prefix of it
        j, k = i + 1, i
        while j < n and keys[k] <= keys[j]:
            k = i if keys[k] < keys[j] else k + 1
            j += 1
        while i <= k:
            factors.append(word[i:i + j - k])
            i += j - k
    return tuple(factors)


def shuffle_coefficient(a, b, w) -> int:
    """The number of interleavings of ``a`` and ``b`` that equal ``w``."""
    a, b, w = Word(a), Word(b), Word(w)
    if len(a) + len(b) != len(w):
        return 0

    @lru_cache(maxsize=None)
    def count(i: int, j: int) -> int:
        if i == len(a) and j == len(b):
            return 1
        total = 0
        k = i + j
        if i < len(a) and a[i] == w[k]:
            total += count(i + 1, j)
        if j < len(b) and b[j] == w[k]:
            total += count(i, j + 1)
        return total

    result = count(0, 0)
    count.cache_clear()
    return result


def shuffle(a, b) -> dict:
    """All interleavings of ``a`` and ``b`` as a dict {word: multiplicity}."""
    return _interleave(a, b, None)


def stuffle(a, b) -> dict:
    """Quasi-shuffle of ``a`` and ``b``: interleavings where aligned letters
    may merge via ``add_letters``.  Returns {word: multiplicity}."""
    return _interleave(a, b, add_letters)


def _interleave(a, b, add):
    """{word: multiplicity} over the interleavings of ``a`` and ``b``, and,
    unless ``add`` is None, those where aligned letters merge via ``add``."""
    a, b = Word(a), Word(b)
    out: dict[Word, int] = {}

    def rec(i, j, acc):
        if i == len(a) and j == len(b):
            w = Word(acc)
            out[w] = out.get(w, 0) + 1
            return
        if i < len(a):
            rec(i + 1, j, acc + [a[i]])
        if j < len(b):
            rec(i, j + 1, acc + [b[j]])
        if add is not None and i < len(a) and j < len(b):
            rec(i + 1, j + 1, acc + [add(a[i], b[j])])

    rec(0, 0, [])
    return out
