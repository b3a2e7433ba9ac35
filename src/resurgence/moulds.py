"""Truncated mould algebra over a finite alphabet.

A mould assigns a value to every word over an alphabet.  We store values for
all words up to a truncation length; asking beyond it raises
:class:`~resurgence.errors.TruncationError`.  Values live in any commutative
ring that supports ``+``, ``*``, integer/Fraction multiples, and an
``is_zero`` test: exact scalars for the core calculus, truncated series for
the monomial-valued moulds.

Operations
----------

* ``M * N`` is the mould product ``(M*N)^w = sum over w = a.b of M^a N^b``
  (noncommutative, associative, unit ``unit_mould``).  It multiplies
  stored entries only, each nonzero M^a by each nonzero N^b that fits the
  common length, so an absent (zero) entry costs nothing: a power x^k of
  a mould vanishing on the empty word never forms a word shorter than k,
  which keeps the series of ``mould_exp`` and ``mould_log`` cheap.
* ``M.compose(U)`` is mould composition,

      (M o U)^w = sum over w = w1...ws (consecutive nonempty blocks)
                  of M^(|w1|,...,|ws|) * U^w1 ... U^ws

  where ``|wi|`` is the sum of the block's letters.  The needed sums must be
  letters of ``M``'s alphabet, otherwise
  :class:`~resurgence.errors.CarrierEscapeError` is raised (the identity and
  other rule-backed moulds accept any letter).  ``identity_mould`` is the
  two-sided composition unit.
* ``mould_exp`` and ``mould_log`` are mutually inverse bijections between
  moulds vanishing on the empty word and moulds equal to 1 there.
* ``M.mult_inverse()`` and ``comp_inverse(V)`` solve for the group inverses
  order by order.

Symmetry predicates
-------------------

A mould M is alternal (symmetral) when, for every pair of nonempty words
a, b, the sum of M over the shuffles of a and b, with multiplicities,
vanishes (equals M^a M^b); alternel and symmetrel say the same of the
stuffles.  The predicates decide these up to a length L.

* The stuffle laws are checked on every pair with |a| + |b| <= L.  Merged
  letters can fall outside the alphabet, which need not be closed under
  addition, so no smaller set of conditions is known to decide them.
* The shuffle laws are checked with one condition per word w of length
  2 .. L that is not Lyndon.  Let w = l1 l2 ... lk be its Chen-Fox-Lyndon
  factorization (``words.lyndon_factorization``: Lyndon words
  l1 >= ... >= lk, k >= 2) and P_w = l1 sh l2 sh ... sh lk their iterated
  shuffle, a sum of words of length |w| with multiplicities.  The
  condition is M(P_w) = 0 (alternal) or M(P_w) = M^l1 ... M^lk
  (symmetral), M extended linearly.  Over 2 letters at length 6 that is
  103 conditions where the pairs are 516.

Why the two decide the same.  Over Q the shuffle algebra is the
polynomial algebra on the Lyndon words (Radford, J. Algebra 58, 1979;
Reutenauer, *Free Lie Algebras*, 1993, section 6.1), and P_w is the
monomial l1 ... lk in it.  So for each n, the P_w over the words w of length n,
with P_l = l for a Lyndon word l, are a basis of the span of the words of
length n.  Everything is graded by length, so it suffices to work up to
length L:

* alternal: a sh b is the product of two polynomials in the Lyndon
  words without constant term, so it is a combination of the P_w with
  k >= 2 of its length; and each such P_w is l1 sh P_(l2...lk), a
  combination of pair shuffles.  The two sets of conditions span the
  same space, so M vanishes on both or on neither.
* symmetral: the pair laws give M(P_w) = M^l1 M(P_(l2...lk)), and the
  conditions follow by induction on k.  Conversely, let chi be the
  character of the shuffle algebra with chi(l) = M^l on Lyndon words.
  The conditions say M(P_w) = chi(P_w) for every w, so M = chi on the
  basis, hence on every word of length 1 .. L, and then
  M(a sh b) = chi(a) chi(b) = M^a M^b.

The change of basis has rational coefficients, so the argument needs
values in a commutative ring containing Q, as exact scalars and truncated
series over them are.  With any ``letters`` and any ``max_length`` up to
the stored length, both forms give the same boolean.

Named moulds: ``unit_mould`` (1 on the empty word), ``identity_mould``
(1 on single letters), ``exp_scale_mould(w)`` with values w^r / r!, and
``passage_mould`` which is 1/(r1! ... rs!) on words whose arguments are
non-decreasing within a half-open sector and 0 otherwise (the ri are the
run lengths of letters sharing a ray; the predicate tests confirm it is
symmetral).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from .errors import CarrierEscapeError, TruncationError
from .scalars import ExactScalar
from .words import (EMPTY, Alphabet, Word, lyndon_factorization, shuffle,
                    splittings, stuffle)

__all__ = [
    "Mould",
    "unit_mould",
    "identity_mould",
    "exp_scale_mould",
    "passage_mould",
    "mould_exp",
    "mould_log",
    "comp_inverse",
    "is_alternal",
    "is_symmetral",
    "is_alternel",
    "is_symmetrel",
    "mould_to_json",
    "mould_from_json",
]


def _is_zero_value(v) -> bool:
    if hasattr(v, "is_zero"):
        return v.is_zero()
    return v == 0


def _scale(c, v):
    """Multiply a value by an integer or Fraction coefficient."""
    if c == 1:
        return v
    if isinstance(v, ExactScalar):
        return v * c
    return c * v


class Mould:
    """A mould: either a table of values for words up to ``max_length``
    (dict-backed), or a ``rule`` callable evaluated on demand (rule-backed,
    unbounded, accepts any letters).
    """

    def __init__(self, alphabet: Alphabet | None, max_length: int | None,
                 entries: dict | None = None, rule=None, zero=None):
        if (entries is None) == (rule is None):
            raise ValueError("provide exactly one of entries or rule")
        if entries is not None:
            if alphabet is None or max_length is None:
                raise ValueError("dict-backed moulds need alphabet and max_length")
        self.alphabet = alphabet
        self.max_length = max_length
        self.rule = rule
        self._zero = ExactScalar() if zero is None else zero
        if entries is not None:
            self.entries = {
                Word(w): v for w, v in entries.items() if not _is_zero_value(v)
            }
            self._cache = None
        else:
            self.entries = None
            self._cache = {}

    # -- lookup ---------------------------------------------------------------

    @property
    def zero(self):
        return self._zero

    def __getitem__(self, word):
        word = Word(word)
        if self.rule is not None:
            if word not in self._cache:
                self._cache[word] = self.rule(word)
            return self._cache[word]
        if len(word) > self.max_length:
            raise TruncationError(
                f"mould entry at length {len(word)} requested, stored up to "
                f"{self.max_length}",
                requested=len(word),
                stored=self.max_length,
            )
        for a in word:
            if a not in self.alphabet:
                raise CarrierEscapeError(
                    f"letter {a!r} is not in the mould's alphabet",
                    letter=str(a),
                )
        return self.entries.get(word, self._zero)

    def materialize(self, alphabet: Alphabet, max_length: int) -> "Mould":
        """Turn a rule-backed mould into a table over the given alphabet."""
        entries = {w: self[w] for w in alphabet.words(max_length)}
        return Mould(alphabet, max_length, entries=entries, zero=self._zero)

    def words(self):
        """Words of the stored support (dict-backed only), sorted."""
        if self.entries is None:
            raise ValueError("rule-backed mould has no finite support")
        return sorted(self.entries, key=lambda w: (len(w), tuple(map(repr, w))))

    # -- structural helpers -----------------------------------------------------

    def _binary_context(self, other: "Mould"):
        """Common (alphabet, max_length) for a binary operation."""
        if self.entries is not None and other.entries is not None:
            if self.alphabet != other.alphabet:
                raise ValueError("moulds have different alphabets")
            return self.alphabet, min(self.max_length, other.max_length)
        if self.entries is not None:
            return self.alphabet, self.max_length
        if other.entries is not None:
            return other.alphabet, other.max_length
        raise ValueError(
            "binary operations on two rule-backed moulds need materialize() first"
        )

    def same_entries(self, other: "Mould", max_length: int | None = None,
                     alphabet: Alphabet | None = None) -> bool:
        """Do both moulds agree on all words up to a common truncation?"""
        if alphabet is None:
            alphabet, upto = self._binary_context(other)
        else:
            upto = max_length
        if max_length is not None:
            upto = max_length
        return all(self[w] == other[w] for w in alphabet.words(upto))

    # -- pointwise operations ----------------------------------------------------

    def _pointwise(self, other, op):
        if not isinstance(other, Mould):
            return NotImplemented
        alphabet, L = self._binary_context(other)
        entries = {w: op(self[w], other[w]) for w in alphabet.words(L)}
        return Mould(alphabet, L, entries=entries, zero=self._zero)

    def __add__(self, other):
        return self._pointwise(other, operator.add)

    def __sub__(self, other):
        return self._pointwise(other, operator.sub)

    def scale(self, c) -> "Mould":
        """Pointwise multiple by a coefficient (integer, Fraction, scalar)."""
        if self.entries is None:
            rule = self.rule
            return Mould(self.alphabet, None, rule=lambda w: _scale(c, rule(w)),
                         zero=self._zero)
        entries = {w: _scale(c, v) for w, v in self.entries.items()}
        return Mould(self.alphabet, self.max_length, entries=entries,
                     zero=self._zero)

    # -- mould product -------------------------------------------------------------

    def _stored(self, alphabet: Alphabet, max_length: int) -> list:
        """(word, value) of the nonzero entries up to ``max_length``; a
        rule-backed mould is first materialised over the alphabet."""
        m = self if self.entries is not None else \
            self.materialize(alphabet, max_length)
        return [(w, v) for w, v in m.entries.items() if len(w) <= max_length]

    def __mul__(self, other):
        """The mould product (M*N)^w = sum over w = a.b of M^a N^b.

        Only stored entries are multiplied: every nonzero M^a times every
        nonzero N^b with |a| + |b| <= L, the common length, is added into
        the entry for a.b, so an absent (zero) entry of either factor costs
        nothing.  A rule-backed factor is first materialised over the other
        factor's alphabet up to L.  The result holds its nonzero sums in
        ``alphabet.words(L)`` order and keeps this mould's zero.
        """
        if not isinstance(other, Mould):
            return NotImplemented
        alphabet, L = self._binary_context(other)
        right = sorted(other._stored(alphabet, L), key=lambda e: len(e[0]))
        sums = {}
        for a, x in self._stored(alphabet, L):
            room = L - len(a)
            for b, y in right:
                if len(b) > room:
                    break
                w = a + b
                term = x * y
                acc = sums.get(w)
                sums[w] = term if acc is None else acc + term
        entries = {w: sums[w] for w in alphabet.words(L) if w in sums}
        return Mould(alphabet, L, entries=entries, zero=self._zero)

    def mult_inverse(self) -> "Mould":
        """Inverse for the mould product, solved order by order.

        Requires an invertible value on the empty word (for scalar values, a
        monomial)."""
        if self.entries is None:
            raise ValueError("materialize a rule-backed mould before inverting")
        one = _one_like(self._zero)
        inv_empty = one / self[EMPTY]
        entries = {EMPTY: inv_empty}
        for w in self.alphabet.words(self.max_length, min_length=1):
            acc = None
            for k in range(1, len(w) + 1):
                # split w = a.b with a nonempty; b is already solved
                term = self[w[:k]] * entries[w[k:]]
                acc = term if acc is None else acc + term
            entries[Word(w)] = _scale(-1, inv_empty * acc)
        return Mould(self.alphabet, self.max_length, entries=entries,
                     zero=self._zero)

    # -- composition -----------------------------------------------------------------

    def compose(self, inner: "Mould") -> "Mould":
        """Mould composition self o inner (see module docstring).

        The result lives over ``inner``'s alphabet.  Letter sums outside
        self's alphabet raise CarrierEscapeError, unless self is rule-backed
        (the identity mould accepts any letters, so I o U = U always works).
        """
        if inner.entries is None:
            raise ValueError("materialize the inner mould before composing")
        alphabet, L = inner.alphabet, inner.max_length
        if self.entries is not None and self.max_length < L:
            L = self.max_length
        entries = {EMPTY: self[EMPTY]}
        for w in alphabet.words(L, min_length=1):
            acc = _composition_sum(self, inner.entries, alphabet, w)
            if acc is not None:
                entries[Word(w)] = acc
        return Mould(alphabet, L, entries=entries, zero=inner._zero)

    # -- misc -----------------------------------------------------------------------

    def __repr__(self):
        if self.entries is None:
            return "<Mould rule-backed>"
        n = len(self.entries)
        return (f"<Mould over {len(self.alphabet)} letters, length <= "
                f"{self.max_length}, {n} nonzero entries>")


def _one_like(zero):
    """A multiplicative unit in the same ring as the given zero value."""
    if isinstance(zero, ExactScalar):
        return ExactScalar.from_rational(1)
    return zero.one()


def _composition_sum(outer: Mould, inner: dict, alphabet: Alphabet, w,
                     min_blocks: int = 1):
    """sum over w = w1...ws with s >= min_blocks of
    outer^(|w1|,...,|ws|) * inner[w1] ... inner[ws], or None when no term
    is nonzero.  ``inner`` maps words to values, absent words are zero;
    a block sum outside a stored outer mould's alphabet raises
    CarrierEscapeError through the lookup."""
    acc = None
    for blocks in splittings(w):
        if len(blocks) < min_blocks:
            continue
        prod = None
        for block in blocks:
            v = inner.get(block)
            if v is None or _is_zero_value(v):
                prod = None
                break
            prod = v if prod is None else prod * v
        if prod is None:
            continue
        outer_value = outer[Word(alphabet.word_sum(b) for b in blocks)]
        if _is_zero_value(outer_value):
            continue
        term = outer_value * prod
        acc = term if acc is None else acc + term
    return acc


# -- named moulds ---------------------------------------------------------------------


def unit_mould(alphabet: Alphabet | None = None) -> Mould:
    """The product unit: 1 on the empty word, 0 elsewhere."""
    one = ExactScalar.from_rational(1)
    zero = ExactScalar()
    return Mould(alphabet, None, rule=lambda w: one if len(w) == 0 else zero)


def identity_mould(alphabet: Alphabet | None = None) -> Mould:
    """The composition identity: 1 on single-letter words, 0 elsewhere."""
    one = ExactScalar.from_rational(1)
    zero = ExactScalar()
    return Mould(alphabet, None, rule=lambda w: one if len(w) == 1 else zero)


def exp_scale_mould(w, alphabet: Alphabet | None = None) -> Mould:
    """The symmetral mould with value w^r / r! on words of length r,
    computed once per length."""
    w = ExactScalar.coerce(w)
    by_length = {}

    def rule(word):
        r = len(word)
        if r not in by_length:
            by_length[r] = w**r / math.factorial(r)
        return by_length[r]

    return Mould(alphabet, None, rule=rule)


def passage_mould(alphabet: Alphabet, theta, theta_prime, prec: int = 80) -> Mould:
    """The sector-passage mould for the half-open sector theta < arg <= theta'.

    Nonzero exactly on words whose letters all have argument in the sector
    and appear with non-decreasing argument; the value is then
    1/(r1! ... rs!) where the ri are the lengths of the maximal runs of
    letters sharing a ray.  Letters must be exact scalars whose ray is
    exactly decidable (monomials without log factors); run boundaries use
    the exact same-ray test, only the sector bounds are compared numerically.
    """
    import mpmath

    letters = [ExactScalar.coerce(a) for a in alphabet]
    with mpmath.workprec(prec):
        lo = mpmath.mpf(theta)
        hi = mpmath.mpf(theta_prime)
        tol = mpmath.mpf(2) ** (-prec // 2)
        in_sector = {}
        args = {}
        for a in letters:
            ang = a.arg(prec)
            # normalize into (lo, lo + 2*pi]
            twopi = 2 * mpmath.pi
            while ang <= lo:
                ang += twopi
            while ang > lo + twopi:
                ang -= twopi
            args[a] = ang
            in_sector[a] = (ang > lo + tol) and (ang <= hi + tol)

    def rule(word):
        zero = ExactScalar()
        scalars = [ExactScalar.coerce(a) for a in word]
        if not scalars:
            return ExactScalar.from_rational(1)
        for a in scalars:
            if a not in in_sector:
                raise CarrierEscapeError(
                    f"passage mould letter {a} outside the declared alphabet",
                    letter=str(a),
                )
            if not in_sector[a]:
                return zero
        runs = [1]
        for prev, cur in zip(scalars, scalars[1:]):
            if prev.same_ray(cur):
                runs[-1] += 1
            elif args[prev] < args[cur]:
                runs.append(1)
            else:
                return zero
        denom = 1
        for r in runs:
            denom *= math.factorial(r)
        return ExactScalar.from_rational(Fraction(1, denom))

    return Mould(Alphabet(letters), None, rule=rule)


# -- exponential and logarithm ----------------------------------------------------------


def _product_series(x: Mould, coeff) -> Mould:
    """sum over 0 <= k <= L of coeff(k) x^k with mould products, x^0
    the unit; the terms and the result keep x's zero.  Both callers pass
    an x that vanishes on the empty word, so x^k stores, and the product
    forms, no word shorter than k."""
    L = x.max_length
    term = Mould(x.alphabet, L, entries={EMPTY: _one_like(x.zero)},
                 zero=x.zero)
    out = term.scale(coeff(0))
    for k in range(1, L + 1):
        term = term * x
        out = out + term.scale(coeff(k))
    return out


def mould_exp(m: Mould) -> Mould:
    """exp for the mould product; requires a zero value on the empty word."""
    if m.entries is None:
        raise ValueError("materialize a rule-backed mould before mould_exp")
    if not _is_zero_value(m[EMPTY]):
        raise ValueError("mould_exp needs value 0 on the empty word")
    return _product_series(m, lambda k: Fraction(1, math.factorial(k)))


def mould_log(m: Mould) -> Mould:
    """log for the mould product; requires value 1 on the empty word."""
    if m.entries is None:
        raise ValueError("materialize a rule-backed mould before mould_log")
    one = _one_like(m.zero)
    if m[EMPTY] != one:
        raise ValueError("mould_log needs value 1 on the empty word")
    rest = m - Mould(m.alphabet, m.max_length, entries={EMPTY: one},
                     zero=m.zero)
    return _product_series(
        rest, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)


def comp_inverse(v: Mould, letters=None) -> Mould:
    """Inverse for mould composition, solved order by order.

    Requires value 0 on the empty word and invertible values on all
    single-letter words.  By default the result is supported on v's own
    alphabet; pass ``letters`` to solve over a sub-alphabet (needed when v's
    alphabet is a sum closure and only base letters make sense as inputs).
    """
    if v.entries is None:
        raise ValueError("materialize the mould before comp_inverse")
    if not _is_zero_value(v[EMPTY]):
        raise ValueError("comp_inverse needs value 0 on the empty word")
    support = Alphabet(letters) if letters is not None else v.alphabet
    L = v.max_length
    one = _one_like(v.zero)
    entries: dict[Word, object] = {}
    for w in support.words(L, min_length=1):
        if len(w) == 1:
            val = v[w]
            if _is_zero_value(val):
                raise ValueError(
                    f"comp_inverse needs an invertible entry at {tuple(w)!r}"
                )
            entries[w] = one / val
            continue
        total = v.alphabet.word_sum(w)
        head = v[Word((total,))]
        if _is_zero_value(head):
            raise ValueError(
                f"comp_inverse needs an invertible entry at ({total!r},)"
            )
        # (v o w_inv)^w = 0: isolate the single-block term
        acc = _composition_sum(v, entries, v.alphabet, w, min_blocks=2)
        if acc is not None:
            entries[Word(w)] = _scale(-1, acc / head)
    return Mould(support, L, entries=entries, zero=v.zero)


# -- symmetry predicates ------------------------------------------------------------------


def _pairs(alphabet: Alphabet, max_total: int):
    for la in range(1, max_total):
        for lb in range(1, max_total - la + 1):
            for a in alphabet.words(la, min_length=la):
                for b in alphabet.words(lb, min_length=lb):
                    yield a, b


@lru_cache(maxsize=16)
def _lyndon_conditions(k: int, max_length: int) -> tuple:
    """The shuffle-law conditions over the letters 0 .. k-1 (module
    docstring): per word w of length 2 .. max_length that is not Lyndon,
    in ``Alphabet.words`` order, (w's Lyndon factors l1 >= ... >= lk,
    the words of P_w = l1 sh ... sh lk grouped by multiplicity).

    The tail l2...lk of w has the factors l2, ..., lk, so P_w is l1
    shuffled into P of the tail, built one length earlier (a Lyndon tail
    is its own P)."""
    products, conditions = {}, []
    for w in Alphabet(range(k)).words(max_length, min_length=1):
        factors = lyndon_factorization(w)
        if len(factors) == 1:
            products[w] = {w: 1}
            continue
        head, terms = factors[0], {}
        for u, c in products[w[len(head):]].items():
            for v, d in shuffle(head, u).items():
                terms[v] = terms.get(v, 0) + c * d
        products[w] = terms
        conditions.append((factors, _by_multiplicity(terms)))
    return tuple(conditions)


def _by_multiplicity(terms: dict) -> list:
    """[(multiplicity, [words]), ...] of a {word: multiplicity} dict, in
    the order each multiplicity first appears."""
    groups = {}
    for u, c in terms.items():
        groups.setdefault(c, []).append(u)
    return list(groups.items())


def _obeys_law(m: Mould, law, symmetral: bool, max_length, letters) -> bool:
    """Does m obey the law over ``letters`` (default: m's alphabet) up to
    length ``max_length`` (default: m's)?  Each condition is a list of
    factors f1, ..., fk and the words of their product under the law: the
    sum of m over those words, with multiplicities, vanishes (alternal
    kind) or equals m^f1 ... m^fk (symmetral kind).

    A stuffle law has one condition per pair of nonempty words a, b with
    |a| + |b| <= max_length.  A shuffle law has one per word w of length
    2 .. max_length that is not Lyndon, on w's Lyndon factors, which
    decides the same (module docstring); its words are spelt by letter
    rank.  Each word is looked up once.  The conditions tested and the
    words their sums add up are counted as ``law_conditions`` and
    ``law_leaves`` (``_work`` is imported here, so that the modules which
    import this one, such as ``hyperlog``, load no work counts).
    """
    from . import _work

    L = max_length if max_length is not None else m.max_length
    alphabet = Alphabet(letters) if letters is not None else m.alphabet
    if law is shuffle:
        conditions = _lyndon_conditions(len(alphabet), L)
        ranked = alphabet.letters

        def spell(u):
            return Word(ranked[i] for i in u)
    else:
        conditions = (((a, b), _by_multiplicity(law(a, b)))
                      for a, b in _pairs(alphabet, L))
        spell = Word
    values = {}

    def value(u):
        v = values.get(u)
        if v is None:
            v = values[u] = m[spell(u)]
        return v

    checked = leaves = 0
    obeys = True
    for factors, terms in conditions:
        checked += 1
        acc = None
        for mult, words in terms:
            leaves += len(words)
            part = value(words[0])
            for u in words[1:]:
                part = part + value(u)
            v = _scale(mult, part)
            acc = v if acc is None else acc + v
        if symmetral:
            expected = value(factors[0])
            for f in factors[1:]:
                expected = expected * value(f)
            obeys = acc == expected
        else:
            obeys = _is_zero_value(acc)
        if not obeys:
            break
    _work.add("law_conditions", checked)
    _work.add("law_leaves", leaves)
    return obeys


def is_alternal(m: Mould, max_length: int | None = None, letters=None) -> bool:
    """sum over shuffles vanishes for every pair of nonempty words,
    decided with one condition per non-Lyndon word (module docstring).

    ``letters`` restricts the words to a sub-alphabet; useful when the
    mould's own alphabet is a sum closure.
    """
    return _obeys_law(m, shuffle, False, max_length, letters)


def is_symmetral(m: Mould, max_length: int | None = None, letters=None) -> bool:
    """sum over shuffles equals the product of the two values."""
    return _obeys_law(m, shuffle, True, max_length, letters)


def is_alternel(m: Mould, max_length: int | None = None, letters=None) -> bool:
    """sum over stuffles vanishes for every pair of nonempty words.

    Stuffle contractions must stay inside the mould's alphabet; restrict the
    enumerated ``letters`` so they do.
    """
    return _obeys_law(m, stuffle, False, max_length, letters)


def is_symmetrel(m: Mould, max_length: int | None = None, letters=None) -> bool:
    """sum over stuffles equals the product of the two values."""
    return _obeys_law(m, stuffle, True, max_length, letters)


# -- serialization ---------------------------------------------------------------------------


def _letter_to_json(a):
    if isinstance(a, int):
        return {"kind": "int", "value": a}
    if isinstance(a, ExactScalar):
        return {"kind": "scalar", "value": a.to_json()}
    if isinstance(a, tuple) and len(a) == 2:
        return {"kind": "indexed", "s": a[0], "eps": str(Fraction(a[1]))}
    raise TypeError(f"cannot serialize letter {a!r}")


def _letter_from_json(d):
    if d["kind"] == "int":
        return d["value"]
    if d["kind"] == "scalar":
        return ExactScalar.from_json(d["value"])
    if d["kind"] == "indexed":
        return (d["s"], Fraction(d["eps"]))
    raise ValueError(f"unknown letter kind {d['kind']!r}")


def mould_to_json(m: Mould) -> dict:
    """Bit-exact JSON form of a dict-backed mould with scalar values."""
    if m.entries is None:
        raise ValueError("rule-backed moulds have no finite JSON form")
    return {
        "alphabet": [_letter_to_json(a) for a in m.alphabet],
        "max_length": m.max_length,
        "entries": [
            {"word": [_letter_to_json(a) for a in w], "value": m.entries[w].to_json()}
            for w in m.words()
        ],
    }


def mould_from_json(data: dict) -> Mould:
    """The mould of a :func:`mould_to_json` form.

    Every stored word is a word of ``alphabet.words(max_length)``: a
    ``max_length`` that is not an integer raises TypeError, and an entry
    whose word has a letter outside the alphabet, is longer than
    ``max_length`` or repeats an earlier word raises ValueError.  A letter
    is in the alphabet when it hashes as one of its letters does, as
    lookups need: the int 1 is not the scalar 1, though the two are
    equal."""
    alphabet = Alphabet([_letter_from_json(d) for d in data["alphabet"]])
    letters = set(alphabet)
    L = data["max_length"]
    if type(L) is not int:
        raise TypeError(f"max_length {L!r} is not an integer")
    entries = {}
    for item in data["entries"]:
        w = Word(tuple(_letter_from_json(a) for a in item["word"]))
        if len(w) > L:
            raise ValueError(f"{w!r} is longer than max_length {L}")
        if not letters.issuperset(w):
            raise ValueError(f"{w!r} has a letter outside the alphabet")
        if w in entries:
            raise ValueError(f"{w!r} is stored twice")
        entries[w] = ExactScalar.from_json(item["value"])
    return Mould(alphabet, L, entries=entries)
