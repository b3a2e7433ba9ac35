"""Free associative algebra over operator symbols, with mould contractions.

This module hosts the symbolic side of the bridge "mould x comould": words
of operator symbols with exact scalar coefficients.  A symbol stands for an
operator (in practice an alien derivation at a given weight); the element

    word (x, y, z)  =  x o y o z   (z applied first)

is a formal composition.  Contracting a mould M against the symbols b_a uses
the reversing convention

    contract(M) = sum over words w of M^w * b_{w_r} ... b_{w_1},

which turns the mould product into composition read backwards:
contract(M * N) = contract(N) o contract(M).  The tests pin this
anti-morphism property exactly.

``lie_expand`` replaces each word by its left-nested commutator with weight
1/r; for alternal moulds this equals ``mould_expand`` (the classical
Dynkin-Specht-Wever projection fact), which is one of the package's
acceptance checks.

``stokes_components(K)`` returns, for each total weight k <= K, the weighted
word sums

    sum over compositions (j_1,...,j_m) of k  of  (1/m!) * (j_1,...,j_m),

the weight-k component of exp(sum of weight-j symbols).  Applying these to
actual derivations on polynomials yields operators satisfying the modified
Leibniz rule  E_k(f g) = sum over i+j=k of E_i(f) E_j(g), tested on random
polynomial derivations.

The small ``Polynomial`` and ``Derivation`` classes exist to give the
symbols something concrete to act on in tests and demos; they are exact
(scalar coefficients) and deliberately minimal.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .moulds import Mould
from .scalars import ExactScalar
from .words import Word, compositions

__all__ = [
    "FreeElement",
    "generator",
    "mould_expand",
    "lie_expand",
    "stokes_components",
    "Polynomial",
    "Derivation",
    "apply_element",
]


def _add_term(terms: dict, key, c) -> None:
    """Add c to terms[key], dropping the key when the sum is zero."""
    s = terms.get(key, ExactScalar()) + c
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


class FreeElement:
    """A finite scalar combination of words of symbols."""

    def __init__(self, terms=None):
        self.terms: dict[Word, ExactScalar] = {}
        if terms:
            for w, c in terms.items():
                c = ExactScalar.coerce(c)
                if not c.is_zero():
                    self.terms[Word(w)] = c

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        out = dict(self.terms)
        for w, c in other.terms.items():
            _add_term(out, w, c)
        return FreeElement(out)

    def __neg__(self):
        return FreeElement({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, FreeElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "FreeElement":
        c = ExactScalar.coerce(c)
        return FreeElement({w: v * c for w, v in self.terms.items()})

    def __mul__(self, other):
        """Concatenation product."""
        if not isinstance(other, FreeElement):
            return NotImplemented
        out: dict[Word, ExactScalar] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _add_term(out, w1.concat(w2), c1 * c2)
        return FreeElement(out)

    def bracket(self, other) -> "FreeElement":
        return self * other - other * self

    def length_component(self, r: int) -> "FreeElement":
        return FreeElement({w: c for w, c in self.terms.items() if len(w) == r})

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "<FreeElement 0>"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), tuple(map(repr, w)))):
            bits.append(f"({self.terms[w]})*{tuple(w)!r}")
        return "<FreeElement " + " + ".join(bits) + ">"


def generator(symbol) -> FreeElement:
    return FreeElement({Word((symbol,)): ExactScalar.from_rational(1)})


def mould_expand(m: Mould) -> FreeElement:
    """Contract a (materialized) mould against symbols, reversing each word."""
    if m.entries is None:
        raise ValueError("materialize the mould before expanding")
    terms = {}
    for w, c in m.entries.items():
        if len(w) == 0:
            continue
        terms[w.reversed()] = c
    return FreeElement(terms)


def _bracket_word(word: Word) -> FreeElement:
    """Left-nested commutator [b_{w_r}, [..., [b_{w_2}, b_{w_1}]...]]."""
    out = generator(word[0])
    for a in word[1:]:
        out = generator(a).bracket(out)
    return out


def lie_expand(m: Mould) -> FreeElement:
    """Sum over words of (1/r) M^w times the word's nested commutator.

    For alternal m this equals ``mould_expand(m)``.
    """
    if m.entries is None:
        raise ValueError("materialize the mould before expanding")
    out = FreeElement()
    for w, c in m.entries.items():
        r = len(w)
        if r == 0:
            continue
        out = out + _bracket_word(w).scale(c * Fraction(1, r))
    return out


def stokes_components(max_weight: int) -> dict[int, FreeElement]:
    """Weight components of exp(sum of graded symbols), see module docstring.

    Returns {k: element} for 1 <= k <= max_weight; the weight-0 component is
    the empty word (identity) and is left implicit.
    """
    out = {}
    for k in range(1, max_weight + 1):
        terms = {}
        for comp in compositions(k):
            terms[Word(comp)] = ExactScalar.from_rational(
                Fraction(1, math.factorial(len(comp)))
            )
        out[k] = FreeElement(terms)
    return out


# -- a concrete algebra for the symbols to act on --------------------------------


class Polynomial:
    """Multivariate polynomial with exact scalar coefficients.

    Monomials are exponent tuples of a fixed arity.
    """

    def __init__(self, arity: int, coeffs=None):
        self.arity = arity
        self.coeffs: dict[tuple, ExactScalar] = {}
        if coeffs:
            for expo, c in coeffs.items():
                c = ExactScalar.coerce(c)
                if c.is_zero():
                    continue
                expo = tuple(int(e) for e in expo)
                if len(expo) != arity or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent tuple {expo!r}")
                self.coeffs[expo] = c

    @classmethod
    def variable(cls, arity: int, index: int) -> "Polynomial":
        expo = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {expo: 1})

    @classmethod
    def constant(cls, arity: int, value) -> "Polynomial":
        return cls(arity, {(0,) * arity: value})

    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other):
        if self.arity != other.arity:
            raise ValueError("polynomial arities differ")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            _add_term(out, e, c)
        return Polynomial(self.arity, out)

    def __neg__(self):
        return Polynomial(self.arity, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        out: dict[tuple, ExactScalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                _add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Polynomial(self.arity, out)

    def scale(self, c) -> "Polynomial":
        c = ExactScalar.coerce(c)
        return Polynomial(self.arity, {e: v * c for e, v in self.coeffs.items()})

    def partial(self, index: int) -> "Polynomial":
        out = {}
        for e, c in self.coeffs.items():
            if e[index] == 0:
                continue
            ne = tuple(v - 1 if i == index else v for i, v in enumerate(e))
            out[ne] = c * e[index]
        return Polynomial(self.arity, out)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        if not self.coeffs:
            return "<Polynomial 0>"
        bits = [f"({c})*x^{e}" for e, c in sorted(self.coeffs.items())]
        return "<Polynomial " + " + ".join(bits) + ">"


class Derivation:
    """A derivation on Polynomial determined by generator images."""

    def __init__(self, images: list[Polynomial]):
        if not images:
            raise ValueError("derivation needs at least one generator image")
        arity = images[0].arity
        if len(images) != arity or any(p.arity != arity for p in images):
            raise ValueError("need one image per variable, same arity")
        self.images = list(images)
        self.arity = arity

    def __call__(self, p: Polynomial) -> Polynomial:
        out = Polynomial(self.arity)
        for i, img in enumerate(self.images):
            out = out + p.partial(i) * img
        return out


def apply_element(elem: FreeElement, operators: dict, target):
    """Apply a free-algebra element to a target through a symbol table.

    ``operators[symbol]`` must be a callable; the word (x, y) acts as
    x(y(target)).  Returns the accumulated result, starting from zero
    (an empty element maps everything to zero times the target).
    """
    out = None
    for w, c in elem.terms.items():
        cur = target
        for symbol in reversed(tuple(w)):
            cur = operators[symbol](cur)
        cur = cur.scale(c) if hasattr(cur, "scale") else c * cur
        out = cur if out is None else out + cur
    if out is None:
        out = target.scale(ExactScalar()) if hasattr(target, "scale") else 0
    return out
