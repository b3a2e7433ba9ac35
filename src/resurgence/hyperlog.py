"""Hyperlogarithmic monomial families and their alien-calculus moulds.

A monomial family attaches to every word over a nonzero alphabet a formal
series in z^-1, built by a first-order recursion: the empty word carries
the constant 1, and appending a letter to a word solves

    (d/dz + s) V(w) = - V(w') * input(last letter),

where w' drops the last letter, s is the letter sum of w, and the input
series is the inverse Borel transform of the letter's weight polynomial
(weight 1 unless configured otherwise).  The operator d/dz + s is inverted
formally, term by term; this needs s != 0 at every stage, so words with a
vanishing prefix sum are rejected with :class:`ResonanceError`.  The
resulting word-indexed collection is a symmetral mould with values in the
series ring.

On the Borel side the same recursion has closed forms at low depth: depth
one gives a simple pole 1/(zeta - c), depth two a logarithmic branch over
a simple pole, log(1 - zeta/a)/(zeta - a - b).  These exact shapes feed the
singularity-extraction machinery: measuring the alien action on the family
produces scalar moulds, one alternal family from the averaged derivations
and one symmetral family from the one-sided operators.  The alternal
family has an explicit composition inverse; twisting that inverse by a
sign per letter yields a normalizing mould U whose composite with the
series-valued mould obeys the prefix rule: an alien derivation at a point
deletes a matching leading letter and annihilates everything else.

The depth-1 values of the one-sided mould equal 2*pi*i; its deeper values
are also reachable as iterated contour integrals along a path that
circumvents intermediate integers on the right of travel (below the real
axis when heading right, above when heading left).  :func:`L_numeric`
evaluates those integrals by spectral quadrature and is validated against
the exact extractions, which pins down the contour orientation.  It and
its path builder import mpmath and the spectral kernel themselves, so the
exact families, series and moulds above run without them; likewise the
Borel shapes, the extractions and the normalized minors import
:mod:`resurgence.borelfun` and :mod:`resurgence.alien` where they use
them, so the series alone load neither.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial

from ._record import Record
from .errors import ResonanceError, check_prec
from .moulds import Mould, comp_inverse
from .scalars import ExactScalar
from .series import FormalSeries
from .words import Alphabet, Word

EMPTY = Word(())


def _check_resonance(word):
    sums = list(accumulate(map(Fraction, word)))
    for k, s in enumerate(sums, start=1):
        if s == 0:
            raise ResonanceError(
                f"word {tuple(word)!r} has vanishing prefix sum at length {k}; "
                f"the recursion cannot invert d/dz + 0",
                word=tuple(word),
                prefix_length=k,
            )
    return sums


class MonomialFamily:
    """A family of z^-1-series monomials indexed by words.

    ``letters`` is the nonzero alphabet; ``a_hat`` optionally maps letters
    to weight polynomials (lists of Taylor coefficients, default [1]);
    ``order`` is the truncation order of every series in the family.

    The word cache grows monotonically and every prefix of a cached word
    is itself cached (the recursion fills them in order).  Writes happen
    only while computing a new entry, so concurrent readers of existing
    entries are safe under a single-writer discipline.
    """

    def __init__(self, letters, a_hat=None, order: int = 12):
        self.alphabet = Alphabet(letters, require_nonzero=True)
        if order < 1:
            raise ValueError("order must be at least 1")
        self.order = order
        given = dict(a_hat) if a_hat else {}
        unknown = [k for k in given if k not in self.alphabet]
        if unknown:
            raise ValueError(f"weights given for letters {unknown!r} "
                             f"outside the alphabet")
        self.a_hat = {}
        for letter in self.alphabet.letters:
            poly = given.get(letter, [1])
            self.a_hat[letter] = [Fraction(c) for c in poly]
        self._cache = {EMPTY: FormalSeries.constant(1, order)}

    def weight(self, letter):
        """The weight polynomial of a letter (Taylor coefficients)."""
        return list(self.a_hat[letter])

    def has_unit_weights(self) -> bool:
        return all(poly == [Fraction(1)] for poly in self.a_hat.values())

    def input_series(self, letter) -> FormalSeries:
        """Inverse Borel transform of the letter's weight polynomial.

        A Taylor coefficient c_n at zeta^n becomes c_n * n! at z^-n-1.
        """
        coeffs = [Fraction(0)]
        for n, c in enumerate(self.a_hat[letter]):
            coeffs.append(c * factorial(n))
        return FormalSeries(coeffs, order=self.order)

    def extended(self, max_length: int) -> "MonomialFamily":
        """The unit-weight family over all letter sums up to a length.

        Mould composition evaluates the series mould at contracted words,
        whose letters are sums of consecutive original letters; this
        returns a family whose alphabet contains them all.
        """
        if not self.has_unit_weights():
            raise NotImplementedError(
                "sum-closure extension is defined for unit weights only"
            )
        return MonomialFamily(self.alphabet.sum_closure(max_length),
                              order=self.order)

    def __repr__(self):
        return (f"<MonomialFamily over {list(self.alphabet.letters)!r}, "
                f"order {self.order}>")


def v_series(fam: MonomialFamily, w) -> FormalSeries:
    """The series monomial of a word, by the first-order recursion.

    Appending a letter multiplies by the letter's input series, negates,
    and applies (d/dz + s)^-1 = sum_k (-1)^k s^-k-1 (d/dz)^k with s the
    prefix sum; the sum terminates on truncated series.  Exact rational
    coefficients throughout.
    """
    word = Word(w)
    for a in word:
        if a not in fam.alphabet:
            raise ValueError(f"letter {a!r} is not in the family's alphabet")
    sums = _check_resonance(word)
    for k in range(1, len(word) + 1):
        target = word[:k]
        if target in fam._cache:
            continue
        prev = fam._cache[target[:-1]]
        rhs = (prev * fam.input_series(target[-1])).scale(-1)
        sigma = sums[k - 1]
        out = FormalSeries.zero(fam.order)
        term = rhs
        for j in range(fam.order + 1):
            out = out + term.scale(Fraction((-1) ** j) / sigma ** (j + 1))
            term = term.differentiate()
        fam._cache[target] = out
    return fam._cache[word]


def v_mould(fam: MonomialFamily, max_length: int | None = None) -> Mould:
    """The series-valued mould of the family, rule-backed and symmetral."""
    return Mould(fam.alphabet, max_length,
                 rule=lambda word: v_series(fam, word),
                 zero=FormalSeries.zero(fam.order))


def _require_borel_scope(fam: MonomialFamily, word: Word):
    if len(word) > 2:
        raise NotImplementedError(
            "closed Borel forms are implemented for depth <= 2"
        )
    if not fam.has_unit_weights():
        raise NotImplementedError(
            "closed Borel forms require unit weights"
        )


def v_borel(fam: MonomialFamily, w):
    """The exact Borel shape of a monomial, depth <= 2, unit weights.

    Depth one is the simple pole 1/(zeta - c).  Depth two convolves that
    pole with the constant 1 and divides by (zeta - a - b), producing
    log(1 - zeta/a)/(zeta - a - b).
    """
    from .borelfun import RationalBF, RationalFunction, convolve

    word = Word(w)
    if len(word) == 0:
        raise ValueError(
            "the empty word transforms to the convolution unit, "
            "which is not a function of zeta"
        )
    for a in word:
        if a not in fam.alphabet:
            raise ValueError(f"letter {a!r} is not in the family's alphabet")
    _require_borel_scope(fam, word)
    _check_resonance(word)
    depth_one = RationalBF(RationalFunction.simple_pole(word[0], 1))
    if len(word) == 1:
        return depth_one
    one = RationalBF(RationalFunction.constant(1))
    return convolve(one, depth_one).divide_linear(word[0] + word[1])


def v_resurgent(fam: MonomialFamily, w) -> ResurgentSeries:
    """The monomial as a resurgent pair (series plus exact minor)."""
    from .alien import ResurgentSeries

    return ResurgentSeries(v_series(fam, w), v_borel(fam, w))


def _extract_scalar(out: ResurgentSeries, word) -> ExactScalar:
    """Constant term of an alien action that must be a scalar."""
    tail_zero = all(out.series[k].is_zero()
                    for k in range(1, out.series.order + 1))
    minor_zero = out.minor is None or not out.minor.singular_points()
    if not (tail_zero and minor_zero):
        raise ArithmeticError(
            f"alien action on {tuple(word)!r} is not scalar; "
            f"mould extraction at depth <= 2 expects a constant"
        )
    return out.constant_term


def _extract_mould(fam: MonomialFamily, eta, max_length: int,
                   operator, sign: int) -> Mould:
    if max_length > 2:
        raise NotImplementedError(
            "scalar mould extraction is implemented for depth <= 2"
        )
    entries = {}
    for r in range(1, max_length + 1):
        for word in fam.alphabet.words(r, min_length=r):
            if fam.alphabet.word_sum(word) != eta:
                continue
            out = operator(v_resurgent(fam, word), eta)
            value = _extract_scalar(out, word)
            entries[word] = value if sign > 0 else -value
    return Mould(fam.alphabet, max_length, entries=entries)


def extract_V(fam: MonomialFamily, eta, max_length: int = 2) -> Mould:
    """The alternal scalar mould measured by the alien derivation at eta.

    The derivation acts on the series mould by left multiplication with
    the negative of this mould, so each entry is minus the constant term
    of the derivation on the matching monomial.  Entries vanish unless
    the word's letter sum equals eta; depth one gives -2*pi*i times the
    letter's weight value.
    """
    from .alien import alien_derivation

    return _extract_mould(fam, eta, max_length, alien_derivation, -1)


def extract_L(fam: MonomialFamily, eta, max_length: int = 2) -> Mould:
    """The scalar mould measured by the one-sided operator at eta.

    The right-of-travel lateral operator acts by left multiplication with
    this mould (positive sign); its depth-1 entries equal 2*pi*i and the
    family assembled over all eta > 0, together with 1 on the empty word,
    is symmetral.
    """
    from .alien import alien_plus

    return _extract_mould(fam, eta, max_length, alien_plus, +1)


def total_V(fam: MonomialFamily, max_length: int = 2) -> Mould:
    """The summed alternal mould over the family's sum closure.

    Each word carries the extraction at its own letter sum (the only
    point with a nonzero contribution), over the extended alphabet, so
    the mould can be composition-inverted.
    """
    from .alien import alien_derivation

    if max_length > 2:
        raise NotImplementedError(
            "scalar mould extraction is implemented for depth <= 2"
        )
    ext = fam.extended(max_length)
    entries = {}
    for r in range(1, max_length + 1):
        for word in ext.alphabet.words(r, min_length=r):
            if 0 in accumulate(map(Fraction, word)):
                continue
            eta = ext.alphabet.word_sum(word)
            out = alien_derivation(v_resurgent(ext, word), eta)
            entries[word] = -_extract_scalar(out, word)
    return Mould(ext.alphabet, max_length, entries=entries)


def build_U(v_total: Mould, letters=None) -> Mould:
    """The normalizing mould: sign-graded composition inverse.

    ``comp_inverse`` solves composition against the identity; flipping
    the sign of every odd-length entry turns that into composition equal
    to minus the identity, which is the normalization the prefix rule
    requires (checked exactly in the tests: composing the total
    extraction mould with the result gives -1 on each single letter and
    0 beyond).  Depth one gives 1/(2*pi*i) for unit weights.

    Pass ``letters`` to restrict the support to the base alphabet when
    ``v_total`` lives over a sum closure.
    """
    inverse = comp_inverse(v_total, letters=letters)
    entries = {}
    for word, value in inverse.entries.items():
        entries[word] = -value if len(word) % 2 else value
    return Mould(inverse.alphabet, inverse.max_length, entries=entries)


def default_U(fam: MonomialFamily, max_length: int = 2) -> Mould:
    """The normalizing mould of a family, built from its extractions."""
    return build_U(total_V(fam, max_length), letters=fam.alphabet.letters)


def gu_mould(fam: MonomialFamily, u: Mould | None = None,
             max_length: int = 2) -> Mould:
    """The normalized series mould: composition of the family's series
    mould (over the sum closure) with the normalizing mould U.

    Its entries obey the prefix rule: an alien derivation at a letter
    deletes that letter from the front of the word, and vanishes when the
    point does not match the leading letter.
    """
    if u is None:
        u = default_U(fam, max_length)
    return v_mould(fam.extended(max_length)).compose(u)


def gu_resurgent(fam: MonomialFamily, w, u: Mould | None = None) -> ResurgentSeries:
    """A normalized entry as a resurgent pair with its exact minor.

    Depth one: U(c)/(zeta - c).  Depth two over letters (a, b) with sum
    s: U(a,b)/(zeta - s) plus U(a)U(b) log(1 - zeta/a)/(zeta - s).
    """
    from .alien import ResurgentSeries
    from .borelfun import LogPoleBF, RationalBF, RationalFunction

    word = Word(w)
    if len(word) > 2:
        raise NotImplementedError(
            "exact normalized minors are implemented for depth <= 2"
        )
    if u is None:
        u = default_U(fam, max_length=2)
    if len(word) == 0:
        return ResurgentSeries(FormalSeries.constant(1, fam.order),
                               RationalBF(RationalFunction.zero()))
    _check_resonance(word)
    if len(word) == 1:
        value = u[word]
        series = v_series(fam, word).scale(value)
        minor = RationalBF(RationalFunction.simple_pole(word[0], value))
        return ResurgentSeries(series, minor)
    a, b = word
    sigma = a + b
    head = u[Word((a,))] * u[Word((b,))]
    pair_value = u[word]
    ext = fam.extended(2)
    series = (v_series(ext, Word((sigma,))).scale(pair_value)
              + v_series(fam, word).scale(head))
    minor = LogPoleBF(
        RationalFunction.simple_pole(sigma, pair_value),
        [(a, RationalFunction.simple_pole(sigma, head), 0)],
    )
    return ResurgentSeries(series, minor)


# -- iterated contour integrals ----------------------------------------------------------------


class IteratedIntegral(Record, frozen=True):
    """A numeric contour integral with its convergence diagnostics: the
    spectral ``nodes`` per panel, 0 when nothing was sampled, and
    ``certified``, whether ``error_estimate`` is a proved bound of the
    distance from the exact integral."""

    value: object
    error_estimate: object
    nodes: int
    certified: bool


def _contour_segments(endpoint: int):
    """Segment and arc panels of the standard path, in order of travel.

    Straight runs along the real axis from 0 to the endpoint, with
    semicircular detours of radius 1/4 around every integer strictly
    between: below the axis when traveling right, above when traveling
    left (always the right-hand side of the direction of travel).
    """
    import mpmath

    from ._chebyshev import arc, segment

    quarter = mpmath.mpf(1) / 4
    pi = +mpmath.pi
    segs = []
    prev = mpmath.mpf(0)
    if endpoint > 0:
        for m in range(1, endpoint):
            segs.append(segment(prev, m - quarter))
            segs.append(arc(m, quarter, pi, 2 * pi))
            prev = m + quarter
    else:
        for m in range(-1, endpoint, -1):
            segs.append(segment(prev, m + quarter))
            segs.append(arc(m, quarter, mpmath.mpf(0), pi))
            prev = m - quarter
    segs.append(segment(prev, endpoint))
    return segs


def L_numeric(w, prec: int = 53) -> IteratedIntegral:
    """Numeric one-sided mould value as an iterated contour integral.

    For a word of r nonzero integers with partial sums s_1, ..., s_r the
    value is 2*pi*i times the (r-1)-fold iterated integral of the kernels
    1/(zeta - s_k), k < r, along the right-circumventing path from 0 to
    s_r.  The path's panels run once, at the degree
    :func:`~resurgence._chebyshev.panel_bound` picks, and the reported
    error is proved: that bound's panel term (at most a quarter unit
    2^-(prec + 2)) and rounding term, the rounding of 2*pi*i and of the
    product at the working precision, and one unit 2^-prec (1 + |value|)
    for the value's rounding to ``prec`` bits; ``certified`` is True.
    Depth one has an empty integrand and returns 2*pi*i, the convention
    consistent with the depth-1 extraction, from no nodes, correctly
    rounded, with half a unit of its last place as the proved error, so
    it is certified too.  Depth is capped at 3.  ``prec`` must be at
    least MIN_PREC.
    """
    import mpmath

    from . import _work
    from ._chebyshev import iterated_levels, panel_bound, rounded_up

    check_prec(prec)
    word = Word(w)
    r = len(word)
    if r == 0:
        raise ValueError("the empty word has no contour representation")
    if r > 3:
        raise NotImplementedError("iterated integrals are capped at depth 3")
    letters = []
    for a in word:
        if int(a) != a:
            raise TypeError(f"integer letters required, got {a!r}")
        if a == 0:
            raise ValueError("letters must be nonzero")
        letters.append(int(a))
    partials = []
    total = 0
    for a in letters:
        total += a
        partials.append(total)
    if any(s == 0 for s in partials):
        raise ResonanceError(
            f"word {tuple(word)!r} has a vanishing partial sum; the contour "
            f"endpoint or a kernel pole degenerates to the origin",
            word=tuple(word),
        )
    endpoint, kernels = partials[-1], partials[:-1]
    if endpoint in kernels:
        raise ResonanceError(
            f"endpoint {endpoint} of word {tuple(word)!r} is a pole of the "
            f"integrand (endpoint resonance)",
            word=tuple(word),
            endpoint=endpoint,
        )
    if not kernels:
        # no integrand: the constant 2*pi*i, correctly rounded by mpmath,
        # within half a unit of its last place
        with mpmath.workprec(prec):
            tau = mpmath.mpc(0, 2 * mpmath.pi)
            half = mpmath.ldexp(1, mpmath.mag(tau.imag) - prec - 1)
            return IteratedIntegral(value=tau, error_estimate=half, nodes=0,
                                    certified=True)
    with mpmath.workprec(prec + 24):
        tau = mpmath.mpc(0, 2 * mpmath.pi)
        segments = _contour_segments(endpoint)
        # only the last level counts, times |tau| < 6.3
        weights = [0.0] * (len(kernels) - 1) + [6.3]
        n, panel, rounding = panel_bound(kernels, segments, weights, prec)
        # the engine's kernels are 1/(a - zeta), these are 1/(zeta - a)
        sign = (-1) ** len(kernels)
        value = tau * (sign * iterated_levels(kernels, segments, n)[-1])
        # tau and the product, each within 2^(1 - p) of its modulus
        rounding += mpmath.ldexp(abs(value), 3 - mpmath.mp.prec)
        unit = mpmath.ldexp(1 + abs(value), -prec)
        err = rounded_up(panel + rounding + unit, prec)
        _work.add(("terms", n, len(segments), float(panel), 0.0,
                   float(rounding), float(unit)))
    with mpmath.workprec(prec):
        return IteratedIntegral(value=+value, error_estimate=err, nodes=n,
                                certified=True)
