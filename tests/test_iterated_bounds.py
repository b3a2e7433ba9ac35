"""Seeded honesty sweeps of the proved errors of the iterated integrals.

``wa_eval`` and ``L_numeric`` report ``certified: True``: the error is a
bound of the distance from the exact value.  Each sweep draws its inputs
from a fixed seed, at 53 and 113 bits, and checks |value - reference| <=
error every time, with no tolerance added.  The references:

* ``wa_eval`` against ``ze_eval`` at prec + 64 bits, whose own proved
  error is added to the budget, on coloured words with denominators up to
  12 and weight up to 6;
* ``L_numeric`` at depth 2 against the closed form: for the word (a, b)
  the path from 0 to a + b integrates 1 / (z - a) once, so the value is
  2 pi i (log|b / a| + i pi [the path detours around a]), the detour
  being taken when a lies strictly between 0 and a + b;
* ``L_numeric`` on (1, 1, 1) and (2, 2, 2) against (2 pi i)^3 / 6, and on
  other depth-3 words against itself at prec + 64 bits, whose error is
  added to the budget.

The closed forms are evaluated at prec + 64 bits.  Each reported error is
about one unit 2^-prec (1 + |value|), which also covers a panel term the
bound undercounts, so the last sweep checks the panel term on its own: on
seeded contour and simplex words, ``panel_bound`` at a target of 30 bits
and 120 working bits, against the same integral at 240 bits.
"""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest

from resurgence._chebyshev import iterated_levels, panel_bound, segment
from resurgence.hyperlog import L_numeric, _contour_segments
from resurgence.mzv import MzvIndex, wa_eval, ze_eval, ze_to_wa

PRECS = [53, 113]


def coloured_indices(seed, count):
    """Indices of depth 1 to 3 and weight up to 6, with colours of
    denominator up to 12 and a convergent head."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        depth = rng.randint(1, 3)
        weight = rng.randint(max(depth, 2), 6)
        cuts = sorted(rng.sample(range(1, weight), depth - 1))
        s = tuple(b - a for a, b in zip([0] + cuts, cuts + [weight]))
        eps = []
        for _ in s:
            d = rng.randint(1, 12)
            eps.append(Fraction(rng.choice(
                [k for k in range(d) if gcd(k, d) == 1]), d))
        if (s[0], eps[0]) != (1, 0):
            out.append(MzvIndex(s, tuple(eps)))
    return out


def contour_words(seed, count, depth):
    """Words of nonzero letters in [-3, 3] without a resonance: no partial
    sum vanishes, and the last is not an earlier one."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(depth))
        partials = [sum(word[:k]) for k in range(1, depth + 1)]
        if 0 not in partials and partials[-1] not in partials[:-1]:
            out.append(word)
    return out


@pytest.mark.parametrize("prec", PRECS)
def test_wa_within_its_error(prec):
    for idx in coloured_indices(prec, 40):
        wa = wa_eval(ze_to_wa(idx), prec=prec)
        reference = ze_eval(idx, prec=prec + 64)
        assert wa.certified
        assert abs(wa.value - reference.value) \
            <= wa.error + reference.error, idx


def depth_two(a, b):
    """The closed form of L(a, b) above."""
    detour = 0 < a < a + b or a + b < a < 0
    return mpmath.mpc(0, 2 * mpmath.pi) * (
        mpmath.log(abs(mpmath.mpf(b) / a)) + (mpmath.mpc(0, mpmath.pi)
                                              if detour else 0))


@pytest.mark.parametrize("prec", PRECS)
def test_L_depth_two_within_its_error(prec):
    for a, b in contour_words(prec, 30, 2):
        got = L_numeric((a, b), prec=prec)
        with mpmath.workprec(prec + 64):
            assert got.certified
            assert abs(got.value - depth_two(a, b)) <= got.error_estimate, \
                (a, b)


@pytest.mark.parametrize("prec", PRECS)
@pytest.mark.parametrize("word", [(1, 1, 1), (2, 2, 2)])
def test_L_equal_letters_within_its_error(prec, word):
    got = L_numeric(word, prec=prec)
    with mpmath.workprec(prec + 64):
        exact = mpmath.mpc(0, 2 * mpmath.pi) ** 3 / 6
        assert abs(got.value - exact) <= got.error_estimate


@pytest.mark.parametrize("prec", PRECS)
def test_L_depth_three_within_its_error(prec):
    for word in contour_words(prec, 16, 3):
        got = L_numeric(word, prec=prec)
        reference = L_numeric(word, prec=prec + 64)
        with mpmath.workprec(prec + 64):
            assert abs(got.value - reference.value) \
                <= got.error_estimate + reference.error_estimate, word


def simplex_words(seed, count):
    """Words of 2 to 4 letters, each 0 or a root of unity of order up to
    12, as (numerator, denominator) of its angle over 2 pi."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = []
        for _ in range(rng.randint(2, 4)):
            d = rng.randint(1, 12)
            word.append(None if rng.random() < 0.3 else
                        (rng.choice([k for k in range(d) if gcd(k, d) == 1]),
                         d))
        out.append(tuple(word))
    return out


def simplex_letters(word):
    return [mpmath.mpf(0) if a is None else mpmath.expjpi(
        2 * mpmath.mpf(a[0]) / a[1]) for a in word]


def graded(right):
    """The middle panels of wa_eval: [1/8, 1/4, 1/2, ..., 1 - 2^-right]."""
    points = ([mpmath.mpf(1) / 8, mpmath.mpf(1) / 4]
              + [1 - mpmath.ldexp(1, -k) for k in range(1, right + 1)])
    return [segment(a, b) for a, b in zip(points[:-1], points[1:])]


def test_panel_term_bounds_the_contour_error():
    for word in contour_words(30, 12, 2) + contour_words(31, 12, 3):
        partials = [sum(word[:k]) for k in range(1, len(word) + 1)]
        poles, endpoint = partials[:-1], partials[-1]
        weights = [0.0] * (len(poles) - 1) + [1.0]
        with mpmath.workprec(120):
            n, panel, rounding = panel_bound(
                poles, _contour_segments(endpoint), weights, 30)
            got = iterated_levels(poles, _contour_segments(endpoint), n)[-1]
        with mpmath.workprec(240):
            fine = _contour_segments(endpoint)
            m, fine_panel, fine_rounding = panel_bound(poles, fine, weights,
                                                       230)
            want = iterated_levels(poles, fine, m)[-1]
            assert abs(got - want) <= panel + rounding + fine_panel \
                + fine_rounding, word


def test_panel_term_bounds_the_simplex_error():
    for word in simplex_words(32, 16):
        weights = [1.0] * len(word)
        with mpmath.workprec(120):
            poles = simplex_letters(word)
            n, panel, rounding = panel_bound(poles, graded(3), weights, 30)
            got = iterated_levels(poles, graded(3), n)
        with mpmath.workprec(240):
            poles = simplex_letters(word)
            m, fine_panel, fine_rounding = panel_bound(poles, graded(3),
                                                       weights, 230)
            want = iterated_levels(poles, graded(3), m)
            assert sum(abs(g - w) for g, w in zip(got, want)) \
                <= panel + rounding + fine_panel + fine_rounding, word
