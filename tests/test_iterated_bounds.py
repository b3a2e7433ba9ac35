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
bound undercounts, so the next sweep checks the panel term on its own: on
seeded contour and simplex words, ``panel_bound`` at a target of 30 bits
and 120 working bits, against the same integral at 240 bits.

The last tests check the degree ``panel_bound`` picks against its rule,
from the arguments of the bound it evaluates (``_forward``): a rung of
the ladder 2^k, 3 2^(k - 1) that meets the target with the exact row
sums, above only rungs that fail it or the screen with every row sum at
2; and a word certified at 1024 bits.
"""

import random
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from test_iterated_golden import L, WA

from resurgence import _chebyshev, _work, mzv
from resurgence._chebyshev import (MAX_DEGREE, _below, _row_sum, _rung,
                                   iterated_levels, panel_bound, segment)
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


def degree_searches(monkeypatch, run):
    """Each ``panel_bound`` call that run() makes, directly or through
    ``wa_eval`` and ``L_numeric``, as (the n it returned, the arguments
    of each ``_forward`` call of its search)."""
    forward, calls, searches = _chebyshev._forward, [], []

    def recorded(*args):
        calls.append(args)
        return forward(*args)

    def bound(*args, **kwargs):
        calls.clear()
        out = panel_bound(*args, **kwargs)
        searches.append((out[0], list(calls)))
        return out

    monkeypatch.setattr(_chebyshev, "_forward", recorded)
    for module in (mzv, _chebyshev):
        monkeypatch.setattr(module, "panel_bound", bound)
    run(bound)
    monkeypatch.undo()
    return searches


def check_degree(n, calls):
    """n is a rung that meets the target with the exact row sums, unless
    it is MAX_DEGREE, and every rung below it fails the screen, every row
    sum at 2, or that check; returns whether the search stepped down: its
    first screen is of the rung below the one it starts at, so the
    search stepped down exactly when n > 4 is at or below that rung."""
    shapes, tail, last, p, weights, tiny, norm = calls[-1]
    assert (last, norm) == (n, _row_sum(n, p))

    def term(m, norm):
        return _chebyshev._forward(shapes, tail, m, p, weights, tiny,
                                   norm)[0]

    assert n == _rung(n)
    if n < MAX_DEGREE:
        assert term(n, _row_sum(n, p)) <= 1
    r = 4
    while r < n:
        assert term(r, 2.0) > 1 or term(r, _row_sum(r, p)) > 1, (r, n)
        r = _rung(r + 1)
    return 4 < n <= calls[0][2]


@pytest.mark.parametrize("prec", [53, 113, 240])
def test_panel_bound_picks_the_least_rung_that_meets_the_target(
        monkeypatch, prec):
    def run(bound):
        for word in contour_words(30, 12, 2) + contour_words(31, 12, 3):
            L_numeric(word, prec=prec)
        for word in simplex_words(32, 16):
            with mpmath.workprec(prec + 24):
                bound(simplex_letters(word), graded(3), [1.0] * len(word),
                      prec)
        for s, eps, _value, _error in WA:
            wa_eval(ze_to_wa(MzvIndex(s, eps)), prec=prec)
        for word, _prec, _re, _im, _error in L:
            L_numeric(word, prec=prec)

    searches = degree_searches(monkeypatch, run)
    assert len(searches) == 24 + 16 + len(WA) + len(L) - 1
    stepped_down = [check_degree(n, calls) for n, calls in searches]
    # the search starts above the least rung on some of these words
    assert any(stepped_down)


def test_a_search_that_steps_down_screens_each_rung_once(monkeypatch):
    """L((1, 1, 1)) at 80 bits steps down from the rung it starts at; the
    rung it stops at has passed the screen, so the search does not screen
    it again on its way up."""
    with _work.counting() as counts:
        [(n, calls)] = degree_searches(
            monkeypatch, lambda bound: L_numeric((1, 1, 1), prec=80))
    assert check_degree(n, calls)
    screened = [args[2] for args in calls if args[-1] == 2.0]
    assert len(screened) == len(set(screened)) \
        == counts["bound_passes", "screen"]


def test_below_inverts_the_rung():
    rungs = sorted({_rung(k) for k in range(6, MAX_DEGREE + 1)})
    assert rungs[:6] == [6, 8, 12, 16, 24, 32] and rungs[-1] == MAX_DEGREE
    for r in rungs:
        assert _below(r) < r and _rung(_below(r) + 1) == r, r


def test_a_degree_past_the_largest_is_refused_before_its_matrix():
    with mpmath.workprec(6024), _work.counting() as counts:
        with pytest.raises(ValueError, match="MAX_DEGREE"):
            panel_bound([1, 2], _contour_segments(3), [0.0, 6.3], 6000)
    assert counts["bound_passes", "screen"] > 0
    assert not counts["bound_passes", "check"]
    assert not [key for key in counts if key[0] == "entries"]


def test_a_term_past_the_double_range_fails_the_screen(monkeypatch):
    """At 4000 bits the rung below the first estimate has a term past the
    range of a double: it fails the screen instead of raising.  The exact
    row sums are replaced by 2, so that no matrix of degree 3072 is
    built."""
    monkeypatch.setattr(_chebyshev, "_row_sum", lambda n, p: 2.0)
    with mpmath.workprec(4024):
        n, _panel, _rounding = panel_bound([1, 2], _contour_segments(3),
                                           [0.0, 6.3], 4000)
    assert n == 3072


def test_wa_certified_at_1024_bits():
    """Start values of prec + 56 bits, too long for a double, are rounded
    up in the bound's majorants."""
    idx = MzvIndex((1,), (Fraction(1, 2),))
    wa = wa_eval(ze_to_wa(idx), prec=1024)
    reference = ze_eval(idx, prec=1024)
    assert wa.certified
    with mpmath.workprec(1100):
        assert abs(wa.value - reference.value) <= wa.error + reference.error
