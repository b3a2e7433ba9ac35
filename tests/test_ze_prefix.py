"""The fixed-point prefix sums of ze_eval against the mpf loops they replace.

``reference_prefix`` keeps the loops that summed the nested series below
the cutoff in mpmath arithmetic, one division, colour product and inner
product per term and level.  Run at three times the bits of the
fixed-point scale, they are the reference that the proved rounding term
of the integer sums must cover.  ``reference_ze_eval`` completes the same
loops at prec + 48 bits with the certified tail engine, which is the
evaluator the fixed-point sums replace: both must report errors that
cover their difference.

The colour tests compare depth-one sums for every reduced colour p/d with
d <= 12 against closed forms: sum z^n / n = -log(1 - z), and splitting n
by its residue modulo d,
sum z^n / n^s = d^-s sum_{k=1}^{d} z^k zeta(s, k/d) (Hurwitz zeta).
"""

from fractions import Fraction
from math import gcd

import mpmath
import pytest

from resurgence.mzv import (
    _FIX_GUARD,
    MAX_COLOUR_DENOMINATOR,
    Evaluation,
    MzvIndex,
    _colour_row,
    _compose_level,
    _prefix_sums,
    _tail_sum,
    _TailForm,
    ze_eval,
)

THIRD = Fraction(1, 3)
QUARTER = Fraction(1, 4)

INDICES = [
    MzvIndex((2, 1, 1)),
    MzvIndex((2, 1), (THIRD, QUARTER)),
    MzvIndex((4, 5, 2, 1), (Fraction(1, 5), Fraction(2, 7), Fraction(3, 11),
                            Fraction(5, 12))),
]
CUTOFF = 2000


def reference_prefix(idx, N):
    """tops[j] = sum over N >= n_j > ... > n_r > 0 of the level-j
    summands, in mpmath arithmetic at the working precision."""
    r = idx.depth
    rows = [None if e == 0 else _colour_row(e) for e in idx.eps]
    one = mpmath.mpf(1)
    S_next = None
    tops = [None] * (r + 2)
    tops[r + 1] = one
    for j in range(r, 0, -1):
        s_j, row = idx.s[j - 1], rows[j - 1]
        d = len(row) if row is not None else 1
        acc = mpmath.mpf(0)
        cur = [mpmath.mpf(0)] * (N + 2)
        for n in range(1, N + 1):
            f = one / mpmath.mpf(n**s_j)
            if row is not None:
                f = f * row[n % d]
            if S_next is not None:
                f = f * S_next[n]
            acc = acc + f
            cur[n + 1] = acc
        tops[j] = acc
        S_next = cur
    return tops


def reference_ze_eval(idx, prec, cutoff, terms=4):
    """ze_eval with the prefix sums done by the mpf loops at prec + 48."""
    r, N = idx.depth, cutoff
    with mpmath.workprec(prec + 48):
        tops = reference_prefix(idx, N)
        one = mpmath.mpf(1)
        value = tops[1]
        bound = mpmath.mpf(0)
        prev = None
        for j in range(1, r + 1):
            if prev is None:
                base = _TailForm(idx.eps[0], idx.s[0],
                                 [one] + [mpmath.mpf(0)] * (terms + r + 2),
                                 mpmath.mpf(0), N)
            else:
                base = _compose_level(idx.eps[j - 1], idx.s[j - 1], prev)
            W = _tail_sum(base)
            value = value + W.value_at(N) * tops[j + 1]
            bound = bound + W.error_at(N) * abs(tops[j + 1])
            prev = W
        bound = bound + mpmath.ldexp(1 + abs(value), -(prec + 16))
        value = +value
        bound = +bound
    with mpmath.workprec(prec):
        value = +value
        bound = bound + mpmath.ldexp(1 + abs(value), -prec)
        return Evaluation(value, +bound, certified=True)


@pytest.mark.parametrize("prec", [53, 120])
@pytest.mark.parametrize("idx", INDICES, ids=str)
def test_prefix_sums_within_proved_term(idx, prec):
    """Every level's fixed-point sum lies within its proved rounding term
    of the loops at three times the bits, and the head's term stays
    under the ulp-scale cushion of the reported error."""
    P = prec + 48 + _FIX_GUARD
    tops, err = _prefix_sums(idx, CUTOFF, P)
    with mpmath.workprec(3 * P):
        want = reference_prefix(idx, CUTOFF)
        for j in range(1, idx.depth + 1):
            re, im = tops[j]
            got = mpmath.mpc(mpmath.mpf((re, -P)), mpmath.mpf((im or 0, -P)))
            assert abs(got - want[j]) <= mpmath.ldexp(err[j], -P)
        assert mpmath.ldexp(err[1], -P) < mpmath.ldexp(1, -(prec + 16))


@pytest.mark.parametrize("prec", [53, 120])
@pytest.mark.parametrize("idx", INDICES, ids=str)
def test_value_within_both_errors(idx, prec):
    new = ze_eval(idx, prec=prec, cutoff=CUTOFF)
    old = reference_ze_eval(idx, prec, CUTOFF)
    with mpmath.workprec(2 * prec):
        assert abs(new.value - old.value) <= new.error + old.error


def closed_form(s, q):
    """sum over n >= 1 of exp(2 pi i q n) / n^s for a colour q != 0."""
    z = mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
    if s == 1:
        return -mpmath.log(1 - z)
    d = q.denominator
    return sum(z**k * mpmath.zeta(s, mpmath.mpf(k) / d)
               for k in range(1, d + 1)) / mpmath.mpf(d) ** s


@pytest.mark.parametrize("d", range(2, MAX_COLOUR_DENOMINATOR + 1))
def test_every_colour_at_depth_one(d):
    """Each reduced colour p/d at s = 1 and 2 matches its closed form
    within the reported error, and that error stays below 1e-15."""
    for p in range(1, d):
        if gcd(p, d) != 1:
            continue
        q = Fraction(p, d)
        for s in (1, 2):
            ev = ze_eval(MzvIndex((s,), (q,)))
            with mpmath.workprec(3 * 53):
                assert abs(ev.value - closed_form(s, q)) <= ev.error
            assert ev.error < 1e-15


def test_colour_at_high_precision():
    q = Fraction(5, 12)
    ev = ze_eval(MzvIndex((2,), (q,)), prec=120)
    with mpmath.workprec(3 * 120):
        assert abs(ev.value - closed_form(2, q)) <= ev.error
    assert ev.error < mpmath.mpf(10) ** -33
