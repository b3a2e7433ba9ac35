"""The fixed-point engine of ze_eval against the mpf loops it replaces.

``reference_prefix`` keeps the loops that summed the nested series below
the cutoff in mpmath arithmetic, one division, colour product and inner
product per term and level.  ``ReferenceTail`` and its helpers keep the
certified tail engine in mpmath arithmetic, one mpf or mpc operation per
binomial and Bernoulli weight.  Run at three times the bits of the
fixed-point scale, they are the reference that the proved rounding terms
of the integer sums and tails must cover.  ``reference_ze_eval``
completes the prefix loops at prec + 48 bits with the mpf tail engine,
the evaluator the fixed-point one replaces: both must report errors that
cover their difference.

The colour tests compare depth-one sums for every reduced colour p/d with
d <= 12 against closed forms: sum z^n / n = -log(1 - z), and splitting n
by its residue modulo d,
sum z^n / n^s = d^-s sum_{k=1}^{d} z^k zeta(s, k/d) (Hurwitz zeta).
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import comb, gcd

import mpmath
import pytest

from resurgence.mzv import (
    _FIX_GUARD,
    MAX_COLOUR_DENOMINATOR,
    Evaluation,
    MzvIndex,
    _binom_tail_bound,
    _default_terms,
    _em_weight,
    _evaluation,
    _prefix_sums,
    _tail_chain,
    _tail_forms,
    _telescope,
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


def ze_fixed(idx, N, P, terms):
    """The fixed-point nested sum of ``ze_eval`` at the cutoff N with
    ``terms`` tail terms: ((re, im), rounding, remainder) in units 2^-P."""
    return _telescope(idx, N, P, _tail_forms(_tail_chain(idx, P, terms), N))


def ze_sum(idx, prec, cutoff, terms):
    """The Evaluation of the nested sum at one cutoff and number of tail
    terms, the cutoff rule of ``ze_eval`` left out."""
    return _evaluation(idx, prec,
                       ze_fixed(idx, cutoff, prec + _FIX_GUARD, terms))


def phase_power(q, n):
    """exp(2 pi i q n) computed from the exact reduced phase."""
    qn = (q * n) % 1
    return mpmath.expjpi(2 * mpmath.mpf(qn.numerator) / qn.denominator)


def colour_row(q):
    """exp(2 pi i q n) for n = 0 .. denominator-1, indexable by n mod d."""
    return [phase_power(q, n) for n in range(q.denominator)]


def reference_prefix(idx, N):
    """tops[j] = sum over N >= n_j > ... > n_r > 0 of the level-j
    summands, in mpmath arithmetic at the working precision."""
    r = idx.depth
    rows = [None if e == 0 else colour_row(e) for e in idx.eps]
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


# -- the certified tail engine in mpmath arithmetic -------------------------------
#
# f(n) = Z^n (c[0] n^-t + ... + c[K] n^(-t-K) + d(n)), |d(n)| <= R n^(-t-K-1)
# for n > cutoff, with Z = exp(2 pi i q); the same recurrences as the
# engine of resurgence.mzv, with every weight rounded once per use.


@dataclass
class ReferenceTail:
    q: Fraction
    t: int
    c: list
    R: object
    cutoff: int

    @property
    def order(self):
        return len(self.c) - 1

    def value_at(self, m):
        inv = mpmath.mpf(1) / m
        acc = mpmath.mpf(0)
        for coeff in reversed(self.c):
            acc = acc * inv + coeff
        acc = acc * inv ** self.t
        if self.q != 0:
            acc = acc * phase_power(self.q, m)
        return acc

    def error_at(self, m):
        return self.R * mpmath.mpf(m) ** (-(self.t + self.order + 1))


def scaled(x, q):
    return x * q.numerator / q.denominator


def shift_down(c, t, R, cutoff):
    K = len(c) - 1
    out = [mpmath.mpf(0)] * (K + 1)
    for i in range(K + 1):
        acc = mpmath.mpf(0)
        for j in range(i + 1):
            term = c[j] * comb(t + i - 1, i - j)
            if (i - j) % 2:
                acc -= term
            else:
                acc += term
        out[i] = acc
    rem = mpmath.mpf(R)
    for j in range(K + 1):
        rem += scaled(abs(c[j]), _binom_tail_bound(t + j, K - j, cutoff))
    return out, rem


def tail_abel(form):
    K = form.order
    t, N0 = form.t, form.cutoff
    Z = phase_power(form.q, 1)
    v = [mpmath.mpc(0)] * (K + 1)
    for i in range(K + 1):
        inner = mpmath.mpc(0)
        for j in range(i):
            term = v[j] * comb(t + i - 1, i - j)
            if (i - j) % 2:
                inner -= term
            else:
                inner += term
        v[i] = (mpmath.mpc(form.c[i]) + Z * inner) / (1 - Z)
    eta = mpmath.mpf(0)
    for j in range(K + 1):
        eta += scaled(abs(v[j]), _binom_tail_bound(t + j, K - j, N0))
    unrolled = (mpmath.mpf(form.R) + eta) / (t + K)
    shifted, rem_shift = shift_down([Z * x for x in v], t, 0, N0)
    R_out = unrolled + abs(shifted[K]) + rem_shift / N0
    return ReferenceTail(form.q, t, shifted[:K], R_out, N0)


def tail_em(form):
    K = form.order
    t, N0 = form.t, form.cutoff
    out = [mpmath.mpf(0)] * (K + 1)
    rem = mpmath.mpf(0)

    def fold(amount, slot):
        nonlocal rem
        rem += amount * mpmath.mpf(N0 + 1) ** (K + 1 - slot)

    for k in range(K + 1):
        x = t + k
        ck = form.c[k]
        out[k] += ck / (x - 1)
        if k + 1 <= K:
            out[k + 1] += ck / mpmath.mpf(2)
        else:
            fold(abs(ck) / 2, k + 1)
        for j in count(1):
            slot = k + 2 * j
            term = scaled(ck, _em_weight(x, j))
            if slot > K:
                fold(abs(term), slot)
                break
            out[slot] += term
    shifted, rem_shift = shift_down(out, t - 1, rem, N0)
    R_out = rem_shift + mpmath.mpf(form.R) / (t + K)
    return ReferenceTail(form.q, t - 1, shifted, R_out, N0)


def reference_tails(idx, N, terms):
    """The pure tails W_j(N) of every level, with their remainders."""
    one = mpmath.mpf(1)
    out = []
    W = None
    for j in range(idx.depth):
        if W is None:
            W = ReferenceTail(idx.eps[0], idx.s[0],
                              [one] + [mpmath.mpf(0)] * (terms + idx.depth + 2),
                              mpmath.mpf(0), N)
        else:
            W = ReferenceTail((idx.eps[j] + W.q) % 1, idx.s[j] + W.t,
                              list(W.c), W.R, N)
        W = tail_em(W) if W.q == 0 else tail_abel(W)
        out.append((W.value_at(N), W.error_at(N)))
    return out


def reference_sum(idx, N, terms):
    """(value, certified remainder) of the mpf engine at the working
    precision: the prefix loops plus the telescoped tails."""
    tops = reference_prefix(idx, N)
    value, bound = tops[1], mpmath.mpf(0)
    for j, (tail, err) in enumerate(reference_tails(idx, N, terms), 1):
        value = value + tail * tops[j + 1]
        bound = bound + err * abs(tops[j + 1])
    return value, bound


def reference_ze_eval(idx, prec, cutoff, terms=4):
    """ze_eval with the mpf prefix loops and tail engine at prec + 48,
    behind the ulp-scale cushion that covered their rounding."""
    with mpmath.workprec(prec + 48):
        value, bound = reference_sum(idx, cutoff, terms)
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
    2^16 times under the unit 2^-prec of the reported error."""
    P = prec + _FIX_GUARD
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


def check_against_reference(idx, prec, cutoff):
    """The fixed-point engine's value lies within its proved rounding term
    of the mpf engine run at three times the bits, its remainder is no
    smaller than that engine's, and the error of the evaluation at that
    one cutoff covers the distance of its value from that engine's."""
    P = prec + _FIX_GUARD
    terms = _default_terms(idx, prec, cutoff)
    (re, im), rounding, remainder = ze_fixed(idx, cutoff, P, terms)
    ev = ze_sum(idx, prec, cutoff, terms)
    with mpmath.workprec(3 * P):
        want, bound = reference_sum(idx, cutoff, terms)
        got = mpmath.mpc(mpmath.mpf((re, -P)), mpmath.mpf((im or 0, -P)))
        assert abs(got - want) <= mpmath.ldexp(rounding, -P)
        assert mpmath.ldexp(remainder, -P) >= bound * (1 - mpmath.ldexp(1, -P))
        assert abs(ev.value - want) <= ev.error


@pytest.mark.parametrize("prec", [53, 113, 200])
@pytest.mark.parametrize("idx", INDICES, ids=str)
def test_engine_within_rounding_term(idx, prec):
    check_against_reference(idx, prec, CUTOFF)


@pytest.mark.parametrize("prec", [53, 113, 200])
@pytest.mark.parametrize("d", range(2, MAX_COLOUR_DENOMINATOR + 1))
def test_every_colour_within_rounding_term(d, prec):
    """Each reduced colour p/d at depth 1, and at depth 2 with the colour
    doubled (a second Abel level) and cancelled (an Euler-Maclaurin
    level with complex coefficients), at the cutoff 256."""
    for p in range(1, d):
        if gcd(p, d) != 1:
            continue
        q = Fraction(p, d)
        for idx in (MzvIndex((1,), (q,)), MzvIndex((1, 1), (q, q)),
                    MzvIndex((1, 2), (q, -q))):
            check_against_reference(idx, prec, 256)


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
