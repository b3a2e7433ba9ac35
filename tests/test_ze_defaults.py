"""ze_eval's defaults against a cutoff of 10^4 with 4 tail terms.

The default cutoff is the first of DEFAULT_CUTOFF = 64, 128, ... whose
tails' predicted remainders fit under half a unit 2^-prec; the number of
tail terms follows the precision.  Over the supported domain
(colour denominators up to 12, depth up to 4, weight up to 12) the result
must agree with that of cutoff 10^4 within the two errors, and its error
may exceed theirs by at most that unit.  Indices whose partial colour
sums come close to an integer are the hard cases: their tails are
expansions in 1/(cutoff |1 - z|).  The tail engine's constants are exact
rationals and are checked against mpmath at three times the bits.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from test_ze_prefix import ze_sum

from resurgence import _work, mzv
from resurgence.mzv import (
    DEFAULT_CUTOFF,
    MAX_COLOUR_DENOMINATOR,
    MAX_DEPTH,
    MAX_WEIGHT,
    MzvIndex,
    _binom_tail_bound,
    _default_terms,
    _em_weight,
    ze_eval,
)

F = Fraction


def sample(seed, count):
    """Seeded indices over the supported domain; a quarter of the colours
    are trivial, the rest uniform over the fractions p/d with d <= 12."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        depth = rng.randint(1, MAX_DEPTH)
        s = tuple(rng.randint(1, 4) for _ in range(depth))
        if sum(s) > MAX_WEIGHT:
            continue
        eps = []
        for _ in range(depth):
            if rng.random() < 0.25:
                eps.append(F(0))
            else:
                d = rng.randint(2, MAX_COLOUR_DENOMINATOR)
                eps.append(F(rng.randint(1, d - 1), d))
        if s[0] == 1 and eps[0] == 0:
            continue
        out.append(MzvIndex(s, tuple(eps)))
    return out


# partial colour sums within 1/56 .. 1/924 of an integer
NEAR_INTEGER = [
    MzvIndex((2, 1), (F(1, 11), F(11, 12))),
    MzvIndex((1, 1), (F(6, 7), F(1, 8))),
    MzvIndex((1, 2), (F(1, 9), F(9, 10))),
    MzvIndex((1, 3, 2), (F(2, 9), F(4, 5), 0)),
    MzvIndex((2, 1, 1, 2), (F(5, 11), F(5, 9), F(2, 3), F(1, 8))),
    MzvIndex((1, 1, 1), (F(1, 7), F(3, 11), F(7, 12))),
]
INDICES = sample(7, 24) + NEAR_INTEGER


@pytest.mark.parametrize("prec", [53, 120])
@pytest.mark.parametrize("idx", INDICES, ids=str)
def test_default_matches_cutoff_ten_thousand(idx, prec):
    new = ze_eval(idx, prec=prec)
    old = ze_sum(idx, prec, 10**4, 4)
    assert new.certified
    with mpmath.workprec(3 * prec):
        assert abs(new.value - old.value) <= new.error + old.error
        unit = mpmath.ldexp(1 + abs(new.value), -prec)
        assert new.error <= old.error + unit


def cold_caches():
    for cache in (mzv._ze_chosen, mzv._power_store, mzv._colour_row,
                  mzv._roots, mzv._direct_root):
        cache.cache_clear()


def chosen(idx, prec=53, start=DEFAULT_CUTOFF):
    """ze_eval from cold caches: (evaluation, [cutoffs summed], [(P,
    predicted, reported remainder)])."""
    cold_caches()
    with _work.counting() as counts:
        ev = ze_eval(idx, prec=prec, cutoff=start)
    keys = [key for key in counts for _ in range(counts[key])
            if isinstance(key, tuple)]
    return (ev, [key[1] for key in keys if key[0] == "cutoff"],
            [key[2:] for key in keys if key[0] == "remainder"])


def test_every_start_follows_one_rule():
    """A cutoff given as 1024 climbs the same ladder as the default from
    64 does: the hard index sums once, at 8192, with an error below
    1.7e-16; an index that fits at the start sums there.  The default is
    a plain int."""
    hard = NEAR_INTEGER[-1]
    given, tried = chosen(hard, start=1024)[:2]
    default = ze_eval(hard)
    assert tried == [8192]
    assert (given.value, given.error) == (default.value, default.error)
    assert given.error < 1.7e-16
    # the one sum at 1024 leaves remainders far above the unit 2^-53
    assert ze_sum(hard, 53, 1024, _default_terms(hard, 53, 1024)).error \
        > 1e-8
    easy = MzvIndex((2, 1))
    assert chosen(easy, start=1024)[1] == [1024]
    assert ze_eval(easy) is ze_eval(easy, cutoff=DEFAULT_CUTOFF)
    assert type(DEFAULT_CUTOFF) is int and DEFAULT_CUTOFF == 64


def test_doubling_stops_at_max_cutoff(monkeypatch):
    """The ladder never passes MAX_CUTOFF: a start at the ceiling sums
    once, there, and with the ceiling lowered to 4096 the hard index,
    whose remainders fit at 8192, sums at 4096."""
    assert chosen(MzvIndex((2,)), start=mzv.MAX_CUTOFF)[1] == [mzv.MAX_CUTOFF]
    hard = NEAR_INTEGER[-1]
    monkeypatch.setattr(mzv, "MAX_CUTOFF", 4096)
    ev, tried, [(P, predicted, reported)] = chosen(hard)
    assert tried == [4096]
    assert predicted >= reported > 1 << (P - 54)
    fixed = ze_sum(hard, 53, 4096, _default_terms(hard, 53, 4096))
    assert (ev.value, ev.error) == (fixed.value, fixed.error)
    assert chosen(hard, start=4096)[1] == [4096]


@pytest.mark.parametrize("prec", [53, 120])
def test_one_cutoff_per_call(prec):
    """Every call sums its prefix once, at a cutoff of the ladder 64,
    128, ... not past MAX_CUTOFF, and the remainder predicted before that
    sum bounds the one reported after it; it fits under half a unit
    2^-prec wherever the sum stops before the ceiling."""
    ladder = [DEFAULT_CUTOFF << k for k in range(15)]
    for idx in INDICES:
        ev, tried, [(P, predicted, reported)] = chosen(idx, prec)
        assert len(tried) == 1 and tried[0] in ladder
        assert tried[0] <= mzv.MAX_CUTOFF
        assert predicted >= reported
        assert predicted <= 1 << (P - prec - 1)
        assert ev.certified


@pytest.mark.parametrize("idx", NEAR_INTEGER[-2:], ids=str)
def test_chosen_cutoff_equals_a_cold_sum(idx):
    """The ladder reuses the tails' coefficients while the number of tail
    terms stays the same; the chosen cutoff's result equals (==) that of
    one sum there with every cache cold."""
    ev, [N] = chosen(idx)[:2]
    cold_caches()
    cold = ze_sum(idx, 53, N, _default_terms(idx, 53, N))
    assert (cold.value, cold.error) == (ev.value, ev.error)


def test_default_terms_follow_the_precision():
    real = MzvIndex((2, 1))
    assert [_default_terms(real, p, 1024) for p in (53, 57, 58, 120)] == \
        [4, 4, 5, 17]
    # a partial colour sum 1/924 from an integer turns 1024 |1 - z| < 7
    # times: the expansion keeps 4 terms at any precision
    near = MzvIndex((1, 1, 1), (F(1, 7), F(3, 11), F(7, 12)))
    assert _default_terms(near, 120, 1024) == 4
    assert _default_terms(near, 120, 16384) == 17


@pytest.mark.parametrize("x", [2, 3, 7, 12, 25, 40])
def test_euler_maclaurin_weights_are_exact(x):
    bits = 3 * 120
    for j in range(1, 21):
        weight = _em_weight(x, j)
        with mpmath.workprec(bits):
            want = (mpmath.bernoulli(2 * j) / mpmath.factorial(2 * j)
                    * mpmath.rf(x, 2 * j - 1))
            got = mpmath.mpf(weight.numerator) / weight.denominator
            assert abs(got - want) <= mpmath.ldexp(abs(want), 16 - bits)


@pytest.mark.parametrize("x,top,cutoff", [
    (2, 0, 64), (3, 4, 64), (12, 9, 64), (20, 30, 1024), (40, 60, 64)])
def test_binomial_tail_bound_holds(x, top, cutoff):
    """sum_{l > top} C(x+l-1, l) n^-l <= B n^(-top-1) at n = cutoff + 1,
    where the bound is tightest, with the series summed to convergence."""
    bound = _binom_tail_bound(x, top, cutoff)
    n = cutoff + 1
    with mpmath.workprec(200):
        total = mpmath.mpf(0)
        term = mpmath.binomial(x + top, top + 1) / mpmath.mpf(n) ** (top + 1)
        l = top + 1
        while term > mpmath.ldexp(total, -190) or l < top + 3:
            total += term
            term = term * (x + l) / ((l + 1) * n)
            l += 1
        limit = mpmath.mpf(bound.numerator) / bound.denominator \
            / mpmath.mpf(n) ** (top + 1)
        assert total <= limit
