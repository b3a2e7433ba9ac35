"""The shape-independent work of the Laplace sums, shared between panels
and sums, and the closed-form bound of their incomplete-gamma moments.

The ray kernel ``_chebyshev._exponentials`` and the circle kernel
``laplace._circle_kernel`` are cached: a cached vector must equal a fresh
computation, and every recorded sum of ``test_laplace_golden`` must give
its recorded result with the caches cleared and warm, the calls run in
either order.  The vectors shared by the panels of one shape are as
accurate as a libmp call per node: a ray kernel built by k squarings is
within 2^(k+2) units of the kernel computed node by node, and a power
kernel's ray lanes t^(sigma-1) and log t, from their vectors cached per
half / mid, within 8 units of ``mpf_exp`` and ``mpf_log`` at each node.
``_borelnum._moment_integral`` bounds Gamma(s, x) / m^s in
closed form at a non-integer order s: on a seeded grid the bound is at
least ``mpmath.gammainc`` at 120 bits and never increases along the
truncation ladder, and at an integer order it is ``gammainc`` itself.
"""

import random
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_man_exp, mpf_add, mpf_exp, mpf_log, mpf_mul
from test_laplace_golden import CALLS, GOLDEN, record

from resurgence import _borelnum, _chebyshev, _work, laplace
from resurgence._chebyshev import (GUARD, _complex_tuple, _cosines,
                                   _exponentials, _node_exponentials)
from resurgence._borelnum import _moment_integral, _ray_lanes
from resurgence.laplace import _circle_kernel


def clear_caches():
    for module in (_chebyshev, _borelnum, laplace):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# -- the cached kernels -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_calls_agree_cold_and_warm(name):
    clear_caches()
    cold = record(CALLS[name]())
    warm = record(CALLS[name]())
    assert cold == warm == GOLDEN[name]


def test_golden_calls_agree_in_reverse_order():
    clear_caches()
    for name in reversed(list(CALLS)):
        assert record(CALLS[name]()) == GOLDEN[name], name


@pytest.mark.parametrize("bits", [85, 145])
@pytest.mark.parametrize("u", [-3, "-0.05", mpmath.mpc(-2, 1),
                               mpmath.mpc("0.5", -7)])
@pytest.mark.parametrize("n", [24, 48])
def test_cached_ray_kernel_equals_a_fresh_one(bits, u, n):
    with mpmath.workprec(bits):
        u = _complex_tuple(mpmath.mpmathify(u))
    first = _exponentials(u, n, bits)
    assert _exponentials(u, n, bits) is first
    assert first == _exponentials.__wrapped__(u, n, bits)


@pytest.mark.parametrize("prec", [53, 113])
@pytest.mark.parametrize("z", [3, mpmath.mpc(2, "-0.5")])
@pytest.mark.parametrize("mid,half", [("-2.83", "3.14"), ("-4.4", "1.57")])
def test_cached_circle_kernel_equals_a_fresh_one(prec, z, mid, half):
    bits = prec + GUARD
    with mpmath.workprec(prec):
        z, mid, half = (mpmath.mpmathify(v) for v in (z, mid, half))
        cr, ci = _chebyshev._mantissas(_complex_tuple(-z / 4), -bits)
    first = _circle_kernel(cr, ci, mid, half, bits)
    assert _circle_kernel(cr, ci, mid, half, bits) is first
    assert first == _circle_kernel.__wrapped__(cr, ci, mid, half, bits)


# -- the shared vectors --------------------------------------------------------


def units_apart(vector, reference):
    """The largest difference of two vectors, part by part, in units of
    the reference's shared exponent: a Fraction."""
    (parts, exp), (ref_parts, ref_exp) = vector, reference
    assert len(parts) == len(ref_parts)
    worst = Fraction(0)
    for p, q in zip(parts, ref_parts):
        for m, r in zip(p, q):
            worst = max(worst, abs(Fraction(m) * Fraction(2) ** (exp - ref_exp)
                                   - r))
    return worst


@pytest.mark.parametrize("bits", [85, 145])
@pytest.mark.parametrize("u,k", [
    (-3, 2), ("1.5", 1), ("-777.77", 10), (-65536, 16), (65536, 16),
    (mpmath.mpc(-2, 1), 2), (mpmath.mpc("0.5", -7), 3),
    (mpmath.mpc("-3.7", "1234.5"), 11), (mpmath.mpc(-40000, 50000), 16),
    (mpmath.mpc(0, 5), 3), (mpmath.mpc(0, -65536), 16)])
def test_doubled_kernel_is_within_its_rounding_bound(bits, u, k):
    """k squarings, and within 2^(k+2) units of the kernel computed node
    by node at ``bits`` bits."""
    with mpmath.workprec(bits):
        u = _complex_tuple(mpmath.mpmathify(u))
    _exponentials.cache_clear()
    with _work.counting() as counts:
        doubled = _exponentials(u, 48, bits)
    assert counts["squared"] == k
    assert units_apart(doubled, _node_exponentials(u, 48, bits)) \
        <= 2 ** (k + 2)


@pytest.mark.parametrize("bits", [85, 145])
@pytest.mark.parametrize("mid,half", [
    (3, 1), ("0.625", "0.375"), (1536, 512), ("1e-3", "3e-4"),
    ("1e6", "1e5")])
@pytest.mark.parametrize("sigma", ["1/3", "1/2", "3/4", "7/2", "-3/4"])
def test_ray_lanes_match_a_log_and_an_exp_per_node(bits, mid, half, sigma):
    """t^s1 and log t from the vectors cached per r = half / mid, against
    ``mpf_log`` and ``mpf_exp`` at each node t_j = mid + half x_j, at the
    sampler's bits + 8 bits."""
    work = bits + 8
    with mpmath.workprec(work):
        m, h = mpmath.mpf(mid)._mpf_, mpmath.mpf(half)._mpf_
        s1 = (mpmath.mpf(Fraction(sigma).numerator)
              / Fraction(sigma).denominator - 1)._mpf_
    logs = [mpf_log(mpf_add(m, mpf_mul(h, from_man_exp(-c, -bits))), work)
            for c in _cosines(48, bits)[:49]]
    powers = [mpf_exp(mpf_mul(s1, x, work), work) for x in logs]
    power, lane = _ray_lanes(m, h, s1, 48, bits, True)
    assert _ray_lanes(m, h, s1, 48, bits, False) == (power, None)
    for vector, reference in ((power, powers), (lane, logs)):
        assert units_apart(vector, _chebyshev._vector([reference], bits)) <= 8


# -- the closed-form moment bound ---------------------------------------------


def orders(seed, count):
    """Seeded non-integer orders: anywhere in (0, 3), within 10^-k of 1,
    and the with_log order s + 1/2 of a power kernel's s = sigma + moment."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = rng.choice(("any", "near-one", "log"))
        if kind == "any":
            s = Fraction(rng.randint(1, 299), 100)
        elif kind == "near-one":
            s = 1 + rng.choice((-1, 1)) * Fraction(1, 10 ** rng.randint(2, 9))
        else:
            s = Fraction(rng.randint(1, 11), 12) + rng.randint(0, 2) \
                + Fraction(1, 2)
        if s.denominator != 1:
            out.append(s)
    return out


def points(s, rng):
    """Points x for the order s: spread over 10^-2 .. 10^3, and for s > 1
    just above and below x = s - 1, where the closed form takes over."""
    xs = [Fraction(10 ** rng.randint(-2, 3)) * rng.randint(1, 9)
          for _ in range(4)]
    if s > 1:
        for k in range(1, 7):
            xs += [s - 1 + Fraction(1, 10 ** k), s - 1 - Fraction(1, 10 ** k)]
    return [x for x in xs if x > 0]


def mp(q):
    return mpmath.mpf(q.numerator) / q.denominator


@pytest.mark.parametrize("i,s", list(enumerate(orders(20, 40))))
def test_moment_bound_is_at_least_the_integral(i, s):
    with mpmath.workprec(120):
        for x in points(s, random.Random(i)):
            for m in (Fraction(1, 8), 1, Fraction(7, 2)):
                sv, xv, mv = mp(s), mp(x), mp(m)
                assert _moment_integral(sv, mv, xv / mv) \
                    >= mpmath.gammainc(sv, xv) / mv ** sv, (x, m)


@pytest.mark.parametrize("s", orders(21, 24))
def test_moment_bound_never_increases_along_the_ladder(s):
    with mpmath.workprec(89):
        s = mp(s)
        for m in (mpmath.mpf("0.05"), 1, 3):
            # the truncation ladder from 1/4, and a fine walk through the
            # point x = s - 1 where the closed form starts
            ladder = [mpmath.mpf(1) / 4 * mpmath.mpf(3 / 2) ** k
                      for k in range(60)]
            fine = [(s - 1 + mpmath.mpf(k) / 64) / m
                    for k in range(-64, 64) if s - 1 + mpmath.mpf(k) / 64 > 0]
            for Ts in (ladder, fine):
                bounds = [_moment_integral(s, m, T) for T in Ts]
                assert all(b >= c for b, c in zip(bounds, bounds[1:])), m


@pytest.mark.parametrize("order", [1, 2, 3, 5])
@pytest.mark.parametrize("x", ["0.3", 2, 17])
def test_integer_moments_stay_exact(order, x):
    with mpmath.workprec(89):
        m = mpmath.mpf(2)
        T = mpmath.mpf(x) / m
        assert _moment_integral(order, m, T) \
            == mpmath.gammainc(order, m * T) / m ** order
