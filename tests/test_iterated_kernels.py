"""The per-panel work of the iterated integrals, shared between words, and
the unit points of the arcs.

``_chebyshev._kernel`` (a panel's kernel dz / (a - z) at the nodes),
``_chebyshev._first_level`` (its cumulative integral, or only its total)
and ``_chebyshev._letter`` (the panel bound's data for one letter) are
cached per panel, letter, degree and precision, a panel being keyed by
its mpf tuples.  A cached vector must equal a fresh computation, stay
unchanged when the engine adds a running total to it, and every case of
``test_iterated_golden`` must give one result, bit for bit, with the
caches cleared, warm, bypassed, and with the calls run in reverse order.

``_chebyshev._unit_points`` takes the mirrored nodes of an arc as
exp(i mid) exp(-+i t_j) from one libmp call per pair, and sends back to
the per-node formula every part that its proved radius cannot tell:
each table must hold the integers ``reference_unit_points`` rounds node
by node through mpmath.
"""

import random
import struct
from functools import lru_cache

import mpmath
import pytest
from test_chebyshev import reference_unit_points
from test_iterated_golden import L, WA, within

from resurgence import _chebyshev, _work, hyperlog, mzv
from resurgence._chebyshev import (GUARD, _complex_tuple, _cosines,
                                   _cumulate, _first_level, _folded, _kernel,
                                   _letter, _plus, _total, _unit_points, arc,
                                   segment)
from resurgence.hyperlog import L_numeric
from resurgence.mzv import MzvIndex, wa_eval, ze_to_wa

CACHES = ("_kernel", "_first_level", "_letter")


def clear_caches():
    for module in (_chebyshev, mzv, hyperlog):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# -- the golden cases, cold, warm, bypassed and reversed ----------------------


CALLS = {f"wa{s}{tuple(map(str, eps))}":
         (lambda s=s, eps=eps: wa_eval(ze_to_wa(MzvIndex(s, eps))))
         for s, eps, _value, _error in WA}
CALLS.update({f"L{word}@{prec}":
              (lambda word=word, prec=prec: L_numeric(word, prec=prec))
              for word, prec, _re, _im, _error in L})
# name -> (the value's parts, error), the literals' strings
LITERALS = {name: ((value,), error) for name, (_s, _eps, value, error)
            in zip(CALLS, WA)}
LITERALS.update({name: ((re, im), error) for name, (_w, _p, re, im, error)
                 in zip(list(CALLS)[len(WA):], L)})


def error_of(result):
    """The proved error of a wa_eval or L_numeric result."""
    error = getattr(result, "error", None)
    return result.error_estimate if error is None else error


def record(result):
    """A result's value and error as exact tuples."""
    value = result.value
    exact = value._mpc_ if isinstance(value, mpmath.mpc) else value._mpf_
    return exact, error_of(result)._mpf_


@lru_cache(maxsize=None)
def bypassed(name):
    """The case computed with the three caches replaced by their plain
    functions, each kernel, first level and letter computed afresh."""
    saved = {key: getattr(_chebyshev, key) for key in CACHES}
    try:
        for key, cache in saved.items():
            setattr(_chebyshev, key, cache.__wrapped__)
        return record(CALLS[name]())
    finally:
        for key, cache in saved.items():
            setattr(_chebyshev, key, cache)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_golden_cases_agree_cold_warm_and_bypassed(name):
    clear_caches()
    cold = CALLS[name]()
    assert record(cold) == record(CALLS[name]()) == bypassed(name)
    value, error = LITERALS[name]
    with mpmath.workprec(256):
        within(cold.value, error_of(cold), mpmath.mpc(*value), error)


def test_golden_cases_agree_in_reverse_order():
    clear_caches()
    for name in reversed(sorted(CALLS)):
        assert record(CALLS[name]()) == bypassed(name), name


# -- cached vectors against fresh ones ----------------------------------------


def panels(prec):
    """Segments on the simplex and off the real line, and arcs of the
    contour paths and off them, at the working precision."""
    with mpmath.workprec(prec):
        eighth = mpmath.mpf(1) / 8
        pi = +mpmath.pi
        return [segment(eighth, 2 * eighth),
                segment(mpmath.mpf(1) / 2, 1 - eighth),
                segment(mpmath.mpc(0, 1) / 3, mpmath.mpc("0.75", "-0.2")),
                arc(1, mpmath.mpf(1) / 4, pi, 2 * pi),
                arc(-2, mpmath.mpf(1) / 4, mpmath.mpf(0), pi),
                arc(mpmath.mpc("0.5", "0.5"), mpmath.mpf("0.3"),
                    mpmath.mpf("-0.4"), mpmath.mpf("1.1"))]


def letters(prec):
    """Real and complex letters, none on the panels above."""
    with mpmath.workprec(prec):
        return [mpmath.mpf(0), mpmath.mpf(-1), mpmath.mpf(2),
                mpmath.expjpi(mpmath.mpf(2) / 3), mpmath.mpc("1.5", "0.25")]


@pytest.mark.parametrize("prec", [53, 77, 104])
def test_cached_vectors_equal_fresh_ones(prec):
    bits = prec + GUARD
    for n in (12, 24):
        folded = _folded(n, prec)
        for panel, again in zip(panels(prec), panels(prec)):
            for a in map(_complex_tuple, letters(prec)):
                parts, exp = panel.kernel(a, n, bits)
                cached = _kernel(panel, a, n, bits)
                assert cached == (tuple(map(tuple, parts)), exp)
                assert all(type(p) is tuple for p in cached[0])
                # an equal panel made afresh is the same key
                assert _kernel(again, a, n, bits) is cached
                full = _first_level(panel, a, n, bits, True)
                total = _first_level(panel, a, n, bits, False)
                assert full == (tuple(tuple(_cumulate(folded, p))
                                      for p in parts), exp - bits - 1)
                assert total == (tuple((_total(folded[0], p),)
                                       for p in parts), exp - bits - 1)
                assert [p[-1] for p in full[0]] == [p[0] for p in total[0]]


@pytest.mark.parametrize("prec", [53, 77, 104])
def test_cached_letter_data_equals_fresh(prec):
    p = prec + 24
    for panel in panels(p):
        for a in map(complex, letters(p)):
            cached = _letter(panel, struct.pack("<2d", a.real, a.imag), p)
            fresh = panel.letter(a, p)
            assert cached[:4] == fresh[:4]
            # the kernel majorants on ellipses inside the nearest pole's
            rhos = [1 + (min(fresh[0], 64) - 1) * t for t in (0, 0.5, 0.9)]
            assert cached[4](rhos) == fresh[4](rhos)


def test_equal_panels_share_a_key_and_doubles_do_not():
    """Panels built twice from the same values are equal and hash alike;
    panels whose ends round to the same doubles but differ in their mpf
    tuples are different keys, with different kernels."""
    with mpmath.workprec(120):
        eighth = mpmath.mpf(1) / 8
        fine = segment(eighth, 2 * eighth)
        again = segment(eighth, 2 * eighth)
        coarse = segment(eighth + mpmath.ldexp(1, -80), 2 * eighth)
    assert fine == again and hash(fine) == hash(again)
    assert coarse._doubles == fine._doubles and coarse != fine
    a = _complex_tuple(2)
    assert _kernel(fine, a, 12, 152) is _kernel(again, a, 12, 152)
    assert _kernel(coarse, a, 12, 152) != _kernel(fine, a, 12, 152)
    with mpmath.workprec(77):
        pi = +mpmath.pi
        assert arc(1, mpmath.mpf(1) / 4, pi, 2 * pi) \
            == arc(1, mpmath.mpf(1) / 4, pi, 2 * pi)
        assert arc(1, mpmath.mpf(1) / 4, pi, 2 * pi) \
            != segment(1, mpmath.mpf(1) / 4)


def test_signed_zero_letters_are_different_keys():
    """== merges 0.0 and -0.0; the letter data's key keeps them apart."""
    panel = panels(77)[0]
    _letter.cache_clear()
    for a in (complex(-1.0, 0.0), complex(-1.0, -0.0)):
        _letter(panel, struct.pack("<2d", a.real, a.imag), 77)
    assert _letter.cache_info().misses == 2


def test_running_total_leaves_a_cached_level_unchanged():
    """Adding a complex running total to a real cached first level gives
    a complex level and leaves the cached tuples as they were."""
    prec = 77
    bits = prec + GUARD
    panel = panels(prec)[0]
    a = _complex_tuple(mpmath.mpf(2))
    level = _first_level(panel, a, 24, bits, True)
    before = tuple(map(tuple, level[0])), level[1]
    total = (([3 << 40], [-5 << 40]), -bits)
    parts, _exp = _plus(level, total, bits)
    assert len(parts) == 2 and len(level[0]) == 1
    assert level == before
    assert _first_level(panel, a, 24, bits, True) is level


# -- the mirrored unit points -------------------------------------------------


@pytest.mark.parametrize("n", range(1, 131))
def test_cosine_table_mirrors(n):
    """The unit points pair node j with node n - j: u_(n-j) = -u_j, and the
    middle node of an even n is 0."""
    for bits in (85, 136):
        cos = _cosines(n, bits)
        assert all(cos[n - j] == -cos[j] for j in range(n + 1))


def arcs(seed, count, prec):
    """Seeded (mid, half, n): angles anywhere, and arcs whose ends or
    middle lie on an axis, as every arc of the package has them."""
    rng = random.Random(seed)
    out = []
    with mpmath.workprec(prec):
        pi = +mpmath.pi
        for i in range(count):
            if i % 2:
                mid = mpmath.mpf(rng.uniform(-8, 8))
                half = mpmath.mpf(rng.uniform(-3.5, 3.5))
            else:
                mid = pi * rng.randint(-4, 4) / 2
                half = pi * rng.choice((-2, -1, 1, 2)) / 2
            out.append((mid, half, rng.choice((4, 7, 12, 16, 24, 33, 48,
                                               64))))
    return out


@pytest.mark.parametrize("prec", [53, 77, 113])
def test_unit_points_match_per_node_rounding(prec):
    bits = prec + GUARD
    for mid, half, n in arcs(prec, 24, prec):
        assert _unit_points.__wrapped__(mid, half, n, bits) \
            == reference_unit_points(mid, half, n, bits), (mid, half, n)


def test_unit_points_count_one_call_per_mirrored_pair():
    """An arc of the contour paths at degree 48: the middle angle, the two
    ends and the 23 pairs between them, 26 libmp calls for 49 nodes."""
    with mpmath.workprec(77):
        pi = +mpmath.pi
        mid, half = 3 * pi / 2, pi / 2
    with _work.counting() as counts:
        _unit_points.__wrapped__(mid, half, 48, 109)
    assert counts == {"cos_sin": 26}


def test_unit_points_without_rotation_guard(monkeypatch):
    """With no guard bits the radius always reaches a rounding boundary, so
    every node off the ends and the middle is sent back to the per-node
    formula: the same integers, 3 + 3 ((n + 1) // 2 - 1) calls."""
    monkeypatch.setattr(_chebyshev, "_ROTATION_GUARD", 0)
    for prec in (53, 77, 113):
        bits = prec + GUARD
        for mid, half, n in arcs(prec + 1, 4, prec):
            with _work.counting() as counts:
                got = _unit_points.__wrapped__(mid, half, n, bits)
            assert got == reference_unit_points(mid, half, n, bits)
            assert counts == {"cos_sin": 3 + 3 * ((n + 1) // 2 - 1)}
