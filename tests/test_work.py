"""The work counts of ``resurgence._work``: scopes, pinned counts at the
sites where the work is done, and the totals of ``tools/engine_work.py``.

A count site lost in a refactor reads 0.  The pinned counts catch that
for the sites they reach, and the tool's totals for every count it
prints, since each of them is nonzero on a benchmark round.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from test_iterated_golden import WA
from test_ze_defaults import INDICES, NEAR_INTEGER

from resurgence import _work, mzv
from resurgence.hyperlog import L_numeric
from resurgence._chebyshev import (GUARD, _complex_tuple, _cosines,
                                   _exponentials, _folded, _quarter,
                                   iterated_levels, segment)
from resurgence.mzv import (MzvIndex, _default_terms, _ze_sum, wa_eval,
                            ze_eval, ze_to_wa)

ROOT = Path(__file__).parents[1]


class TestScopes:
    def test_no_scope_counts_nothing(self, monkeypatch):
        """Outside every scope a count goes nowhere, opens no scope, and
        no clock is read."""
        def clock():
            raise AssertionError("timing read the clock with no scope open")

        monkeypatch.setattr(_work.time, "perf_counter", clock)
        _work.add("exp", 5)
        with _work.timing("truncation_s"):
            iterated_levels([2], [segment(0, 1)], 8)
        assert _work._scope.get() is None

    def test_nested_scopes_are_isolated_and_restored(self):
        with _work.counting() as outer:
            _work.add("exp")
            with _work.counting() as inner:
                _work.add("exp", 2)
                _work.add(("cutoff", 1024))
            _work.add("log")
            with _work.timing("truncation_s"):
                pass
        _work.add("exp")
        assert inner == {"exp": 2, ("cutoff", 1024): 1}
        assert outer["exp"] == 1 and outer["log"] == 1
        assert set(outer) == {"exp", "log", "truncation_s"}
        assert outer["truncation_s"] >= 0

    def test_a_scope_closes_on_an_exception(self):
        with pytest.raises(ZeroDivisionError):
            with _work.counting() as counts:
                _work.add("exp")
                1 / 0
        _work.add("exp")
        assert counts == {"exp": 1}


class TestPinnedCounts:
    def test_cold_ray_panel_at_complex_w(self):
        """A 49-node ray kernel at 1 < |u| <= 2 squares the kernel of
        u / 2, which evaluates e^(u x_j / 2) at the 24 nodes x_j > 0
        alone; a warm one evaluates nothing."""
        _exponentials.cache_clear()
        bits = 53 + GUARD
        u = _complex_tuple(mpmath.mpc("-0.75", "1.5"))
        with _work.counting() as cold:
            _exponentials(u, 48, bits)
        with _work.counting() as warm:
            _exponentials(u, 48, bits)
        assert (cold["exp"], cold["cos_sin"], cold["squared"]) \
            == (24, 24, 1)
        assert warm == Counter()

    def test_cold_folded_matrix_entries(self):
        """_folded keeps the rows 1 .. n // 2: 12 rows of 25 at n = 24."""
        _folded.cache_clear()
        with _work.counting() as counts:
            _folded(24, 53)
        assert counts["entries", 24, 53] == 300
        assert counts[("cumulate", 24)] == counts[("total", 24)] == 0

    @pytest.mark.parametrize("n", [16, 24, 53, 80])
    def test_quarter_wave_cosines(self, n):
        """The cosines of degree n read the even quarter-wave entries:
        n // 2 + 1 libmp cosines."""
        _quarter.cache_clear()
        _cosines.cache_clear()
        bits = 53 + GUARD
        with _work.counting() as counts:
            _cosines(n, bits)
        assert counts == {("cos_pi", n, bits): n // 2 + 1}


@lru_cache(maxsize=None)
def engine_work(seed):
    """The JSON object ``tools/engine_work.py`` prints for ``seed``."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "engine_work.py"), "--seed",
         str(seed)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_engine_work_totals_are_nonzero():
    """Every total that ``tools/engine_work.py`` reports is nonzero on a
    benchmark round, so none of its count sites has gone missing."""
    out = engine_work(1)

    def leaves(value, path):
        if isinstance(value, dict):
            for key, inner in value.items():
                yield from leaves(inner, f"{path}.{key}")
        else:
            yield path, value

    totals = {"madds_total": out["madds_total"],
              "unit_points_cos_sin": out["tables"]["unit_points_cos_sin"]}
    for name in ("tables", "iterated", "ze", "laplace"):
        totals.update(leaves(out[name]["total"], name))
    zero = [path for path, value in totals.items() if not value]
    assert len(totals) > 20
    assert not zero, zero


def test_laplace_round_pays_each_transcendental_once_per_panel_shape():
    """A seed-3 certified-sums round samples each panel once, at the
    degree its proved bound picks, and keeps every sum certified: 1437
    nodes on 57 panels, where the nested rule sampled 3381 on 63.  The
    cached shape vectors (kernels by doubling, every degree read off
    degree 48, ray power lanes per r, circle lanes through the ray
    kernel) keep its libmp calls within the pinned ceilings: 67 logs,
    552 exponentials and 382 cosine-sine pairs, where the nested rule
    made 167, 1238 and 657, and a libmp call per node 980, 2336 and
    1257."""
    total = engine_work(3)["laplace"]["total"]
    assert (total["nodes"], total["panels"]) == (1437, 57)
    assert total["certified"] == 9
    assert total["log"] <= 67
    assert total["exp"] <= 552
    assert total["cos_sin"] <= 382


def test_certified_round_sums_a_quarter_of_the_old_prefix():
    """Each ze_eval call picks its cutoff before it sums: a seed-3
    certified-sums round sums at most a quarter of the 65536 prefix terms
    of the doubling from 1024 that the cutoff rule replaced."""
    assert engine_work(3)["ze"]["total"]["prefix_terms"] <= 65536 // 4


def doubling_from_1024(idx, prec):
    """(prefix terms, fits) of the rule ze_eval replaced: sums from the
    cutoff 1024, doubled at most four times while the error exceeded
    2^(1 - prec) (1 + |value|); fits tells whether it stopped within it."""
    terms = 0
    for n in (1024 << k for k in range(5)):
        ev = _ze_sum(idx, prec, n, _default_terms(idx, prec, n))
        terms += idx.depth * n
        if ev.error <= mpmath.ldexp(1 + abs(ev.value), 1 - prec):
            return terms, True
    return terms, False


# (prec, index) -> (doubling's, chosen cutoff's prefix terms) where the
# chosen cutoff sums more: the hard index at 120 bits, where the doubling
# stopped at 16384 with a remainder of 2.6e-31 and the least cutoff of the
# ladder that fits is 32768, and at 53 bits an index whose remainder the
# prediction puts at 2.4e-16 at 1024, bounding |S_3| by 15.9 where it is
# 0.34, against 6.5e-18 reported there: the proved bound costs it one
# doubling.
MORE_THAN_THE_DOUBLING = {(120, NEAR_INTEGER[-1]): (95232, 98304),
                          (53, NEAR_INTEGER[-2]): (4096, 8192)}


@pytest.mark.parametrize("prec", [53, 120])
def test_no_index_sums_more_than_the_doubling(prec):
    """No index of the defaults' sample sums more prefix terms than the
    doubling from 1024 did, except the two pinned ones, and the sample
    sums fewer in all; every error fits 2^(1 - prec)
    (1 + |value|).  The hard index sums 24576 terms against 46080 at 53
    bits."""
    old_total = new_total = 0
    for idx in INDICES:
        old, _fits = doubling_from_1024(idx, prec)
        mzv._ze_chosen.cache_clear()
        with _work.counting() as counts:
            ev = ze_eval(idx, prec=prec)
        new = counts["prefix_terms"]
        assert ev.error <= mpmath.ldexp(1 + abs(ev.value), 1 - prec)
        if (prec, idx) in MORE_THAN_THE_DOUBLING:
            assert (old, new) == MORE_THAN_THE_DOUBLING[prec, idx]
        else:
            assert new <= old
        if (prec, idx) == (53, NEAR_INTEGER[-1]):
            assert (old, new) == (46080, 24576)
        old_total += old
        new_total += new
    assert new_total < old_total


HALF = Fraction(1, 2)
# the degree panel_bound picks, by precision, for every contour word of the
# iterated-integrals workload, and for the real-colour indices its wa_eval
# words come from (tests/test_iterated_golden.py): most at one degree,
# the others listed
L_WORDS = [(1, 1), (1, 2), (2, 1), (1, 1, 1), (2, 2), (2, 2, 2)]
L_DEGREES = {53: 48, 80: 64}
WA_DEGREES = {
    53: (24, {((1, 1), (HALF, 0)): 12, ((2, 1, 1), (0, 0, 0)): 32}),
    80: (48, {((1, 1), (HALF, 0)): 24, ((2, 1), (HALF, 0)): 32,
              ((1, 2), (HALF, 0)): 32, ((2, 1, 1), (HALF, 0, 0)): 32,
              ((2, 1, 1), (HALF, 0, HALF)): 32,
              ((2, 1, 1), (HALF, HALF, HALF)): 32,
              ((1, 2, 1), (HALF, 0, 0)): 32,
              ((1, 1, 2), (HALF, 0, 0)): 32})}


@pytest.mark.parametrize("prec", [53, 80])
def test_benchmark_words_pin_their_degrees(prec):
    """Each benchmark word runs once, at the degree its panel bound
    picks: the least of the form 2^k or 3 2^(k - 1) that meets a quarter
    unit, 48 and 64 for every contour word (they were run at max(48,
    prec) and again at half that), and mostly 24 and 48 for wa_eval
    (which ran at 24 and again at 16 at every precision)."""
    for word in L_WORDS:
        assert L_numeric(word, prec=prec).nodes == L_DEGREES[prec], word
    usual, others = WA_DEGREES[prec]
    for s, eps, _value, _error in WA:
        with _work.counting() as counts:
            wa_eval(ze_to_wa(MzvIndex(s, eps)), prec=prec)
        (degree,) = [key[1] for key in counts if key[0] == "terms"]
        assert degree == others.get((s, eps), usual), (s, eps)
        assert [key[2] for key in counts if key[0] == "iterated_levels"] \
            == [degree]


def test_error_terms_sum_to_the_error():
    """``tools/engine_work.py`` lists each wa_eval and L_numeric call of
    a round that integrates, with its degree, panels and error terms;
    the terms add up to the reported error, and the panel term is within
    a quarter unit."""
    operations = engine_work(1)["iterated"]["operations"]
    assert len(operations) == 3 + 8 + 2
    for name, op in operations.items():
        total = sum(op["terms"].values())
        assert abs(op["error"] - total) <= total * 2 ** -40, name
        assert op["terms"]["panel"] <= op["terms"]["unit"] / 4, name
        assert op["degree"] in (12, 24, 32, 48, 64), name
