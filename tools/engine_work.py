"""Work counts of the spectral engine on two benchmark rounds.

    PYTHONPATH=src python3 tools/engine_work.py --seed N

Run from the root of a source checkout.  It builds the seeded inputs of the
iterated-integrals workload (``bench/inputs.py``, ``bench/worker.py``), runs
every operation of one round once in this process, with every cache cold,
then does the same for one certified-sums round with the caches of
``_chebyshev``, ``borelfun``, ``laplace``, ``mzv`` and ``series`` cleared,
and prints one JSON object.  For the iterated-integrals round:

* ``applications``: per node count n, how many times the integration
  matrix was applied to one real part of a sample vector (``full``) and
  how many times only its last row, the Clenshaw-Curtis weights, was
  (``total_only``);
* ``madds``: per n, the integer multiply-adds of those applications;
* ``tables``: the first-use tables the round built: per (n, bits) under
  ``trig``, the libmp ``mpf_cos_pi`` evaluations of the quarter-wave
  halves ``_quarter``, the only trigonometry of the cosine and sine
  tables: n // 2 + 1 for the even half, which the cosines read and the
  sines too at even n, and (n + 1) // 2 for the odd half, which only the
  sines of an odd n read, so a scale that builds no sines (the nodes and
  weights at prec + GUARD) evaluates the even half alone.  On seed 3 the
  total is 277, where evaluating every k = 0 .. n per table took 490; per
  (n, prec) under ``matrix``, the integration
  matrix ``entries`` built (only the rows ``_folded`` keeps) and the build
  ``seconds``, counting its cosine and sine tables; ``unit_points_cos_sin``,
  the ``mpf_cos_sin`` calls of the arc tables ``_unit_points`` (one per
  node of each arc); and their ``total``;
* ``round_s``: the wall seconds of the round, counting included;
* ``wa``: per ``wa_eval`` operation, the straight ``panels`` between its
  endpoint slivers, the ``nodes`` per panel of each engine run (the
  estimate and its coarse rerun), the ``series_terms`` of its endpoint
  Taylor series at 0 and at 1, and the wall ``seconds``; and their
  ``total``.

Under ``ze``, for the certified-sums round (its caches of ``mzv`` cold
too): per operation that calls ``ze_eval`` (the nested sums and the
relation checks) the ``cutoffs`` its sums tried, in order, and the
``prefix_terms`` summed below them (depth times cutoff per try), the
``tail_levels`` summed by the tail engine and the wall ``seconds``; and
their ``total``.

Under ``laplace``, for the same round: per Laplace operation (rays, the
lateral jump, Hankel contours) the ``nodes`` and ``panels`` its results
report, the libmp ``exp``, ``cos_sin`` and ``log`` calls its panel
sampling made (``mpf_exp``, ``mpf_cos_sin`` and ``mpf_log`` as
``_chebyshev``, ``borelfun`` and ``laplace`` call them), the kernel
vectors it ``computed`` and ``reused`` from the caches of the ray kernel
``_chebyshev._exponentials`` (``ray_kernels``) and of the circle kernel
``laplace._circle_kernel`` (``circle_kernels``), the seconds of its
truncation searches (``truncation_s``), the tail bounds they evaluated
(``tail_bounds``, calls of the bound of each shape's ``tail_rule``), and
the incomplete-gamma moments of those bounds, as ``mpmath.gammainc``
calls (``gammainc``, integer orders) and as moments bounded in closed
form (``closed_form``, the other orders, by
``borelfun._moment_integral``); their ``total``, with the seconds of the
``gammainc`` calls (``gammainc_s``); and the wall seconds of the whole
round (``round_s``).  On seed 3 the round computes 36 ray kernels and
reuses 21, computes 3 circle kernels and reuses 9, and bounds 10 moments
in closed form beside 15 ``gammainc`` calls, where every one of the 25
was a ``gammainc`` call before the closed form; its nodes (3381) and
panels (63) are those of the sums without the caches.

It counts through the folded ``_chebyshev._cumulate`` and
``_chebyshev._fold``: an application of all rows costs the symmetric half
of the last row plus the two halves of rows 1 .. n // 2, and the weights
row alone (``_chebyshev._total``, which folds its samples) its symmetric
half.  Only ``_folded`` caches the matrix, so every ``_matrix`` call is a
build; the quarter-wave and arc tables are counted only when their caches
miss, since only then do they evaluate anything.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import inputs, worker  # noqa: E402
from resurgence import _chebyshev as cheb  # noqa: E402
from resurgence import borelfun, laplace, mzv, series  # noqa: E402

LIBMP = {"exp": "mpf_exp", "cos_sin": "mpf_cos_sin", "log": "mpf_log"}
# the certified-sums operations that call ze_eval
ZE_OPERATIONS = ("coloured", "closed", "dual", "deep", "relation")


def instrument():
    full, total_only, madds = Counter(), Counter(), Counter()
    cumulate, fold = cheb._cumulate, cheb._fold

    def counted_cumulate(folded, g):
        n = len(g) - 1
        last, pairs = folded
        full[n] += 1
        # _fold counts this application's weights row; add the rest
        madds[n] += sum(len(e) + len(o) for e, o in pairs)
        total_only[n] -= 1
        return cumulate(folded, g)

    def counted_fold(g):
        n = len(g) - 1
        total_only[n] += 1
        madds[n] += n // 2 + 1
        return fold(g)

    cheb._cumulate, cheb._fold = counted_cumulate, counted_fold
    return full, total_only, madds


def instrument_tables():
    """Count the trigonometry and the matrix entries of the table builds
    (``tables`` in the module docstring); returns a function giving the
    counts and one that undoes the counting."""
    calls, trig, entries = Counter(), Counter(), Counter()
    build = defaultdict(float)
    saved = {name: getattr(cheb, name) for name in
             ("mpf_cos_pi", "mpf_cos_sin", "_quarter", "_matrix",
              "_unit_points")}

    def counted(key, f):
        def call(*args):
            calls[key] += 1
            return f(*args)
        return call

    def quarter(n, bits, parity):
        before = calls["cos_pi"]
        out = saved["_quarter"](n, bits, parity)
        trig[f"{n},{bits}"] += calls["cos_pi"] - before
        return out

    def unit_points(*args):
        before = calls["cos_sin"]
        out = saved["_unit_points"](*args)
        calls["unit_points_cos_sin"] += calls["cos_sin"] - before
        return out

    def matrix(n, prec, rows):
        rows = list(rows)
        start = time.perf_counter()
        out = saved["_matrix"](n, prec, rows)
        build[f"{n},{prec}"] += time.perf_counter() - start
        entries[f"{n},{prec}"] += len(rows) * (n + 1)
        return out

    cheb.mpf_cos_pi = counted("cos_pi", saved["mpf_cos_pi"])
    cheb.mpf_cos_sin = counted("cos_sin", saved["mpf_cos_sin"])
    cheb._quarter, cheb._unit_points, cheb._matrix = (quarter, unit_points,
                                                      matrix)

    def restore():
        for name, value in saved.items():
            setattr(cheb, name, value)

    def tables():
        return {
            "trig": dict(trig),
            "matrix": {key: {"entries": entries[key],
                             "seconds": round(build[key], 5)}
                       for key in entries},
            "unit_points_cos_sin": calls["unit_points_cos_sin"],
            "total": {"trig": sum(trig.values()),
                      "entries": sum(entries.values()),
                      "seconds": round(sum(build.values()), 5)}}

    return tables, restore


def instrument_wa():
    """Record the engine runs (panels, nodes) and the endpoint series
    terms that ``wa_eval`` asks for."""
    runs, terms = [], []
    levels, series = mzv.iterated_levels, mzv.endpoint_series

    def counted_levels(poles, panels, n, start=()):
        runs.append((len(panels), n))
        return levels(poles, panels, n, start)

    def counted_series(poles, h_exp):
        out = series(poles, h_exp)
        terms.append(out[2])
        return out

    mzv.iterated_levels, mzv.endpoint_series = counted_levels, counted_series
    return runs, terms


def count_libmp():
    """Count the libmp transcendental calls of the sampling modules."""
    calls = Counter()
    for module in (cheb, borelfun, laplace):
        for key, name in LIBMP.items():
            if hasattr(module, name):
                def counted(*args, _key=key, _f=getattr(module, name)):
                    calls[_key] += 1
                    return _f(*args)
                setattr(module, name, counted)
    return calls


def certified_work(seed):
    """The ze_eval and Laplace work of one certified-sums round, with the
    caches of ``_chebyshev``, ``borelfun``, ``laplace``, ``mzv`` and
    ``series`` cold: (ze, laplace) as described in the module docstring."""
    for module in (cheb, borelfun, laplace, mzv, series):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    calls = count_libmp()
    sums = Counter()
    cutoffs = []
    kernels = {"ray_kernels": cheb._exponentials,
               "circle_kernels": laplace._circle_kernel}

    def kernel_counts():
        return {key: cache.cache_info() for key, cache in kernels.items()}

    def counted(key, f, record=None):
        def call(*args):
            start = time.perf_counter()
            try:
                return f(*args)
            finally:
                sums[key + "_s"] += time.perf_counter() - start
                sums[key] += 1
                if record:
                    record(*args)
        return call

    saved = (mzv._prefix_sums, mzv._tail_sum, laplace._choose_truncation,
             mpmath.gammainc, borelfun._moment_integral)
    mzv._prefix_sums = counted(
        "prefix", saved[0], lambda idx, N, P: cutoffs.append((N, idx.depth)))
    mzv._tail_sum = counted("levels", saved[1])

    def choose(rule, *args):
        floor, bound, decreasing = rule

        def counted_bound(T):
            sums["tail_bounds"] += 1
            return bound(T)

        return saved[2]((floor, counted_bound, decreasing), *args)

    laplace._choose_truncation = counted("truncation", choose)
    mpmath.gammainc = counted("gammainc", saved[3])

    def moment(order, m, T):
        if not mpmath.isint(order):
            sums["closed_form"] += 1
        return saved[4](order, m, T)

    borelfun._moment_integral = moment
    ze, work = {}, {}
    start = time.perf_counter()
    try:
        for name, call, _serialize in worker.certified_sums(
                inputs.certified_sums(seed), {}):
            before, tried, lapse = Counter(calls), len(cutoffs), Counter(sums)
            cached = kernel_counts()
            began = time.perf_counter()
            result = call()
            seconds = round(time.perf_counter() - began, 5)
            if name.startswith(ZE_OPERATIONS):
                ze[name] = {
                    "cutoffs": [n for n, _depth in cutoffs[tried:]],
                    "prefix_terms": sum(n * depth
                                        for n, depth in cutoffs[tried:]),
                    "tail_levels": sums["levels"] - lapse["levels"],
                    "seconds": seconds}
            if not name.startswith(("ray", "jump", "hankel")):
                continue
            results = [result.plus, result.minus] \
                if hasattr(result, "plus") else [result]
            work[name] = {
                "nodes": sum(r.nodes_used for r in results),
                "panels": sum(r.diagnostics["panels"] for r in results),
                **{key: calls[key] - before[key] for key in LIBMP},
                "truncation_s": round(sums["truncation_s"]
                                      - lapse["truncation_s"], 5),
                "tail_bounds": sums["tail_bounds"] - lapse["tail_bounds"],
                "gammainc": sums["gammainc"] - lapse["gammainc"],
                "closed_form": sums["closed_form"] - lapse["closed_form"],
                **{key: {"computed": info.misses - cached[key].misses,
                         "reused": info.hits - cached[key].hits}
                   for key, info in kernel_counts().items()}}
    finally:
        (mzv._prefix_sums, mzv._tail_sum, laplace._choose_truncation,
         mpmath.gammainc, borelfun._moment_integral) = saved
    elapsed = time.perf_counter() - start
    ze_total = {key: sum(w[key] for w in ze.values())
                for key in ("prefix_terms", "tail_levels")}
    ze_total["seconds"] = round(sum(w["seconds"] for w in ze.values()), 5)
    total = {key: sum(w[key] for w in work.values())
             for key in ("nodes", "panels", *LIBMP, "tail_bounds",
                         "gammainc", "closed_form")}
    for key in kernels:
        total[key] = {part: sum(w[key][part] for w in work.values())
                      for part in ("computed", "reused")}
    total["truncation_s"] = round(sums["truncation_s"], 5)
    total["gammainc_s"] = round(sums["gammainc_s"], 5)
    return ({"operations": ze, "total": ze_total},
            {"operations": work, "total": total, "round_s": round(elapsed, 5)})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    full, total_only, madds = instrument()
    tables, restore = instrument_tables()
    runs, terms = instrument_wa()
    ops = worker.iterated_integrals(inputs.iterated_integrals(args.seed), {})
    wa = {}
    start = time.perf_counter()
    for name, call, _serialize in ops:
        ran, summed = len(runs), len(terms)
        began = time.perf_counter()
        call()
        if name.startswith("wa"):
            wa[name] = {"panels": runs[ran][0],
                        "nodes": [n for _panels, n in runs[ran:]],
                        "series_terms": terms[summed:],
                        "seconds": round(time.perf_counter() - began, 5)}
    elapsed = time.perf_counter() - start
    restore()
    wa_total = {"panels": sum(w["panels"] for w in wa.values()),
                "series_terms": sum(sum(w["series_terms"])
                                    for w in wa.values()),
                "seconds": round(sum(w["seconds"] for w in wa.values()), 5)}
    keys = sorted(set(full) | set(total_only))
    out = {
        "seed": args.seed,
        "applications": {n: {"full": full[n], "total_only": total_only[n]}
                         for n in keys},
        "madds": {n: madds[n] for n in keys},
        "madds_total": sum(madds.values()),
        "tables": tables(),
        "round_s": round(elapsed, 5),
        "wa": {"operations": wa, "total": wa_total},
    }
    out["ze"], out["laplace"] = certified_work(args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
