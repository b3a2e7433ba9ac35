"""Work counts of the numeric layer on two benchmark rounds.

    PYTHONPATH=src python3 tools/engine_work.py --seed N

Run from the root of a source checkout.  It builds the seeded inputs of
the iterated-integrals and certified-sums workloads (``bench/inputs.py``,
``bench/worker.py``), clears the caches of ``_chebyshev``, ``borelfun``,
``laplace``, ``mzv`` and ``series`` before each round, runs every
operation of the round once in this process, each in its own
``resurgence._work.counting()`` scope, and prints one JSON object.  The
package counts the work where it is done; the docstring of
``resurgence._work`` lists every count and where it is taken.

For the iterated-integrals round:

* ``applications``: per node count n, how many times the integration
  matrix was applied to one real part of a sample vector (``full``) and
  how many times only its last row, the Clenshaw-Curtis weights, was
  (``total_only``);
* ``madds``: per n, the integer multiply-adds of those applications;
* ``tables``: the first-use tables the round built: per (n, bits) under
  ``trig``, the libmp ``mpf_cos_pi`` evaluations of the quarter-wave
  tables; per (n, prec) under ``matrix``, the integration matrix
  ``entries`` built and the build ``seconds``, counting its cosine and
  sine tables; ``unit_points_cos_sin``, the ``mpf_cos_sin`` calls of the
  arc tables ``_unit_points`` (one per node of each arc); and their
  ``total``;
* ``round_s``: the wall seconds of the round, counting included;
* ``iterated``: per ``wa_eval`` and ``L_numeric`` operation that
  integrates, the ``degree`` its panel bound picked, its ``panels``, the
  four ``terms`` of its reported error (``panel``, ``series``,
  ``rounding`` and ``unit``, as doubles; ``series`` is 0 for
  ``L_numeric``) and that ``error``, the ``series_terms`` of the endpoint
  Taylor series of a ``wa_eval`` at 0 and at 1, and the wall
  ``seconds``; and their ``total``.

Under ``ze``, for the certified-sums round: per operation that calls
``ze_eval`` (the nested sums and the relation checks) its ``calls``, one
per sum, in order, each with the one ``cutoff`` it summed below and the
tails' remainder there as ``predicted`` before the prefix sums and as
``reported`` after them, in units 2^-53; the ``prefix_terms`` summed
(depth times cutoff per call), the ``tail_levels`` whose coefficients
the tail engine built (once per number of tail terms a call tried), and
the wall ``seconds``; and their ``total``, with ``loose``, the calls
whose predicted remainder is more than twice the reported one.

Under ``laplace``, for the same round: per Laplace operation (rays, the
lateral jump, Hankel contours) the ``nodes`` and ``panels`` its results
report, the panels per ``degree`` their bounds picked, the proved
``quadrature`` term of their errors, whether every result is
``certified``, the libmp ``exp``, ``cos_sin`` and ``log`` calls of its panel
sampling, the ray kernels built by squaring the kernel of half the width
(``squared``), the vectors it ``computed`` and ``reused`` from the
caches of the ray kernel ``_chebyshev._exponentials`` (``ray_kernels``,
the squared kernels and their bases included), of the circle kernel
``laplace._circle_kernel`` (``circle_kernels``) and of the power
kernel's ray lanes log(1 + r x) and (1 + r x)^(sigma - 1),
``borelfun._log_nodes`` (``log_lanes``) and ``borelfun._power_nodes``
(``power_lanes``), read from their ``cache_info()``, the seconds of its
truncation walks (``truncation_s``), the tail bounds they evaluated
(``tail_bounds``), per result (one, or the two of the jump) its
``truncation`` point, the end of its last segment, and the
``tail_bound`` there, and the incomplete-gamma moments of those bounds, as
``mpmath.gammainc`` calls (``gammainc``, integer orders) and as moments
bounded in closed form (``closed_form``, the other orders); their
``total``, with the seconds of the ``gammainc`` calls (``gammainc_s``)
and the number of operations ``certified``; and the wall seconds of the
whole round (``round_s``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import inputs, worker  # noqa: E402
from resurgence import _chebyshev as cheb  # noqa: E402
from resurgence import _work, borelfun, laplace, mzv, series  # noqa: E402

LIBMP = ("exp", "cos_sin", "log")
# the terms of a wa_eval or L_numeric error, as resurgence._work counts them
TERMS = ("panel", "series", "rounding", "unit")
# the certified-sums operations that call ze_eval
ZE_OPERATIONS = ("coloured", "closed", "dual", "deep", "relation")
KERNELS = {"ray_kernels": cheb._exponentials,
           "circle_kernels": laplace._circle_kernel,
           "log_lanes": borelfun._log_nodes,
           "power_lanes": borelfun._power_nodes}


def clear_caches():
    for module in (cheb, borelfun, laplace, mzv, series):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def keyed(counts, name):
    """The counts of the tuple keys (name, *rest), as {rest: count}, in
    the order they were first counted; rest is one value when the key
    holds one."""
    return {key[1] if len(key) == 2 else key[1:]: value
            for key, value in counts.items()
            if isinstance(key, tuple) and key[0] == name}


def listed(counts, name):
    """The keys of :func:`keyed`, each as often as it was counted."""
    return [key for key, times in keyed(counts, name).items()
            for _ in range(times)]


def run_round(ops):
    """Each operation once, in its own scope: {name: (result, counts,
    seconds, kernel cache deltas)}, the round's summed counts and its wall
    seconds."""
    runs, summed = {}, Counter()
    start = time.perf_counter()
    for name, call, _serialize in ops:
        cached = {key: cache.cache_info() for key, cache in KERNELS.items()}
        began = time.perf_counter()
        with _work.counting() as counts:
            result = call()
        seconds = round(time.perf_counter() - began, 5)
        kernels = {}
        for key, cache in KERNELS.items():
            info = cache.cache_info()
            kernels[key] = {"computed": info.misses - cached[key].misses,
                            "reused": info.hits - cached[key].hits}
        runs[name] = (result, counts, seconds, kernels)
        summed.update(counts)
    return runs, summed, time.perf_counter() - start


def iterated_work(seed):
    """The spectral-engine, ``wa_eval`` and ``L_numeric`` work of one
    iterated-integrals round, as described in the module docstring."""
    clear_caches()
    runs, counts, elapsed = run_round(
        worker.iterated_integrals(inputs.iterated_integrals(seed), {}))
    iterated = {}
    for name, (result, op, seconds, _kernels) in runs.items():
        for n, panels, *terms in listed(op, "terms"):
            error = getattr(result, "error", None)
            iterated[name] = {
                "degree": n, "panels": panels,
                "terms": dict(zip(TERMS, terms)),
                "error": float(result.error_estimate if error is None
                               else error),
                "series_terms": listed(op, "series_terms"),
                "seconds": seconds}
    full, total_only = keyed(counts, "cumulate"), keyed(counts, "total")
    madds = keyed(counts, "madds")
    keys = sorted(set(full) | set(total_only))
    trig = {f"{n},{bits}": c
            for (n, bits), c in keyed(counts, "cos_pi").items()}
    built = keyed(counts, "matrix_s")
    matrix = {f"{n},{prec}": {"entries": c,
                              "seconds": round(built[n, prec], 5)}
              for (n, prec), c in keyed(counts, "entries").items()}
    return {
        "applications": {n: {"full": full.get(n, 0),
                             "total_only": total_only.get(n, 0)}
                         for n in keys},
        "madds": {n: madds[n] for n in keys},
        "madds_total": sum(madds.values()),
        "tables": {
            "trig": trig,
            "matrix": matrix,
            "unit_points_cos_sin": counts["cos_sin"],
            "total": {"trig": sum(trig.values()),
                      "entries": sum(m["entries"] for m in matrix.values()),
                      "seconds": round(sum(built.values()), 5)}},
        "round_s": round(elapsed, 5),
        "iterated": {
            "operations": iterated,
            "total": {
                "panels": sum(w["panels"] for w in iterated.values()),
                **{term: sum(w["terms"][term] for w in iterated.values())
                   for term in TERMS},
                "series_terms": sum(sum(w["series_terms"])
                                    for w in iterated.values()),
                "seconds": round(sum(w["seconds"]
                                     for w in iterated.values()), 5)}},
    }


def certified_work(seed):
    """The ``ze_eval`` and Laplace work of one certified-sums round:
    (ze, laplace) as described in the module docstring."""
    clear_caches()
    runs, counts, elapsed = run_round(
        worker.certified_sums(inputs.certified_sums(seed), {}))
    ze, work = {}, {}
    for name, (result, op, seconds, kernels) in runs.items():
        if name.startswith(ZE_OPERATIONS):
            calls = [{"cutoff": n, "predicted": predicted / 2 ** (P - 53),
                      "reported": reported / 2 ** (P - 53)}
                     for n, P, predicted, reported in listed(op, "remainder")]
            ze[name] = {"calls": calls,
                        "prefix_terms": op["prefix_terms"],
                        "tail_levels": op["tail_levels"],
                        "seconds": seconds}
        if not name.startswith(("ray", "jump", "hankel")):
            continue
        results = [result.plus, result.minus] \
            if hasattr(result, "plus") else [result]
        degrees = Counter()
        for r in results:
            degrees.update(r.diagnostics["degrees"])
        work[name] = {
            "nodes": sum(r.nodes_used for r in results),
            "panels": sum(r.diagnostics["panels"] for r in results),
            "degrees": dict(sorted(degrees.items())),
            "quadrature": sum(float(r.diagnostics["quadrature_error"])
                              for r in results),
            "certified": all(r.certified for r in results),
            **{key: op[key] for key in (*LIBMP, "squared")},
            "truncation_s": round(op["truncation_s"], 5),
            "tail_bounds": op["tail_bounds"],
            "truncation": [r.diagnostics["truncation"] for r in results],
            "tail_bound": [r.diagnostics["tail_bound"] for r in results],
            **{key: op[key] for key in ("gammainc", "closed_form")},
            **kernels}
    ze_total = {key: sum(w[key] for w in ze.values())
                for key in ("prefix_terms", "tail_levels")}
    ze_total["loose"] = sum(c["predicted"] > 2 * c["reported"]
                            for w in ze.values() for c in w["calls"])
    ze_total["seconds"] = round(sum(w["seconds"] for w in ze.values()), 5)
    total = {key: sum(w[key] for w in work.values())
             for key in ("nodes", "panels", *LIBMP, "squared",
                         "tail_bounds", "gammainc", "closed_form")}
    for key in KERNELS:
        total[key] = {part: sum(w[key][part] for w in work.values())
                      for part in ("computed", "reused")}
    total["truncation_s"] = round(counts["truncation_s"], 5)
    total["gammainc_s"] = round(counts["gammainc_s"], 5)
    total["certified"] = sum(w["certified"] for w in work.values())
    return ({"operations": ze, "total": ze_total},
            {"operations": work, "total": total, "round_s": round(elapsed, 5)})


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = {"seed": args.seed, **iterated_work(args.seed)}
    out["ze"], out["laplace"] = certified_work(args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
