"""Work counts of the numeric layer on two benchmark rounds, and the
outputs of an exact-algebra round.

    PYTHONPATH=src python3 tools/engine_work.py --seed N

Run from the root of a source checkout.  It builds the seeded inputs of
the iterated-integrals, certified-sums and exact-algebra workloads
(``bench/inputs.py``, ``bench/worker.py``), clears the caches of
``_chebyshev``, ``_borelnum``, ``laplace``, ``mzv`` and ``series`` before
each round, runs every operation of the round once in this process, each
in its own ``resurgence._work.counting()`` scope, and prints one JSON
object.  The package counts the work where it is done; the docstring of
``resurgence._work`` lists every count and where it is taken.

For the iterated-integrals round:

* ``applications``: per node count n, how many times the integration
  matrix was applied to one real part of a sample vector (``full``) and
  how many times only its last row, the Clenshaw-Curtis weights, was
  (``total_only``);
* ``madds``: per n, the integer multiply-adds of those applications;
* ``tables``: the first-use tables the round built: per (n, bits) under
  ``trig``, the libmp calls of the quarter-wave tables (one rotation
  seed per half built, and one ``mpf_cos_pi`` per entry the rotation's
  check sent back to libmp); per (n, prec) under ``matrix``, the
  integration matrix ``entries`` built and the build ``seconds``,
  counting its cosine and sine tables; ``unit_points_cos_sin``, the
  ``mpf_cos_sin`` calls of the arc tables ``_unit_points`` (one for the
  mid angle, one per end and one per mirrored pair of nodes between
  them, and one per node the check sends back to libmp); per (d, P)
  under ``colour_roots``, the libmp calls of the root-of-unity tables
  ``mzv._roots`` (one rotation seed and one call per root sent back);
  and their ``total``;
* ``round_s``: the wall seconds of the round, counting included;
* ``iterated``: per ``wa_eval`` and ``L_numeric`` operation that
  integrates, the ``degree`` its panel bound picked, its ``panels``, the
  four ``terms`` of its reported error (``panel``, ``series``,
  ``rounding`` and ``unit``, as doubles; ``series`` is 0 for
  ``L_numeric``) and that ``error``, the ``series_terms`` of the endpoint
  Taylor series of a ``wa_eval`` at 0 and at 1, the panel ``kernels``
  and ``first_levels`` it ``computed`` and ``reused`` from the caches
  ``_chebyshev._kernel`` and ``_chebyshev._first_level``, shared by
  every word on a panel (a letter repeated within a word counts as
  reused), read from their ``cache_info()``, the evaluations of its
  panel bound by the degree search under ``bound_passes`` (``screen``,
  every row sum at 2, and ``check``, the exact row sums), the seconds of
  ``panel_bound`` (``panel_bound_s``) and the wall ``seconds``; and their
  ``total``.

Under ``ze``, for the certified-sums round: per operation that calls
``ze_eval`` (the nested sums and the relation checks) its ``calls``, one
per sum, in order, each with the one ``cutoff`` it summed below and the
tails' remainder there as ``predicted`` before the prefix sums and as
``reported`` after them, in units 2^-53; the ``prefix_terms`` summed
(depth times cutoff per call), the ``tail_levels`` whose coefficients
the tail engine built (once per number of tail terms a call tried), and
the wall ``seconds``; the round's ``colour_roots``, as under ``tables``;
and their ``total``, with ``loose``, the calls whose predicted remainder
is more than twice the reported one, and the ``colour_roots`` calls.

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
``_borelnum._log_nodes`` (``log_lanes``) and ``_borelnum._power_nodes``
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

Under ``exact``, for the exact-algebra round: per operation its wall
``seconds``, the ``entries`` it stores when its result is a mould (null
otherwise), the conditions its mould law checks tested
(``law_conditions``: one per non-Lyndon word for a shuffle law) and the
words their sums added up (``law_leaves``), ``scalar_products``, the
calls of ``ExactScalar.__mul__`` and ``__rmul__`` it made (this tool
wraps the two methods for the round, in its own process, so the package
counts nothing itself), and ``sha256``, the SHA-256 of its output as JSON
text in the form the worker writes it (``json.dumps`` of the worker's
serializer; an operation that the worker does not serialize is digested
through the worker's ``table`` when its result is a mould, and is null
otherwise); and their ``total``: the ``seconds``, the ``entries``, the
``law_conditions``, ``law_leaves`` and ``scalar_products``, and the
``sha256`` of the operations' digests joined in order.  Equal digests on
two checkouts mean byte-identical exact outputs, mould entry order
included.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import inputs, worker  # noqa: E402
from resurgence import _chebyshev as cheb  # noqa: E402
from resurgence import _borelnum, _work, laplace, mzv, series  # noqa: E402
from resurgence.moulds import Mould  # noqa: E402
from resurgence.scalars import ExactScalar  # noqa: E402

LIBMP = ("exp", "cos_sin", "log")
# the terms of a wa_eval or L_numeric error, as resurgence._work counts them
TERMS = ("panel", "series", "rounding", "unit")
# the certified-sums operations that call ze_eval
ZE_OPERATIONS = ("coloured", "closed", "dual", "deep", "relation")
KERNELS = {"ray_kernels": cheb._exponentials,
           "circle_kernels": laplace._circle_kernel,
           "log_lanes": _borelnum._log_nodes,
           "power_lanes": _borelnum._power_nodes}
# the per-panel caches of the iterated integrals
PANEL_CACHES = {"kernels": cheb._kernel, "first_levels": cheb._first_level}
REUSE = ("computed", "reused")
# the two evaluations of the panel bound by its degree search
PASSES = ("screen", "check")
# the work of an exact-algebra operation: its mould law checks, and its
# exact scalar products, which counting_products adds
EXACT = ("law_conditions", "law_leaves", "scalar_products")


def clear_caches():
    for module in (cheb, _borelnum, laplace, mzv, series):
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


def colour_roots(counts):
    """The libmp calls of the root-of-unity tables ``mzv._roots`` per
    (d, P), as {"d,P": calls}."""
    return {f"{d},{P}": c for (d, P), c in keyed(counts, "roots").items()}


@contextlib.contextmanager
def counting_products():
    """Within the scope, each call of ``ExactScalar.__mul__`` or
    ``__rmul__`` adds one ``scalar_products`` to the open work count."""
    methods = {name: getattr(ExactScalar, name)
               for name in ("__mul__", "__rmul__")}

    def counted(method):
        def wrapper(self, other):
            _work.add("scalar_products")
            return method(self, other)
        return wrapper

    for name, method in methods.items():
        setattr(ExactScalar, name, counted(method))
    try:
        yield
    finally:
        for name, method in methods.items():
            setattr(ExactScalar, name, method)


def run_round(ops, R, caches):
    """Each operation once, in its own scope, its result stored in R under
    its name for the later operations that read it: {name: (result,
    counts, seconds, deltas of the given caches)}, the round's summed
    counts and its wall seconds."""
    runs, summed = {}, Counter()
    start = time.perf_counter()
    for name, call, _serialize in ops:
        cached = {key: cache.cache_info() for key, cache in caches.items()}
        began = time.perf_counter()
        with _work.counting() as counts:
            result = R[name] = call()
        seconds = round(time.perf_counter() - began, 5)
        deltas = {}
        for key, cache in caches.items():
            info = cache.cache_info()
            deltas[key] = {"computed": info.misses - cached[key].misses,
                           "reused": info.hits - cached[key].hits}
        runs[name] = (result, counts, seconds, deltas)
        summed.update(counts)
    return runs, summed, time.perf_counter() - start


def iterated_work(seed):
    """The spectral-engine, ``wa_eval`` and ``L_numeric`` work of one
    iterated-integrals round, as described in the module docstring."""
    clear_caches()
    R = {}
    runs, counts, elapsed = run_round(
        worker.iterated_integrals(inputs.iterated_integrals(seed), R), R,
        PANEL_CACHES)
    iterated = {}
    for name, (result, op, seconds, caches) in runs.items():
        for n, panels, *terms in listed(op, "terms"):
            error = getattr(result, "error", None)
            iterated[name] = {
                "degree": n, "panels": panels,
                "terms": dict(zip(TERMS, terms)),
                "error": float(result.error_estimate if error is None
                               else error),
                "series_terms": listed(op, "series_terms"),
                **caches,
                "bound_passes": {kind: op["bound_passes", kind]
                                 for kind in PASSES},
                "panel_bound_s": round(op["panel_bound_s"], 5),
                "seconds": seconds}
    full, total_only = keyed(counts, "cumulate"), keyed(counts, "total")
    madds = keyed(counts, "madds")
    keys = sorted(set(full) | set(total_only))
    trig = {f"{n},{bits}": c
            for (n, bits), c in keyed(counts, "cos_pi").items()}
    roots = colour_roots(counts)
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
            "colour_roots": roots,
            "total": {"trig": sum(trig.values()),
                      "colour_roots": sum(roots.values()),
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
                **{key: {part: sum(w[key][part] for w in iterated.values())
                         for part in REUSE}
                   for key in PANEL_CACHES},
                "bound_passes": {kind: sum(w["bound_passes"][kind]
                                           for w in iterated.values())
                                 for kind in PASSES},
                **{key: round(sum(w[key] for w in iterated.values()), 5)
                   for key in ("panel_bound_s", "seconds")}}},
    }


def certified_work(seed):
    """The ``ze_eval`` and Laplace work of one certified-sums round:
    (ze, laplace) as described in the module docstring."""
    clear_caches()
    R = {}
    runs, counts, elapsed = run_round(
        worker.certified_sums(inputs.certified_sums(seed), R), R, KERNELS)
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
    roots = colour_roots(counts)
    ze_total["colour_roots"] = sum(roots.values())
    total = {key: sum(w[key] for w in work.values())
             for key in ("nodes", "panels", *LIBMP, "squared",
                         "tail_bounds", "gammainc", "closed_form")}
    for key in KERNELS:
        total[key] = {part: sum(w[key][part] for w in work.values())
                      for part in REUSE}
    total["truncation_s"] = round(counts["truncation_s"], 5)
    total["gammainc_s"] = round(counts["gammainc_s"], 5)
    total["certified"] = sum(w["certified"] for w in work.values())
    return ({"operations": ze, "colour_roots": roots, "total": ze_total},
            {"operations": work, "total": total, "round_s": round(elapsed, 5)})


def exact_work(seed):
    """The seconds, stored entries and output digests of one exact-algebra
    round, as described in the module docstring."""
    R = {}
    ops = worker.exact_algebra(inputs.exact_algebra(seed), R)
    with counting_products():
        runs, _counts, _elapsed = run_round(ops, R, {})
    exact = {}
    for name, _call, serialize in ops:
        result, op, seconds, _caches = runs[name]
        is_mould = isinstance(result, Mould)
        if serialize is None and is_mould:
            serialize = worker.table
        digest = None if serialize is None else hashlib.sha256(
            json.dumps(serialize(result)).encode()).hexdigest()
        exact[name] = {"seconds": seconds,
                       "entries": len(result.entries) if is_mould else None,
                       **{key: op[key] for key in EXACT},
                       "sha256": digest}
    joined = "".join(op["sha256"] or "-" for op in exact.values())
    total = {"seconds": round(sum(op["seconds"] for op in exact.values()), 5),
             "entries": sum(op["entries"] or 0 for op in exact.values()),
             **{key: sum(op[key] for op in exact.values()) for key in EXACT},
             "sha256": hashlib.sha256(joined.encode()).hexdigest()}
    return {"operations": exact, "total": total}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    out = {"seed": args.seed, **iterated_work(args.seed)}
    out["ze"], out["laplace"] = certified_work(args.seed)
    out["exact"] = exact_work(args.seed)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
