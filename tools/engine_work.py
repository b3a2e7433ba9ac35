"""Work counts of the iterated-integral engine on one benchmark round.

    PYTHONPATH=src python3 tools/engine_work.py --seed N

Run from the root of a source checkout.  It builds the seeded inputs of the
iterated-integrals workload (``bench/inputs.py``, ``bench/worker.py``), runs
every operation of one round once in this process, with every cache cold,
and prints one JSON object:

* ``applications``: per node count n, how many times the integration
  matrix was applied to one real part of a sample vector (``full``) and
  how many times only its last row, the Clenshaw-Curtis weights, was
  (``total_only``);
* ``madds``: per n, the integer multiply-adds of those applications;
* ``matrix_build_s``: per (n, prec), the seconds spent building the matrix;
* ``round_s``: the wall seconds of the round, counting included.

It counts through the folded ``_chebyshev._cumulate`` and
``_chebyshev._fold``: an application of all rows costs the symmetric half
of the last row plus the two halves of rows 1 .. n // 2, and the weights
row alone (``_chebyshev._total``, which folds its samples) its symmetric
half.  Only ``_folded`` caches the matrix, so every ``_matrix`` call is a
build.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from bench import inputs, worker  # noqa: E402
from resurgence import _chebyshev as cheb  # noqa: E402


def instrument():
    full, total_only, madds = Counter(), Counter(), Counter()
    build = defaultdict(float)

    matrix = cheb._matrix

    def timed_matrix(n, prec):
        start = time.perf_counter()
        rows = matrix(n, prec)
        build[f"{n},{prec}"] += time.perf_counter() - start
        return rows

    cheb._matrix = timed_matrix
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
    return full, total_only, madds, build


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    full, total_only, madds, build = instrument()
    ops = worker.iterated_integrals(inputs.iterated_integrals(args.seed), {})
    start = time.perf_counter()
    for _name, call, _serialize in ops:
        call()
    elapsed = time.perf_counter() - start
    keys = sorted(set(full) | set(total_only))
    print(json.dumps({
        "seed": args.seed,
        "applications": {n: {"full": full[n], "total_only": total_only[n]}
                         for n in keys},
        "madds": {n: madds[n] for n in keys},
        "madds_total": sum(madds.values()),
        "matrix_build_s": {k: round(v, 5) for k, v in build.items()},
        "round_s": round(elapsed, 5),
    }))


if __name__ == "__main__":
    main()
