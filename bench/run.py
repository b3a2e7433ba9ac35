"""The benchmark of the ``resurgence`` package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Workloads: iterated-integrals, certified-sums, exact-algebra,
cli-readme (see bench/README.md).

With ``--trace 0`` the run starts a few set-up-only workers, then runs
whole rounds of the workload back to back, each in a fresh interpreter:
at least one, and another only while it is expected to end within
``--seconds`` of the first round's start.  It reports the end-to-end metrics: medians over the
rounds, and over all set-ups for ``setup_s``.

With ``--trace 1`` it runs one untraced round and one traced round, times
a bare interpreter and a bare import of ``resurgence.cli``, and reports
the per-layer metrics of the traced round and the tracing overhead.

Every output of every round is checked against references computed apart
from the package (bench/reference.py) or against laws the method must
satisfy (bench/checks.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
sys.path.insert(0, str(ROOT))

from bench import checks, inputs, speed  # noqa: E402

SETUP_PROBES = 5
PROBES = 5
TIMEOUT = 170


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def spawn(args):
    """Start one worker; return its set-up time at the reference speed
    and its JSON result."""
    before = speed.steady_sample()
    start = now()
    done = subprocess.run(
        [sys.executable, "-m", "bench.worker", *args], cwd=ROOT,
        env=worker_env(), capture_output=True, text=True, timeout=TIMEOUT)
    if done.returncode != 0:
        raise RuntimeError(f"worker {args} exited {done.returncode}:\n"
                           f"{done.stderr[-4000:]}")
    res = json.loads(done.stdout.strip().splitlines()[-1])
    setup = speed.scale(res["ready"] - start, [before, res["speed_at_ready"]])
    return setup, res


def wall(code):
    """Wall time of one fresh interpreter running ``code``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=worker_env(),
                   check=True, timeout=TIMEOUT, capture_output=True)
    return time.perf_counter() - start


def round_args(workload, seed, extra=()):
    return ["--workload", workload, "--seed", str(seed), *extra]


def median_estimate(values):
    """Harrell-Davis estimate of the median: every order statistic weighted
    by a Beta((n+1)/2, (n+1)/2) distribution.  With one operation's times
    on either side of a gap, the sample median jumps across the gap from
    run to run; this estimate moves by a fraction of it."""
    values = sorted(values)
    n = len(values)
    a = (n + 1) / 2
    weights = [float(mpmath.betainc(a, a, i / n, (i + 1) / n,
                                    regularized=True)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, values))


def run_time(r):
    return sum(t for _, _wall, t in r["timings"])


def summarize(rounds, setups, workload):
    run_s = [run_time(r) for r in rounds]
    # each operation's median over rounds, then the median estimate over
    # the operations
    per_op = {}
    for r in rounds:
        for name, _wall, t in r["timings"]:
            per_op.setdefault(name, []).append(t)
    ops = [statistics.median(times) for times in per_op.values()]
    key = "child_rss_kb" if workload == "cli-readme" else "rss_kb"
    rss = [r[key] / 1024 for r in rounds]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": statistics.median(run_s), "unit": "s"},
        "op_p50_s": {"value": median_estimate(ops), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
    }


def check(workload, spec, rounds):
    fails = []
    for r in rounds:
        ok_out = {k: v for k, v in r["out"].items() if k not in r["failed"]}
        try:
            fails += checks.WORKLOADS[workload](spec, ok_out)
        except KeyError as exc:
            # a failed operation leaves no output for checks that read it
            if not r["failed"]:
                fails.append(f"missing output {exc}")
    return fails


def measure(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _res = spawn(round_args(workload, seed, ["--setup-only"]))
        setups.append(setup)
    rounds = []
    first = now()
    # another round starts only if a round of the mean length so far still
    # ends within --seconds, so a run lasts about --seconds or one round
    while not rounds or (now() - first) * (len(rounds) + 1) / len(rounds) \
            <= seconds:
        setup, res = spawn(round_args(workload, seed))
        setups.append(setup)
        rounds.append(res)
    return rounds, setups, summarize(rounds, setups, workload)


def traced(workload, seed):
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"spans-{workload}-{seed}.json"
    extra = ["--in-process"] if workload == "cli-readme" else []
    _, plain = spawn(round_args(workload, seed, extra))
    _, traced_round = spawn(round_args(
        workload, seed, [*extra, "--trace", "--spans", str(spans)]))
    metrics = dict(traced_round["layers"])
    metrics["trace.overhead_share"] = \
        run_time(traced_round) / run_time(plain) - 1
    metrics["cli.interpreter_s"] = statistics.median(
        wall("pass") for _ in range(PROBES))
    metrics["cli.import_s"] = statistics.median(
        import_time() for _ in range(PROBES))
    units = {}
    for name, value in metrics.items():
        units[name] = {"value": value,
                       "unit": "s" if name.endswith("_s") else
                       ("share" if name.endswith("_share") else "count")}
    return [plain, traced_round], [], units


def import_time():
    code = ("import time; t = time.perf_counter(); import resurgence.cli; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=worker_env(), check=True, timeout=TIMEOUT,
                          capture_output=True, text=True)
    return float(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    package = ROOT / "src" / "resurgence"
    if not (package / "__init__.py").is_file():
        print(f"no package source at {package}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    # compile once, unmeasured, so that every timed import reads bytecode
    compileall.compile_dir(str(package), quiet=1)
    speed.pin()

    spec = inputs.make(args.workload, args.seed)
    if args.trace:
        rounds, setups, metrics = traced(args.workload, args.seed)
    else:
        rounds, setups, metrics = measure(args.workload, args.seed,
                                          args.seconds)
    fails = check(args.workload, spec, rounds)
    for line in fails:
        print("check failed:", line, file=sys.stderr)
    attempted = sum(len(r["timings"]) for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    for r in rounds:
        for name, message in r["failed"].items():
            print(f"operation failed: {name}: {message}", file=sys.stderr)
    result = {"correct": not fails, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "run"
    with open(OUT / f"{mode}-{args.workload}-{args.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"result": result, "setups": setups, "checks": fails,
                   "rounds": [{"timings": r["timings"],
                               "failed": r["failed"],
                               "rss_kb": r["rss_kb"],
                               "child_rss_kb": r["child_rss_kb"]}
                              for r in rounds]}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
