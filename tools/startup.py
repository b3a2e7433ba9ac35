"""Fresh-process cost of each README ``resurgence`` command.

    python3 tools/startup.py --repeat 5

Run from anywhere in a source checkout; the package is imported from
``src/``.  The commands are the lines of README.md's ```sh block of
``resurgence`` commands, run in order in one scratch directory, as a
shell runs them (``> file`` writes the file that later lines read).
Each is started ``--repeat`` times as ``python -c`` of the console
script's entry point.  Before them the tool runs ``python -c pass`` the
same number of times.

It prints one JSON object per line: first ``python -c pass``, then one
per command, in README order.  Each object holds:

* ``command``: the README line;
* ``wall_s``: the median wall time of the runs, from starting the child
  to its exit;
* ``runs_s``: every run's wall time;
* ``modules``: the modules an extra run of the command had loaded when
  it exited, beyond those of ``python -c pass``, sorted and grouped as
  ``resurgence``, ``mpmath`` and ``other`` (the standard library).

It exits 1 if any run exits nonzero or writes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the console script's entry point, as bench/worker.py starts it
ENTRY = "import sys; from resurgence.cli import main; sys.exit(main())"
# the same, writing the names in sys.modules to the file named first
LISTING = ("import sys; from resurgence.cli import main; "
           "code = main(sys.argv[2:]); "
           "open(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules))); "
           "sys.exit(code)")
BARE = ("import sys; "
        "open(sys.argv[1], 'w').write('\\n'.join(sorted(sys.modules)))")


def readme_commands():
    """The README's ``resurgence`` lines as (line, argv, target file)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = block.splitlines()
        if all(line.startswith("resurgence ") for line in lines):
            for line in lines:
                command, _, target = line[len("resurgence "):].partition(" > ")
                out.append((line, command.split(), target))
    if not out:
        raise SystemExit("README.md has no block of resurgence commands")
    return out


def run(code, args, cwd, target=""):
    """Wall seconds of one child, and whether it exited 0 with no stderr."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(cwd / target if target else os.devnull, "w") as stdout:
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code, *args], cwd=cwd,
                              env=env, stdout=stdout, stderr=subprocess.PIPE,
                              stdin=subprocess.DEVNULL, timeout=120)
        wall = time.perf_counter() - start
    if done.returncode or done.stderr:
        sys.stderr.write(f"exit {done.returncode}: {args}\n"
                         f"{done.stderr.decode(errors='replace')}")
    return wall, not (done.returncode or done.stderr)


def grouped(names):
    groups = {"resurgence": [], "mpmath": [], "other": []}
    for name in sorted(names):
        head = name.partition(".")[0]
        groups[head if head in groups else "other"].append(name)
    return groups


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Fresh-process wall time and loaded modules of each "
                    "README resurgence command.")
    parser.add_argument("--repeat", type=int, default=5,
                        help="runs per command; the median is reported")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    commands = readme_commands()
    ok = True
    with tempfile.TemporaryDirectory(prefix="startup-") as scratch:
        cwd = Path(scratch)
        listing = cwd / "modules.txt"

        def loaded(code, argv, target):
            nonlocal ok
            ok &= run(code, [str(listing), *argv], cwd, target)[1]
            return set(listing.read_text().split())

        bare = loaded(BARE, [], "")
        runs = {line: [] for line in ["python -c pass"] + [c[0] for c in commands]}
        for _ in range(args.repeat):
            wall, fine = run("pass", [], cwd)
            runs["python -c pass"].append(wall)
            ok &= fine
            for line, argv, target in commands:
                wall, fine = run(ENTRY, argv, cwd, target)
                runs[line].append(wall)
                ok &= fine
        modules = {"python -c pass": set()}
        for line, argv, target in commands:
            modules[line] = loaded(LISTING, argv, target) - bare
    for line, walls in runs.items():
        print(json.dumps({"command": line,
                          "wall_s": round(statistics.median(walls), 5),
                          "runs_s": [round(w, 5) for w in walls],
                          "modules": grouped(modules[line])}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
