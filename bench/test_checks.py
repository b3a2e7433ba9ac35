"""Tests of the benchmark's own checks: each must reject a wrong answer.

Run from the root of the checkout:  python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath

from bench import checks, inputs, reference as ref

ROOT = Path(__file__).resolve().parent.parent


def serial(x, err, prec=53):
    x = mpmath.mpc(x)
    return {"v": [mpmath.nstr(x.real, 40), mpmath.nstr(x.imag, 40)],
            "err": err, "prec": prec}


def test_references_do_not_import_the_package():
    code = ("import sys; import bench.reference, bench.checks, bench.inputs; "
            "print([m for m in sys.modules if m.split('.')[0] == 'resurgence'])")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT)}, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_conjugate_of_a_coloured_value_is_rejected():
    want = ref.polylog_root(1, Fraction(1, 3))
    assert checks.numeric("Ze(1; 1/3)", serial(want, "1e-15"), want,
                          checks.TOL["ze"]) == []
    fails = checks.numeric("Ze(1; 1/3)", serial(mpmath.conj(want), "1e-15"),
                           want, checks.TOL["ze"])
    assert len(fails) == 2  # off the tolerance and off its own error


def test_value_moved_by_ten_tolerances_is_rejected():
    for kind, want in [("ze", ref.zeta_closed((4, 4, 4))),
                       ("ray", ref.stirling_sum(10)),
                       ("jump", ref.euler_jump(-3)),
                       ("hankel", ref.hankel_power(Fraction(1, 3), 2)),
                       ("L", ref.L_closed((1, 2)))]:
        tol = checks.TOL[kind]
        assert checks.numeric(kind, serial(want, "1e-14"), want, tol) == []
        moved = serial(want + 10 * tol, str(20 * tol))
        fails = checks.numeric(kind, moved, want, tol)
        assert fails and "tolerance" in fails[0], kind


def test_value_outside_its_own_error_is_rejected():
    want = ref.zeta_closed((3,))
    shifted = serial(want + 1e-12, "1e-15")
    fails = checks.numeric("Ze(3)", shifted, want, checks.TOL["ze"])
    assert fails and "reported error" in fails[0]


def test_integral_and_sum_must_agree():
    a = serial(ref.zeta_closed((3,)), "1e-12")
    b = serial(ref.zeta_closed((3,)) + 1e-9, "1e-12")
    assert checks.agree("wa vs ze", a, a, checks.TOL["wa"]) == []
    assert checks.agree("wa vs ze", a, b, checks.TOL["wa"])


def scalar_json(q):
    q = Fraction(q)
    return {"terms": [{"tau": 0, "logs": [], "re": str(q), "im": "0"}]}


def test_mould_with_one_entry_changed_is_rejected():
    spec = inputs.make("exact-algebra", 3)["moulds"][0]["nilpotent"]
    want = checks.mould_of(spec)
    served = [[list(w), scalar_json(v)] for w, v in spec.items()]
    assert checks.same_mould("log(exp(m))", checks.mould(served), want) == []
    word = next(w for w, v in spec.items() if len(w) == 4)
    changed = [[list(w), scalar_json(v + (1 if w == word else 0))]
               for w, v in spec.items()]
    fails = checks.same_mould("log(exp(m))", checks.mould(changed), want)
    assert fails and str(word) in fails[0]


def report_for(a, b, product):
    """A consistent report in the worker's format, built from the
    reference expansions."""
    rows = []
    for mode, terms in [("stuffle", ref.stuffle_terms(a, b)),
                        ("shuffle", ref.shuffle_terms(a, b))]:
        rows.append({
            "mode": mode,
            "terms": [[list(s), [str(e) for e in eps], m]
                      for (s, eps), m in sorted(terms.items())],
            "value": [mpmath.nstr(product, 40), "0"],
            "error": "1e-15", "residual": "1e-16", "budget": "1e-15",
            "ok": True,
        })
    return {"ok": True, "product": [mpmath.nstr(product, 40), "0"],
            "product_error": "1e-15", "checks": rows}


def test_relation_report_with_a_term_dropped_is_rejected():
    a, b = ((2,), None), ((3,), None)
    product = ref.zeta_closed((2,)) * ref.zeta_closed((3,))
    report = report_for(a, b, product)
    assert checks.relation("Ze(2) Ze(3)", report, a, b, product) == []
    for k in range(2):
        broken = json.loads(json.dumps(report))
        broken["checks"][k]["terms"].pop()
        fails = checks.relation("Ze(2) Ze(3)", broken, a, b, product)
        assert fails and "decomposition" in fails[0]


def test_relation_residual_above_budget_is_rejected():
    a, b = ((2,), None), ((2,), None)
    product = ref.zeta_closed((2,)) ** 2
    report = report_for(a, b, product)
    report["checks"][0]["residual"] = "1e-14"
    assert checks.relation("Ze(2)^2", report, a, b, product)


def test_reference_expansions():
    assert ref.stuffle_terms(((2,), None), ((3,), None)) == Counter({
        ((2, 3), (0, 0)): 1, ((3, 2), (0, 0)): 1, ((5,), (0,)): 1})
    # the README's `mzv relation --a 2 --b 3` shuffle line
    assert ref.shuffle_terms(((2,), None), ((3,), None)) == Counter({
        ((2, 3), (0, 0)): 1, ((3, 2), (0, 0)): 3, ((4, 1), (0, 0)): 6})
    assert inputs.dual((2, 1)) == (3,)
    assert inputs.dual((2, 3)) == (2, 1, 2)


def test_closed_forms():
    # called at the default precision, as the checks call them
    zeta22, zeta444 = ref.zeta_closed((2, 2)), ref.zeta_closed((4, 4, 4))
    with mpmath.workprec(ref.PREC):
        pi = mpmath.pi
        assert abs(zeta22 - pi ** 4 / 120) < 1e-50
        assert abs(zeta444 - 128 * pi ** 12 / math.factorial(14)) < 1e-50
        assert abs(ref.zeta_closed((3, 1)) - pi ** 4 / 360) < 1e-50
        assert abs(ref.L_closed((1, 1)) + 2 * pi ** 2) < 1e-50
        # Li_2(-1) = -pi^2/12, by both branches of polylog_root's split
        assert abs(ref.polylog_root(2, Fraction(1, 2)) + pi ** 2 / 12) < 1e-50
        assert abs(ref.polylog_root(2, Fraction(1, 3))
                   - mpmath.polylog(2, mpmath.expjpi(mpmath.mpf(2) / 3))) \
            < 1e-40
    assert ref.stirling_coefficient(1) == Fraction(1, 12)
    assert ref.stirling_coefficient(3) == Fraction(-1, 360)
    assert ref.depth_two_monomial(1, 2, 4)[:4] == [0, 0, Fraction(1, 3),
                                                    Fraction(5, 9)]


def test_run_refuses_without_package_source():
    bare = ROOT / "bench" / "out" / "bare"
    bench = bare / "bench"
    bench.mkdir(parents=True, exist_ok=True)
    for name in ("__init__.py", "run.py", "inputs.py", "checks.py",
                 "reference.py"):
        (bench / name).write_text((ROOT / "bench" / name).read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-readme",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""


def test_median_estimate():
    from bench.run import median_estimate
    assert median_estimate([0.5]) == 0.5
    assert abs(median_estimate([1, 2, 3]) - 2) < 1e-12
    assert abs(median_estimate([3, 1, 4, 2]) - 2.5) < 1e-12
    # across a gap it lands between the two sides, not on either
    assert 1 < median_estimate([1, 1, 1, 10, 10, 10]) < 10
