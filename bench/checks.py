"""Checks of the package's outputs against references and laws.

Every check takes plain data (what the worker serialized) and returns a
list of failure messages; an empty list means the output is correct.
Numeric outputs must meet both the acceptance-suite tolerance and their
own reported error; exact outputs must match exactly.  Nothing here
imports ``resurgence``.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import mpmath

from . import reference as ref

# tolerances of the acceptance suite (tests/test_acceptance.py) and the
# hyperlog tests, by kind of result
TOL = {
    "ze": 1e-9,
    "wa": 1e-6,
    "L": 1e-10,
    "ray": 1e-9,
    "jump": 1e-7,
    "hankel": 1e-8,
}


def to_mp(x):
    """A serialized number: a decimal string or a [re, im] pair."""
    if isinstance(x, (mpmath.mpf, mpmath.mpc)):
        return x
    with mpmath.workprec(ref.PREC):
        if isinstance(x, (list, tuple)):
            return mpmath.mpc(mpmath.mpf(x[0]), mpmath.mpf(x[1]))
        if isinstance(x, dict):
            return mpmath.mpc(mpmath.mpf(x["re"]), mpmath.mpf(x["im"]))
        return mpmath.mpf(x)


def close(label, got, want, tol, error=None, prec=53):
    """|got - want| must stay within ``tol`` and within the reported
    ``error`` plus one unit in the last place of the returned precision
    (values are rounded to ``prec`` bits on return)."""
    with mpmath.workprec(ref.PREC):
        dist = abs(to_mp(got) - want)
        fails = []
        if not dist <= tol:
            fails.append(f"{label}: off by {mpmath.nstr(dist, 5)}, "
                         f"tolerance {tol:g}")
        if error is not None:
            allowed = to_mp(error) + abs(want) * mpmath.ldexp(1, -prec)
            if not dist <= allowed:
                fails.append(f"{label}: off by {mpmath.nstr(dist, 5)}, "
                             f"reported error {mpmath.nstr(allowed, 5)}")
        return fails


def numeric(label, out, want, tol):
    """A serialized numeric result {"v", "err", "prec"} against a value."""
    return close(label, out["v"], want, tol, out["err"], out.get("prec", 53))


def agree(label, a, b, tol):
    """Two numeric results of the package must agree within the sum of
    their reported errors, and within ``tol``."""
    with mpmath.workprec(ref.PREC):
        dist = abs(to_mp(a["v"]) - to_mp(b["v"]))
        budget = to_mp(a["err"]) + to_mp(b["err"])
        fails = []
        if not dist <= budget:
            fails.append(f"{label}: differ by {mpmath.nstr(dist, 5)}, "
                         f"reported errors sum to {mpmath.nstr(budget, 5)}")
        if not dist < tol:
            fails.append(f"{label}: differ by {mpmath.nstr(dist, 5)}, "
                         f"tolerance {tol:g}")
        return fails


# -- exact values -----------------------------------------------------------------


def exact(data):
    """An exact scalar's JSON form as {(tau, logs): (re, im)}."""
    out = {}
    for term in data["terms"]:
        key = (int(term["tau"]), tuple((int(p), int(e))
                                       for p, e in term["logs"]))
        val = (Fraction(term["re"]), Fraction(term["im"]))
        if val != (0, 0):
            out[key] = val
    return out


def rational(q):
    q = Fraction(q)
    return {} if q == 0 else {(0, ()): (q, Fraction(0))}


def same_exact(label, got, want):
    if got != want:
        return [f"{label}: exact value {got} differs from {want}"]
    return []


def mould(data):
    """A serialized mould [[word, scalar json], ...] as {word: exact}."""
    out = {}
    for word, value in data:
        value = exact(value)
        if value:
            out[tuple(word)] = value
    return out


def mould_of(entries):
    """A reference mould {word: Fraction} in the same form."""
    return {tuple(w): rational(v) for w, v in entries.items() if v != 0}


def same_mould(label, got, want):
    if got == want:
        return []
    words = sorted(set(got) | set(want), key=lambda w: (len(w), w))
    diff = [w for w in words if got.get(w) != want.get(w)]
    return [f"{label}: {len(diff)} entries differ, first at word {diff[0]}"]


def is_true(label, got):
    return [] if got is True else [f"{label}: expected true, got {got!r}"]


# -- relation reports ---------------------------------------------------------------


def _terms(rows):
    return Counter({(tuple(int(x) for x in s),
                     tuple(Fraction(e) % 1 for e in eps)): int(m)
                    for s, eps, m in rows})


def relation(label, report, a, b, product=None):
    """A stuffle/shuffle report of Ze(a) * Ze(b): every check ok with its
    residual inside its budget, the residual recomputed from the reported
    values, the decomposition equal to the reference expansion, and the
    product equal to ``product`` when a closed form is known."""
    fails = []
    if report["ok"] is not True:
        fails.append(f"{label}: report not ok")
    expected = {"stuffle": ref.stuffle_terms(a, b),
                "shuffle": ref.shuffle_terms(a, b)}
    modes = [check["mode"] for check in report["checks"]]
    if sorted(modes) != sorted(expected):
        fails.append(f"{label}: modes {modes}")
    with mpmath.workprec(ref.PREC):
        prod = to_mp(report["product"])
        for check in report["checks"]:
            name = f"{label}.{check['mode']}"
            if check["ok"] is not True:
                fails.append(f"{name}: check not ok")
            if _terms(check["terms"]) != expected.get(check["mode"]):
                fails.append(f"{name}: decomposition differs from the "
                             f"reference expansion")
            budget = to_mp(check["budget"])
            if not to_mp(check["residual"]) <= budget:
                fails.append(f"{name}: residual above budget")
            if not abs(to_mp(check["value"]) - prod) <= budget:
                fails.append(f"{name}: value off the product by more than "
                             f"the budget")
        if product is not None:
            fails += close(f"{label}.product", report["product"], product,
                           TOL["ze"], report["product_error"])
    return fails


# -- per-workload checks ----------------------------------------------------------------


def _index(pair):
    s, eps = pair
    return tuple(s), tuple(Fraction(e) for e in eps) if eps else None


def iterated_integrals(spec, out):
    fails = []
    for i, _ in enumerate(spec["indices"]):
        fails += agree(f"wa{i} vs ze{i}", out[f"wa{i}"], out[f"ze{i}"],
                       TOL["wa"])
    for prec in spec["L_precs"]:
        for w in spec["L_words"]:
            name = f"L{tuple(w)}@{prec}"
            fails += numeric(name, out[name], ref.L_closed(w), TOL["L"])
    sh = [out[f"L{tuple(w)}@sh"] for w in spec["L_shuffle"]]
    for w, res in zip(spec["L_shuffle"], sh):
        fails += numeric(f"L{tuple(w)}@sh", res, ref.L_closed(w), TOL["L"])
    with mpmath.workprec(ref.PREC):
        one, two, three = (to_mp(r["v"]) for r in sh)
        e1, e2, e3 = (to_mp(r["err"]) for r in sh)
        dist = abs(one * two - 3 * three)
        budget = (abs(one) * e2 + abs(two) * e1 + e1 * e2 + 3 * e3
                  + abs(one * two) * mpmath.ldexp(1, -50))
        if not (dist <= budget and dist < TOL["L"]):
            fails.append(f"shuffle L(2)L(2,2) = 3L(2,2,2): off by "
                         f"{mpmath.nstr(dist, 5)}")
    return fails


def certified_sums(spec, out):
    fails = []
    for i, pair in enumerate(spec["coloured"]):
        s, eps = _index(pair)
        fails += numeric(f"coloured{i}", out[f"coloured{i}"],
                         ref.polylog_root(s[0], eps[0]), TOL["ze"])
    for i, (s, _) in enumerate(spec["closed"]):
        fails += numeric(f"closed{i}", out[f"closed{i}"],
                         ref.zeta_closed(s), TOL["ze"])
    fails += agree("duality", out["dual_a"], out["dual_b"], TOL["ze"])
    with mpmath.workprec(ref.PREC):
        a, b = out["deep"], out["deep_conj"]
        fails += close("deep conjugate", b["v"],
                       mpmath.conj(to_mp(a["v"])), TOL["ze"],
                       to_mp(a["err"]) + to_mp(b["err"]))
    for i, (a, b) in enumerate(spec["relations"]):
        a, b = _index(a), _index(b)
        va, vb = ref.zeta_value(*a), ref.zeta_value(*b)
        product = va * vb if va is not None and vb is not None else None
        fails += relation(f"relation{i}", out[f"relation{i}"], a, b, product)
    for i, (kind, z) in enumerate(spec["rays"]):
        want = ref.stirling_sum(z) if kind == "stirling" else ref.euler_sum(z)
        fails += numeric(f"ray{i}", out[f"ray{i}"], want, TOL["ray"])
    fails += numeric("jump", out["jump"], ref.euler_jump(spec["jump_z"]),
                     TOL["jump"])
    plus = exact(out["alien_plus"]["constant"])
    fails += same_exact("alien_plus(euler, -1)", plus, {(1, ()): (1, 0)})
    with mpmath.workprec(ref.PREC):
        bridge = mpmath.exp(ref.mp_point(spec["jump_z"])) \
            * ref.evaluate_exact(plus)
    fails += numeric("jump vs alien_plus", out["jump"], bridge, TOL["jump"])
    for sigma in spec["hankel"]:
        name = f"hankel{sigma}"
        fails += numeric(name, out[name],
                         ref.hankel_power(sigma, spec["hankel_z"]),
                         TOL["hankel"])
    return fails


def exact_algebra(spec, out):
    fails = []
    for k, m in enumerate(spec["moulds"]):
        p = f"m{k}."
        unit = mould_of({(): 1})
        want = {name: mould_of(m[name]) for name in
                ("nilpotent", "grouplike", "general")}
        pairs = [("log_exp", want["nilpotent"]),
                 ("exp_log", want["grouplike"]),
                 ("unit_right", want["general"]),
                 ("unit_left", want["general"]),
                 ("inverse_law", unit),
                 ("compose_id_left", want["nilpotent"]),
                 ("compose_id_right", want["general"]),
                 ("exp_scale", unit)]
        for name, w in pairs:
            fails += same_mould(p + name, mould(out[p + name]), w)
        fails += same_mould(p + "assoc", mould(out[p + "assoc_l"]),
                            mould(out[p + "assoc_r"]))
        for name in ("alternal", "commutator", "sym_exp", "sym_scaled",
                     "sym_inverse"):
            fails += is_true(p + name, out[p + name])
    for i, _ in enumerate(spec["lie"]):
        got = {tuple(w): exact(v) for w, v in out[f"lie{i}.lie"]}
        direct = {tuple(w): exact(v) for w, v in out[f"lie{i}.direct"]}
        fails += same_mould(f"lie{i}", {w: v for w, v in got.items() if v},
                            {w: v for w, v in direct.items() if v})
        fails += is_true(f"lie{i}.alternal", out[f"lie{i}.alternal"])
    for t, _ in enumerate(spec["leibniz"]):
        for k in range(1, 5):
            name = f"leibniz{t}.{k}"
            left = {tuple(e): exact(v) for e, v in out[name + ".left"]}
            right = {tuple(e): exact(v) for e, v in out[name + ".right"]}
            fails += same_mould(name, {e: v for e, v in left.items() if v},
                                {e: v for e, v in right.items() if v})
    for r in spec["alien_r"]:
        res = out[f"alien{r}"]
        fails += same_exact(f"alien{r}", exact(res["constant"]),
                            rational(Fraction(1, r)))
        fails += is_true(f"alien{r} tail", res["tail_zero"])
    fails += same_exact("alien_plus", exact(out["alien_plus"]["constant"]),
                        {(1, ()): (1, 0)})
    res = out["prefix1"]
    fails += same_exact("prefix (1,) at 1", exact(res["constant"]),
                        rational(1))
    fails += is_true("prefix (1,) tail", res["tail_zero"])
    fails += is_true("prefix (1,) at 2 vanishes", out["prefix1_other"])
    for w in spec["prefix_words"]:
        name = f"prefix{tuple(w)}"
        got, tail = out[name]["out"], out[name]["tail"]
        fails += same_exact(name, exact(got["constant"]),
                            exact(tail["constant"]))
        if [exact(c) for c in got["series"]] != \
                [exact(c) for c in tail["series"]]:
            fails.append(f"{name}: series differs from the tail's")
    T, ln2 = 1, ((2, 1),)
    closed = {2: {(2,): {(T, ()): (1, 0)},
                  (1, 1): {(2, ()): (Fraction(1, 2), 0)}},
              3: {(1, 2): {(2, ()): (Fraction(1, 2), 0), (T, ln2): (1, 0)},
                  (2, 1): {(2, ()): (Fraction(1, 2), 0), (T, ln2): (-1, 0)}}}
    for eta in spec["extract_L_eta"]:
        got = {tuple(w): exact(v) for w, v in out[f"extract_L{eta}"]}
        fails += same_mould(f"extract_L at {eta}", got, closed[eta])
        for w, value in got.items():
            if len(w) == 2:
                fails += close(f"extract_L{w} vs contour closed form",
                               ref.evaluate_exact(value),
                               ref.L_closed(w), 1e-30)
    n_max = spec["predict_n"]
    truth = ref.euler_coefficients(n_max + 1)
    got = [exact(c) for c in out["predict_euler"]]
    if got != [rational(truth[n + 1]) for n in range(n_max + 1)]:
        fails.append("predict_coefficients(euler) differs from (-1)^n n!")
    n = spec["lattice_n"]
    with mpmath.workprec(ref.PREC):
        pred = ref.evaluate_exact(exact(out["predict_lattice"]))
        true = ref.stirling_coefficient(n + 1)
        true = mpmath.mpf(true.numerator) / true.denominator
        if not abs((pred - true) / true) < 0.02:
            fails.append("lattice prediction of the Stirling coefficient "
                         "off by more than 2%")
    return fails


def _cli_json(label, res):
    if res["code"] != 0:
        return None, [f"{label}: exit code {res['code']}"]
    try:
        data = json.loads(res["stdout"])
    except ValueError:
        return None, [f"{label}: stdout is not one JSON object"]
    if not isinstance(data, dict):
        return None, [f"{label}: stdout is not one JSON object"]
    return data, []


def cli_readme(spec, out):
    fails = []
    data = {}
    for i, command in enumerate(spec["commands"]):
        parsed, bad = _cli_json(command, out[f"cmd{i}"])
        fails += bad
        data[i] = parsed
    if fails:
        return fails
    d = data[0]
    if d["constant_term"] != "1" or any(c != "0" for c in
                                        d["coefficients"][1:]):
        fails.append("alien: derivation of stirling at 2pii is not 1")
    fails += close("sum stirling", data[1]["value"], ref.stirling_sum(10),
                   TOL["ray"], data[1]["error"])
    jump = data[2]["jump"]
    fails += close("sum --jump", jump["value"], ref.euler_jump(-3),
                   TOL["jump"], jump["error"])
    fails += close("sum --hankel", data[3]["value"],
                   ref.hankel_power(Fraction(1, 2), 2), TOL["hankel"],
                   data[3]["error"])
    fails += close("mzv eval", data[4]["value"], ref.zeta_closed((3,)),
                   TOL["ze"], data[4]["error"])
    fails += cli_relation(data[5])
    entries = {tuple(_letter(a) for a in e["word"]): exact(e["value"])
               for e in data[6]["entries"]}
    fails += same_mould("mould make", {w: v for w, v in entries.items() if v},
                        mould_of(ref.exp_scale_entries(Fraction(1, 2), 4)))
    fails += is_true("mould check", data[7].get("symmetral"))
    want = ref.depth_two_monomial(1, 2, 12)
    if [Fraction(c) for c in data[8]["coefficients"]] != want:
        fails.append("hyperlog --word 1,2: series differs from the Taylor "
                     "coefficients of its Borel form")
    truth = ref.euler_coefficients(8)
    if [Fraction(c) for c in data[9]["coefficients"]] != truth:
        fails.append("series euler: coefficients differ from (-1)^(n-1) (n-1)!")
    if [Fraction(c) for c in data[9]["borel"]["coefficients"]] != \
            [Fraction((-1) ** n) for n in range(8)]:
        fails.append("series euler --borel: Borel coefficients differ")
    return fails


def _letter(data):
    """A serialized mould letter: an int, or a rational exact scalar."""
    if data["kind"] == "int":
        return data["value"]
    value = exact(data["value"])
    if set(value) - {(0, ())} or value.get((0, ()), (0, 0))[1] != 0:
        return repr(value)
    q = value.get((0, ()), (Fraction(0), 0))[0]
    return int(q) if q.denominator == 1 else q


def _cli_index(text):
    """'Ze(2, 3)' or 'Ze(2,)' (real indices) as (s, None)."""
    inner = text[text.index("(") + 1:text.rindex(")")]
    return tuple(int(x) for x in inner.split(",") if x.strip()), None


def cli_relation(d):
    a, b = _cli_index(d["left"]), _cli_index(d["right"])
    report = {
        "ok": d["ok"],
        "product": d["product"]["value"],
        "product_error": d["product"]["error"],
        "checks": [{
            "mode": c["mode"],
            "terms": [[_cli_index(t["index"])[0],
                       [0] * len(_cli_index(t["index"])[0]),
                       t["multiplicity"]] for t in c["terms"]],
            "value": c["value"], "residual": c["residual"],
            "budget": c["budget"], "ok": c["ok"],
        } for c in d["checks"]],
    }
    product = ref.zeta_closed(a[0]) * ref.zeta_closed(b[0])
    return relation("mzv relation", report, a, b, product)


WORKLOADS = {
    "iterated-integrals": iterated_integrals,
    "certified-sums": certified_sums,
    "exact-algebra": exact_algebra,
    "cli-readme": cli_readme,
}
