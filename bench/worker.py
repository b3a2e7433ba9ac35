"""One round of a workload, in a fresh interpreter.

    python -m bench.worker --workload NAME --seed N [--setup-only]
                           [--trace] [--in-process] [--spans PATH]

The worker imports the package, builds the workload's inputs from the seed
and reports the moment it is ready on the monotonic clock.  Unless
``--setup-only`` is given it then runs every operation once, closed loop,
timing each call alone, and serializes the outputs to plain data for the
checker.  The last line of standard output is one JSON object.

A fresh interpreter per round matters: ``mzv._ZE_CACHE`` and
``_chebyshev._TABLES`` live as long as the process, so a second pass in the
same process would time dictionary lookups.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import mpmath

from resurgence import (alien, borelfun, freealg, hyperlog, laplace, moulds,
                        mzv, series)
from resurgence.scalars import ExactScalar
from resurgence.words import Alphabet, Word

from . import inputs, speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
# the console-script entry point of the ``resurgence`` command
ENTRY = "import sys; from resurgence.cli import main; sys.exit(main())"


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# -- serialization of outputs ----------------------------------------------------------


def num(x):
    x = mpmath.mpmathify(x)
    if isinstance(x, mpmath.mpc):
        return [mpmath.nstr(x.real, 40), mpmath.nstr(x.imag, 40)]
    return [mpmath.nstr(x, 40), "0"]


def evaluation(prec=53):
    return lambda ev: {"v": num(ev.value), "err": mpmath.nstr(ev.error, 20),
                       "prec": prec}


def summation(res):
    return {"v": num(res.value), "err": mpmath.nstr(res.error_estimate, 20),
            "prec": 53}


def iterated(prec):
    return lambda ii: {"v": num(ii.value),
                       "err": mpmath.nstr(ii.error_estimate, 20),
                       "prec": prec}


def jump(pair):
    return {"v": num(pair.jump), "err": mpmath.nstr(pair.error_estimate, 20),
            "prec": 53}


def report(rep):
    return {
        "ok": rep.ok,
        "product": num(rep.product_value),
        "product_error": mpmath.nstr(rep.product_error, 20),
        "checks": [{
            "mode": c.mode,
            "terms": [[list(t.s), [str(e) for e in t.eps], m]
                      for t, m in c.terms],
            "value": num(c.value),
            "error": mpmath.nstr(c.error, 20),
            "residual": mpmath.nstr(c.residual, 20),
            "budget": mpmath.nstr(c.budget, 20),
            "ok": c.ok,
        } for c in rep.checks],
    }


def scalar(x):
    return x.to_json()


def table(m):
    """Mould entries, free-algebra terms or polynomial coefficients."""
    items = m.entries if hasattr(m, "entries") else (
        m.terms if hasattr(m, "terms") else m.coeffs)
    return [[list(k), v.to_json()] for k, v in items.items()]


def resurgent(out):
    order = out.series.order
    return {
        "constant": out.constant_term.to_json(),
        "tail_zero": all(out.series[n].is_zero()
                         for n in range(1, order + 1)),
        "series": [out.series[n].to_json() for n in range(order + 1)],
    }


def plain(x):
    return x


# -- workloads: each returns [(name, call, serializer)] ---------------------------------
#
# Building the package's objects from the seeded spec is set-up; each call
# is one operation.  Later calls may read earlier results from ``R``.


def iterated_integrals(spec, R):
    ops = []
    for i, (s, eps) in enumerate(spec["indices"]):
        idx = mzv.MzvIndex(s, eps)
        word = mzv.ze_to_wa(idx)
        ops.append((f"wa{i}", lambda w=word: mzv.wa_eval(w), evaluation()))
        ops.append((f"ze{i}", lambda x=idx: mzv.ze_eval(x), evaluation()))
    for prec in spec["L_precs"]:
        for w in spec["L_words"]:
            ops.append((f"L{tuple(w)}@{prec}",
                        lambda w=w, p=prec: hyperlog.L_numeric(w, prec=p),
                        iterated(prec)))
    for w in spec["L_shuffle"]:
        ops.append((f"L{tuple(w)}@sh", lambda w=w: hyperlog.L_numeric(w),
                    iterated(53)))
    return ops


def _point(z):
    return float(z) if isinstance(z, Fraction) else z


def certified_sums(spec, R):
    ops = []

    def ze(name, s, eps=None):
        idx = mzv.MzvIndex(s, eps or ())
        ops.append((name, lambda: mzv.ze_eval(idx), evaluation()))

    for i, (s, eps) in enumerate(spec["coloured"]):
        ze(f"coloured{i}", s, eps)
    for i, (s, eps) in enumerate(spec["closed"]):
        ze(f"closed{i}", s, eps)
    ze("dual_a", spec["dual_source"])
    ze("dual_b", spec["dual_target"])
    s, eps = spec["deep"]
    ze("deep", s, eps)
    ze("deep_conj", s, tuple(-e for e in eps))
    for i, (a, b) in enumerate(spec["relations"]):
        ia, ib = mzv.MzvIndex(a[0], a[1] or ()), mzv.MzvIndex(b[0], b[1] or ())
        ops.append((f"relation{i}",
                    lambda ia=ia, ib=ib: mzv.verify_relation(ia, ib), report))
    minors = {"stirling": borelfun.stirling_minor(),
              "euler": borelfun.euler_minor()}
    for i, (kind, z) in enumerate(spec["rays"]):
        ray = laplace.RaySpec(0, _point(z), target_error=1e-10)
        ops.append((f"ray{i}",
                    lambda f=minors[kind], r=ray: laplace.laplace_ray(f, 0, r),
                    summation))
    ops.append(("jump", lambda z=_point(spec["jump_z"]): laplace.lateral_jump(
        minors["euler"], 0, float(mpmath.pi), 0.5, z), jump))
    euler = alien.euler_resurgent()
    ops.append(("alien_plus", lambda: alien.alien_plus(euler, -1), resurgent))
    z = _point(spec["hankel_z"])
    for sigma in spec["hankel"]:
        if sigma == "pole":
            f = borelfun.RationalBF(borelfun.RationalFunction.simple_pole(
                0, ExactScalar.tau(-1)))
        else:
            f = borelfun.power_minor(str(sigma))
        ops.append((f"hankel{sigma}",
                    lambda f=f, z=z: laplace.hankel_laplace(f, 0, z),
                    summation))
    return ops


def _mould(alphabet, length, entries):
    S = ExactScalar.from_rational
    return moulds.Mould(alphabet, length,
                        entries={Word(w): S(v) for w, v in entries.items()})


def _alternal(parts, alphabet, length, scales):
    """m2 + [m1, m2] * s1 + [m1, [m1, m2]] * s2 + m3 from letter-supported
    parts, as in the acceptance suite."""
    m1, m2, m3 = (_mould(alphabet, length, p) for p in parts)
    bracket = m1 * m2 - m2 * m1
    deep = (m1 * bracket - bracket * m1).scale(scales[1])
    return m2 + bracket.scale(scales[0]) + deep + m3


def _poly(arity, terms):
    p = freealg.Polynomial(arity)
    for expo, c in terms:
        p = p + freealg.Polynomial(arity, {tuple(expo): Fraction(c)})
    return p


def exact_algebra(spec, R):
    ops = []
    S = ExactScalar.from_rational
    tau = ExactScalar.tau()
    for k, m in enumerate(spec["moulds"]):
        p = f"m{k}."
        A, L = Alphabet(list(m["letters"])), m["length"]
        nil, grp = _mould(A, L, m["nilpotent"]), _mould(A, L, m["grouplike"])
        gen, third = _mould(A, L, m["general"]), _mould(A, L, m["third"])
        one = moulds.unit_mould(A)
        ident = moulds.identity_mould(A).materialize(A, L)
        half = moulds.exp_scale_mould(Fraction(1, 2)).materialize(A, L)
        neg = moulds.exp_scale_mould(Fraction(-1, 2)).materialize(A, L)
        parts, scales = m["alternal_parts"], m["bracket_scales"]
        ops += [
            (p + "exp", lambda nil=nil: moulds.mould_exp(nil), None),
            (p + "log_exp", lambda p=p: moulds.mould_log(R[p + "exp"]), table),
            (p + "log", lambda grp=grp: moulds.mould_log(grp), None),
            (p + "exp_log", lambda p=p: moulds.mould_exp(R[p + "log"]), table),
            (p + "unit_right", lambda g=gen, o=one: g * o, table),
            (p + "unit_left", lambda g=gen, o=one: o * g, table),
            (p + "assoc_l", lambda a=grp, b=gen, c=third: (a * b) * c, table),
            (p + "assoc_r", lambda a=grp, b=gen, c=third: a * (b * c), table),
            (p + "inverse", lambda grp=grp: grp.mult_inverse(), None),
            (p + "inverse_law", lambda p=p, grp=grp: grp * R[p + "inverse"],
             table),
            (p + "compose_id_left",
             lambda nil=nil: moulds.identity_mould().compose(nil), table),
            (p + "compose_id_right", lambda g=gen, i=ident: g.compose(i),
             table),
            (p + "exp_scale", lambda h=half, n=neg: h * n, table),
            (p + "build_alternal", lambda a=(parts, A, L, scales):
             _alternal(*a), None),
            # a second alternal for the commutator: [m3, m1] + m2
            (p + "second_alternal", lambda a=(
                (parts[2], parts[0], parts[1]), A, L,
                (Fraction(1), Fraction(0))): _alternal(*a), None),
            (p + "alternal",
             lambda p=p: moulds.is_alternal(R[p + "build_alternal"]), plain),
            (p + "commutator", lambda p=p: moulds.is_alternal(
                R[p + "build_alternal"] * R[p + "second_alternal"]
                - R[p + "second_alternal"] * R[p + "build_alternal"]), plain),
            (p + "exp_alt",
             lambda p=p: moulds.mould_exp(R[p + "build_alternal"]), None),
            (p + "sym_exp", lambda p=p: moulds.is_symmetral(R[p + "exp_alt"]),
             plain),
            (p + "sym_scaled",
             lambda p=p, h=half: moulds.is_symmetral(h * R[p + "exp_alt"]),
             plain),
            (p + "sym_inverse", lambda p=p: moulds.is_symmetral(
                R[p + "exp_alt"].mult_inverse()), plain),
        ]
    AB = Alphabet([1, 2])
    for i, parts in enumerate(spec["lie"]):
        ops += [
            (f"lie{i}.build", lambda a=(parts, AB, 3, (Fraction(1, 2),
                                                       Fraction(-1, 3))):
             _alternal(*a), None),
            (f"lie{i}.alternal",
             lambda i=i: moulds.is_alternal(R[f"lie{i}.build"]), plain),
            (f"lie{i}.lie", lambda i=i: freealg.lie_expand(R[f"lie{i}.build"]),
             table),
            (f"lie{i}.direct",
             lambda i=i: freealg.mould_expand(R[f"lie{i}.build"]), table),
        ]
    ops.append(("stokes", lambda: freealg.stokes_components(4), None))
    for t, trial in enumerate(spec["leibniz"]):
        derivs = {j: freealg.Derivation([_poly(3, img) for img in images])
                  for j, images in trial["ops"].items()}
        f, g = _poly(3, trial["f"]), _poly(3, trial["g"])
        for k in range(1, 5):
            def left(k=k, d=derivs, f=f, g=g):
                return freealg.apply_element(R["stokes"][k], d, f * g)

            def right(k=k, d=derivs, f=f, g=g):
                comp = R["stokes"]
                out = (freealg.apply_element(comp[k], d, f) * g
                       + f * freealg.apply_element(comp[k], d, g))
                for i in range(1, k):
                    out = out + (freealg.apply_element(comp[i], d, f)
                                 * freealg.apply_element(comp[k - i], d, g))
                return out

            ops.append((f"leibniz{t}.{k}.left", left, table))
            ops.append((f"leibniz{t}.{k}.right", right, table))
    stirling = alien.stirling_resurgent()
    for r in spec["alien_r"]:
        ops.append((f"alien{r}",
                    lambda r=r: alien.alien_derivation(stirling, tau * r),
                    resurgent))
    euler = alien.euler_resurgent()
    ops.append(("alien_plus", lambda: alien.alien_plus(euler, -1), resurgent))
    fam = hyperlog.MonomialFamily([1, 2], order=12)
    ops.append(("U", lambda: hyperlog.default_U(fam), None))
    ops.append(("prefix1", lambda: alien.alien_derivation(
        hyperlog.gu_resurgent(fam, (1,), u=R["U"]), 1), resurgent))
    ops.append(("prefix1_other", lambda: alien.alien_derivation(
        hyperlog.gu_resurgent(fam, (1,), u=R["U"]), 2).is_zero(), plain))
    for w in spec["prefix_words"]:
        def prefix(w=tuple(w)):
            out = alien.alien_derivation(
                hyperlog.gu_resurgent(fam, w, u=R["U"]), w[0])
            return out, hyperlog.gu_resurgent(fam, (w[1],), u=R["U"])
        ops.append((f"prefix{tuple(w)}", prefix,
                    lambda pair: {"out": resurgent(pair[0]),
                                  "tail": resurgent(pair[1])}))
    for eta in spec["extract_L_eta"]:
        ops.append((f"extract_L{eta}",
                    lambda eta=eta: hyperlog.extract_L(fam, eta), table))
    n_max = spec["predict_n"]
    ops.append(("predict_euler", lambda: series.predict_coefficients(
        [(S(-1), tau)], range(0, n_max + 1)), lambda cs: [scalar(c) for c in cs]))
    lattice = [(tau, S(1)), (tau * (-1), S(-1))]
    ops.append(("predict_lattice", lambda: series.predict_coefficients(
        lattice, [spec["lattice_n"]])[0], scalar))
    return ops


def cli_readme(spec, in_process, scratch):
    """Each README command in its own child process, or, for the traced
    round, through ``cli.main`` in this process with stdout captured."""
    from resurgence import cli

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ops = []
    for i, line in enumerate(spec["commands"]):
        argv, _, target = (part.strip() for part in line.partition(">"))
        argv = argv.split()

        def run(argv=argv, target=target):
            if in_process:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    code = cli.main(argv)
                text = buffer.getvalue()
                if target:
                    (scratch / target).write_text(text, encoding="utf-8")
                return {"code": code, "stdout": text}
            if target:
                with open(scratch / target, "w", encoding="utf-8") as handle:
                    done = subprocess.run(
                        [sys.executable, "-c", ENTRY, *argv], cwd=scratch,
                        env=env, stdout=handle, stderr=subprocess.PIPE,
                        timeout=120)
                text = (scratch / target).read_text(encoding="utf-8")
            else:
                done = subprocess.run(
                    [sys.executable, "-c", ENTRY, *argv], cwd=scratch,
                    env=env, capture_output=True, text=True, timeout=120)
                text = done.stdout
            return {"code": done.returncode, "stdout": text}

        ops.append((f"cmd{i}", run, plain))
    return ops


BUILD = {
    "iterated-integrals": iterated_integrals,
    "certified-sums": certified_sums,
    "exact-algebra": exact_algebra,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="bench.worker")
    parser.add_argument("--workload", required=True,
                        choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--in-process", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    spec = inputs.make(args.workload, args.seed)
    R = {}
    scratch = None
    if args.workload == "cli-readme":
        OUT.mkdir(parents=True, exist_ok=True)
        scratch = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))
        if args.in_process:
            os.chdir(scratch)
        ops = cli_readme(spec, args.in_process, scratch)
    else:
        ops = BUILD[args.workload](spec, R)
    ready = now()
    result = {"ready": ready, "speed_at_ready": speed.steady_sample()}
    try:
        if not args.setup_only:
            result.update(run_ops(ops, R, args))
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))


def run_ops(ops, R, args):
    tracer = None
    if args.trace:
        from .tracing import Tracer
        tracer = Tracer(f"{args.workload}:{args.seed}")
        tracer.install()
    # operations that run in this process are sampled during the call too;
    # the README's commands run in child processes, which the kernel would
    # slow down if it ran alongside them on the same core
    inside = args.workload != "cli-readme" or args.in_process
    samples = [(time.perf_counter(), speed.sample())]
    # in a traced round a sample is a span of its own, so that it leaves
    # the self time of the layer it interrupts
    measure = speed.sample if tracer is None else \
        (lambda: tracer.span("bench.speed", speed.sample))
    spans, failed = [], {}
    for name, call, _ser in ops:
        with contextlib.ExitStack() as stack:
            sampler = stack.enter_context(speed.Sampler(samples, measure)) \
                if inside else None
            start = time.perf_counter()
            try:
                if tracer is None:
                    R[name] = call()
                else:
                    R[name] = tracer.span("op:" + name, call)
            except Exception as exc:  # a failed operation is counted
                failed[name] = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
        wall = end - start - (sampler.stolen if inside else 0.0)
        spans.append((name, start, end, wall))
        samples.append((time.perf_counter(), speed.sample()))
    # [name, wall seconds, seconds at the reference speed]
    timings = [[name, wall,
                speed.scale(wall, speed.around(samples, start, end))]
               for name, start, end, wall in spans]
    out = {}
    for name, _call, ser in ops:
        if ser is not None and name in R:
            out[name] = ser(R[name])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"timings": timings, "failed": failed, "out": out,
              "rss_kb": own, "child_rss_kb": children}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.spans:
            tracer.dump(args.spans)
    return result


if __name__ == "__main__":
    main()
