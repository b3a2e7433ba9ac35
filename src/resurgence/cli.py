"""Command-line front end for the resurgence toolkit.

The command exposes the main pipelines behind stable JSON output so that
results can be scripted, diffed, and replayed:

    resurgence alien --input stirling --omega 2pii --derivation
    resurgence sum --input stirling --theta 0 --z 10 --target-err 1e-10
    resurgence sum --jump --input euler --theta-star pi --z -3
    resurgence mzv eval --s 2,1
    resurgence mzv relation --a 2 --b 3 --mode stuffle,shuffle
    resurgence mould make --exp-scale 1/2 --letters 1 --order 4
    resurgence mould check --file m.json --symmetral
    resurgence hyperlog --word 1,2 --order 12
    resurgence hyperlog --L 1,1 --prec 80
    resurgence series --input euler --order 8 --borel

Conventions shared by every subcommand:

* Exact scalars cross the boundary as text and re-parse bit-exactly.  The
  literal ``2pii`` (optionally with a rational multiplier, ``3*2pii``)
  denotes the exact period of the logarithm; angles accept ``pi`` literals
  such as ``pi``, ``-pi/2`` and ``3pi/4``.
* Every numeric output is paired with its error estimate.  Exact results
  are printed as exact text, never as floats.
* ``--format json`` (the default) prints one JSON object; ``--format
  table`` prints the same data as flat ``key = value`` rows.
* Exit codes: 0 on success, 2 when the mathematics refuses (resonant
  words, blocked rays, non-simple singularities, and the rest of the
  domain error taxonomy) or a value is out of the supported range (an
  index above the weight cap, an order outside [0, MAX_ORDER[subcommand]],
  a mould of more than MAX_MOULD_WORDS words, a precision outside
  [MIN_PREC, MAX_PREC], a moment above MAX_MOMENT, a z whose modulus
  overflows or underflows a double), 1 for usage errors (unknown flags,
  malformed literals, a file that cannot be read or is not JSON).
  Every exit code prints one JSON object on standard output: the result,
  the refusal, or the usage mistake; standard error stays empty.
* ``--prec`` is at least MIN_PREC = 53 bits (``errors.MIN_PREC``, which
  ``ze_eval``, ``wa_eval``, ``L_numeric`` and the ray, jump and Hankel
  sums of ``laplace`` enforce as well): the
  default error targets (1e-12 for ray sums, 1e-10 for nested sums) need
  double precision, and below it the reported errors would describe
  meaningless values.  It is at most MAX_PREC = 1024 bits: the cost of
  the nested sums and iterated integrals grows steeply with the
  precision (``mzv eval --s 2,1`` takes about a second at 1024 bits and
  over a minute at 4096), so a larger value would only make the command
  hang.  The library functions keep only the floor.

Imports.  Loading this module imports only the standard library and
:mod:`resurgence.errors` (the exit-code taxonomy, MIN_PREC and
MAX_NODES), so building the parser loads no layer.  mpmath and each
package module are imported inside the handler or helper that uses
them: ``mould make``, ``mould check`` and ``series`` (of the Euler series)
run on the exact layer without mpmath, ``alien`` and ``hyperlog --word``
load the exact Borel-plane shapes they read, ``sum`` loads the Laplace
layer and ``mzv`` the nested sums and the spectral kernel, never the
other's.

The command is deliberately stateless: fixed inputs and precision give
byte-identical output, which is what makes the JSON form usable as test
fixtures.  No subcommand draws randomness, so none takes a seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .errors import MAX_NODES, MIN_PREC, ResurgenceError


class UsageError(Exception):
    """A malformed invocation (unknown flag, bad literal, missing mode)."""


# The largest --order of each subcommand, so that no order runs for
# minutes: series coefficients grow factorially (order 1000 takes about a
# second), hyperlog's shuffle products grow with the square of the order,
# and mould make writes one entry per word.
MAX_ORDER = {"mould make": 100, "hyperlog": 100, "series": 1000}
# the largest number of words mould make materialises (about 4 s)
MAX_MOULD_WORDS = 4096
# the largest --prec: mzv eval --s 2,1 takes about a second at 1024 bits
# and over a minute at 4096, hyperlog --L 1,2 over two minutes at 4096
MAX_PREC = 1024
# the largest sum --moment: the ray sampler multiplies each panel's vector
# by t once per unit of moment (10^3 takes about 2 s, 10^4 about 13 s)
MAX_MOMENT = 1000


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures raise instead of exiting.

    Stock argparse exits with status 2 on bad flags; the contract here
    reserves 2 for domain errors and 1 for usage, so errors are funneled
    through UsageError and mapped in main().
    """

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# literal parsing


def _literal_factor(head: str) -> Fraction:
    """The rational factor written before a pi literal ('', '+' and '-'
    stand for 1 and -1); raises ValueError or ZeroDivisionError."""
    return {"": Fraction(1), "+": Fraction(1), "-": Fraction(-1)}.get(
        head) or Fraction(head)


def _parse_angle(text: str) -> float:
    """Parse an angle that may use pi literals: 'pi', '-pi/2', '3pi/4', '0.3'."""
    s = text.strip().replace(" ", "").replace("*", "")
    try:
        if "pi" in s:
            head, _, tail = s.partition("pi")
            mult = _literal_factor(head)
            if tail:
                if not tail.startswith("/"):
                    raise UsageError(f"cannot parse angle {text!r}")
                mult /= Fraction(tail[1:])
            angle = float(mult) * math.pi
        else:
            angle = float(s)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise UsageError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(angle):
        raise UsageError(f"the angle {text!r} is not finite")
    return angle


def _parse_point(text: str):
    """Parse a Borel-plane point: '2pii' literals or exact scalar text."""
    from .scalars import ExactScalar, parse_scalar

    s = text.strip().replace(" ", "")
    if s.endswith("2pii"):
        try:
            mult = _literal_factor(s[:-4].rstrip("*"))
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse point {text!r}") from None
        return ExactScalar.tau() * ExactScalar.from_rational(mult)
    try:
        return parse_scalar(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse point {text!r}: {exc}") from None


def _parse_z(text: str, prec: int):
    """Parse the summation variable: exact text preferred, floats accepted."""
    import mpmath

    from .scalars import parse_scalar

    s = text.strip()
    try:
        z = parse_scalar(s).evaluate(prec)
    except (ValueError, ZeroDivisionError):
        try:
            with mpmath.workprec(prec):
                z = mpmath.mpmathify(s.replace("i", "j"))
        except (ValueError, TypeError, AttributeError, ZeroDivisionError):
            # mpmath's string parser fails with AttributeError on some
            # text and with ZeroDivisionError on a zero denominator
            raise UsageError(f"cannot parse z value {text!r}") from None
        if not mpmath.isfinite(z):
            raise UsageError(f"the z value {text!r} is not finite")
    # the decay margin and the tail bounds are reported as doubles
    modulus = float(abs(z))
    if math.isinf(modulus) or (z and not modulus):
        raise ValueError(f"|z| of {text!r} is outside the range of a double")
    return z


def _parse_word(text: str) -> tuple:
    s = text.strip().strip("[]()")
    if not s:
        return ()
    try:
        return tuple(int(part) for part in s.split(","))
    except ValueError:
        raise UsageError(f"cannot parse word {text!r}") from None


def _parse_index(text: str):
    from .mzv import MzvIndex

    parts = [p for p in text.strip().strip("[]()").split(",") if p]
    try:
        return MzvIndex(tuple(int(p) for p in parts))
    except ValueError:
        raise UsageError(f"cannot parse index {text!r}") from None


def _parse_letters(text: str) -> list:
    from .scalars import parse_scalar

    try:
        return [parse_scalar(part) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse letters {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# output shaping


def _scalar_text(s) -> str:
    """Canonical exact text: plain Gaussian form when possible."""
    return str(s.as_gaussian()) if s.is_gaussian() else str(s)


def _digits(prec: int) -> int:
    return max(10, int(prec * 0.30103) + 2)


def _num(x, digits: int):
    """A numeric value as JSON: string for reals, {re, im} for complex."""
    import mpmath

    x = mpmath.mpmathify(x)
    if isinstance(x, mpmath.mpc):
        if x.imag == 0:
            return mpmath.nstr(x.real, digits)
        return {"re": mpmath.nstr(x.real, digits),
                "im": mpmath.nstr(x.imag, digits)}
    return mpmath.nstr(x, digits)


def _series_payload(fs) -> dict:
    coeffs = [_scalar_text(fs[n]) for n in range(fs.order + 1)]
    return {"order": fs.order, "coefficients": coeffs}


def _series_text(fs) -> str:
    text = str(fs)
    if text.startswith("<FormalSeries ") and text.endswith(">"):
        text = text[len("<FormalSeries "):-1]
    return text


def _resurgent_payload(out) -> dict:
    data = _series_payload(out.series)
    tail_zero = all(out.series[n].is_zero()
                    for n in range(1, out.series.order + 1))
    data["constant_term"] = _scalar_text(out.constant_term)
    data["value"] = (_scalar_text(out.constant_term) if tail_zero
                     else _series_text(out.series))
    return data


def _summation_payload(res, digits: int) -> dict:
    return {
        "value": _num(res.value, digits),
        "error": _num(res.error_estimate, digits),
        "nodes": res.nodes_used,
        "certified": res.certified,
        "diagnostics": res.diagnostics,
    }


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for key, val in payload.items():
            rows.extend(_flatten(val, f"{prefix}{key}."))
    elif isinstance(payload, (list, tuple)):
        rows.append((prefix[:-1], json.dumps(payload)))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "table":
        rows = _flatten(payload)
        width = max((len(k) for k, _ in rows), default=0)
        for key, val in rows:
            print(f"{key.ljust(width)} = {val}")
    else:
        print(json.dumps(payload, indent=2))


# ---------------------------------------------------------------------------
# named inputs


def _borel_input(name: str):
    """Resolve a builtin Borel-plane input name to (function, constant)."""
    from .borelfun import dilog_minor, euler_minor, power_minor, stirling_minor
    from .scalars import ExactScalar

    zero = ExactScalar()
    if name == "euler":
        return euler_minor(), zero
    if name == "stirling":
        return stirling_minor(), zero
    if name == "dilog":
        return dilog_minor(), zero
    if name.startswith("I_sigma:"):
        spec = name[len("I_sigma:"):]
        with_log = spec.endswith(":log")
        if with_log:
            spec = spec[:-len(":log")]
        try:
            sigma = Fraction(spec)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"cannot parse sigma in {name!r}") from None
        return power_minor(sigma, with_log=with_log), zero
    raise UsageError(
        f"unknown input {name!r}; expected euler, stirling, dilog, "
        "or I_sigma:<rational>")


def _resurgent_input(name: str):
    from .alien import euler_resurgent, stirling_resurgent

    if name == "euler":
        return euler_resurgent()
    if name == "stirling":
        return stirling_resurgent()
    raise UsageError(
        f"unknown input {name!r}; expected euler or stirling")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_alien(args) -> dict:
    from .alien import alien_derivation, alien_minus, alien_plus

    phi = _resurgent_input(args.input)
    omega = _parse_point(args.omega)
    if args.plus:
        operator, out = "plus", alien_plus(phi, omega)
    elif args.minus:
        operator, out = "minus", alien_minus(phi, omega)
    else:
        operator, out = "derivation", alien_derivation(phi, omega)
    data = _resurgent_payload(out)
    data.update(input=args.input, omega=_scalar_text(omega),
                operator=operator)
    return data


def _cmd_sum(args) -> dict:
    from .laplace import RaySpec, hankel_laplace, laplace_ray, lateral_jump

    f, c0 = _borel_input(args.input)
    digits = _digits(args.prec)
    if args.moment and (args.jump or args.hankel):
        raise UsageError("--moment applies to ray sums only, not to "
                         "--jump or --hankel")
    if args.moment > MAX_MOMENT:
        raise ValueError(f"--moment {args.moment} is above the ceiling of "
                         f"{MAX_MOMENT}")
    if args.jump:
        if args.theta_star is None:
            raise UsageError("--jump requires --theta-star")
        pair = lateral_jump(
            f, c0, _parse_angle(args.theta_star), args.delta,
            _parse_z(args.z, args.prec + 16),
            max_nodes=args.max_nodes, target_error=args.target_err,
            prec=args.prec)
        return {
            "input": args.input,
            "certified": pair.plus.certified and pair.minus.certified,
            "plus": _summation_payload(pair.plus, digits),
            "minus": _summation_payload(pair.minus, digits),
            "jump": {
                "value": _num(pair.jump, digits),
                "abs": _num(abs(pair.jump), digits),
                "error": _num(pair.error_estimate, digits),
            },
        }
    if args.theta is None:
        raise UsageError("ray summation requires --theta")
    theta = _parse_angle(args.theta)
    z = _parse_z(args.z, args.prec + 16)
    if args.hankel:
        res = hankel_laplace(f, theta, z, target_error=args.target_err,
                             max_nodes=args.max_nodes, prec=args.prec)
    else:
        spec = RaySpec(theta=theta, z=z, max_nodes=args.max_nodes,
                       target_error=args.target_err, prec=args.prec)
        res = laplace_ray(f, c0, spec, moment=args.moment)
    data = _summation_payload(res, digits)
    data.update(input=args.input,
                contour="hankel" if args.hankel else "ray")
    return data


def _cmd_mzv_eval(args) -> dict:
    from .mzv import ze_eval

    idx = _parse_index(args.s)
    ev = ze_eval(idx, prec=args.prec)
    digits = _digits(args.prec)
    return {
        "s": list(idx.s),
        "value": _num(ev.value, digits),
        "error": _num(ev.error, digits),
        "certified": ev.certified,
        "flagged": ev.flagged,
    }


def _cmd_mzv_relation(args) -> dict:
    import mpmath

    from .mzv import verify_relation

    modes = tuple(m.strip() for m in args.mode.split(",") if m.strip())
    if not modes:
        # a relation report with no checks would pass vacuously
        raise UsageError(f"--mode {args.mode!r} names no mode; expected "
                         "stuffle, shuffle or both")
    for mode in modes:
        if mode not in ("stuffle", "shuffle"):
            raise UsageError(f"unknown mode {mode!r}")
    report = verify_relation(_parse_index(args.a), _parse_index(args.b),
                             prec=args.prec, modes=modes)
    with mpmath.workprec(args.prec):
        data = report.to_dict(digits=_digits(args.prec))
    data["ok"] = report.ok
    return data


def _cmd_mould_make(args) -> dict:
    from .moulds import (exp_scale_mould, identity_mould, mould_to_json,
                         unit_mould)
    from .scalars import parse_scalar
    from .words import Alphabet

    letters = _parse_letters(args.letters)
    alphabet = Alphabet(letters)
    words = sum(len(alphabet) ** k for k in range(args.order + 1))
    if words > MAX_MOULD_WORDS:
        raise ValueError(f"{words} words up to length {args.order} exceed "
                         f"the ceiling of {MAX_MOULD_WORDS}")
    if args.exp_scale is not None:
        try:
            scale = parse_scalar(args.exp_scale)
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse --exp-scale {args.exp_scale!r}: "
                             f"{exc}") from None
        m = exp_scale_mould(scale)
    elif args.identity:
        m = identity_mould()
    else:
        m = unit_mould()
    return mould_to_json(m.materialize(alphabet, args.order))


def _cmd_mould_check(args) -> dict:
    from .moulds import (is_alternal, is_alternel, is_symmetral,
                         is_symmetrel, mould_from_json)

    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read --file {args.file!r}: "
                         f"{exc.strerror}") from None
    except ValueError as exc:
        # json's decode error and the codec's UnicodeDecodeError
        raise UsageError(f"--file {args.file!r} is not UTF-8 JSON: "
                         f"{exc}") from None
    try:
        m = mould_from_json(data)
    except (KeyError, TypeError) as exc:
        raise UsageError(f"--file {args.file!r} is not a serialized mould: "
                         f"{exc!r}") from None
    predicates = {
        "symmetral": (args.symmetral, is_symmetral),
        "alternal": (args.alternal, is_alternal),
        "symmetrel": (args.symmetrel, is_symmetrel),
        "alternel": (args.alternel, is_alternel),
    }
    requested = {name: fn for name, (flag, fn) in predicates.items() if flag}
    if not requested:
        raise UsageError("pick at least one predicate flag, e.g. --symmetral")
    out = {"file": args.file, "max_length": data.get("max_length")}
    for name, fn in requested.items():
        out[name] = fn(m)
    return out


def _cmd_hyperlog(args) -> dict:
    from .hyperlog import L_numeric, MonomialFamily, v_series

    if args.L is not None:
        w = _parse_word(args.L)
        ii = L_numeric(w, prec=args.prec)
        digits = _digits(args.prec)
        return {
            "word": list(w),
            "value": _num(ii.value, digits),
            "error": _num(ii.error_estimate, digits),
            "nodes": ii.nodes,
            "certified": ii.certified,
        }
    w = _parse_word(args.word)
    if not w:
        raise UsageError("the word must be non-empty")
    letters = (sorted(set(w)) if args.letters is None
               else list(_parse_word(args.letters)))
    fam = MonomialFamily(letters, order=args.order)
    data = _series_payload(v_series(fam, w))
    data.update(word=list(w), text=_series_text(v_series(fam, w)))
    return data


def _cmd_series(args) -> dict:
    from .series import borel, euler_series, stirling_series

    fs = (euler_series if args.input == "euler" else stirling_series)(
        args.order)
    data = _series_payload(fs)
    data.update(input=args.input, var="z", text=_series_text(fs))
    if args.borel:
        bs = borel(fs)
        data["borel"] = {
            "order": bs.order,
            "coefficients": [_scalar_text(c) for c in bs.taylor],
        }
    return data


# ---------------------------------------------------------------------------
# parser assembly


def _common(sub, order=None, prec=53, name=None):
    sub.add_argument("--prec", type=int, default=prec,
                     help="working precision in bits")
    if order is not None:
        ceiling = MAX_ORDER[name]
        sub.add_argument("--order", type=int, default=order,
                         help=f"truncation order, at most {ceiling}")
        sub.set_defaults(max_order=ceiling)
    sub.add_argument("--format", choices=("json", "table"), default="json")


def build_parser() -> _Parser:
    parser = _Parser(prog="resurgence",
                     description="mould calculus and resurgence pipelines")
    subs = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = subs.add_parser("alien", help="apply alien operators to builtins")
    p.add_argument("--input", required=True)
    p.add_argument("--omega", required=True,
                   help="singular point, e.g. -1 or 2pii")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--derivation", action="store_true")
    mode.add_argument("--plus", action="store_true")
    mode.add_argument("--minus", action="store_true")
    _common(p)
    p.set_defaults(handler=_cmd_alien)

    p = subs.add_parser("sum", help="Borel-Laplace summation along a ray")
    p.add_argument("--input", required=True,
                   help="euler, stirling, dilog, or I_sigma:<rational>")
    p.add_argument("--z", required=True, help="evaluation point")
    p.add_argument("--theta", default=None, help="ray direction")
    p.add_argument("--jump", action="store_true",
                   help="lateral pair across --theta-star")
    p.add_argument("--hankel", action="store_true",
                   help="Hankel contour around the origin")
    p.add_argument("--theta-star", default=None, help="singular direction")
    p.add_argument("--delta", type=float, default=0.5,
                   help="angular gap between the lateral rays")
    p.add_argument("--target-err", type=float, default=1e-12)
    p.add_argument("--max-nodes", type=int, default=MAX_NODES,
                   help="cap on the integrand evaluations of one sum: "
                        "panels stop bisecting there and the error of "
                        "the unconverged ones is reported")
    p.add_argument("--moment", type=int, default=0,
                   help=f"power of t in the integrand, at most {MAX_MOMENT}")
    _common(p)
    p.set_defaults(handler=_cmd_sum)

    p = subs.add_parser("mzv", help="multizeta evaluation and relations")
    mzv_subs = p.add_subparsers(dest="mzv_command", parser_class=_Parser)
    q = mzv_subs.add_parser("eval")
    q.add_argument("--s", required=True, help="index, e.g. 2 or 2,1")
    _common(q)
    q.set_defaults(handler=_cmd_mzv_eval)
    q = mzv_subs.add_parser("relation")
    q.add_argument("--a", required=True)
    q.add_argument("--b", required=True)
    q.add_argument("--mode", default="stuffle,shuffle")
    _common(q)
    q.set_defaults(handler=_cmd_mzv_relation)

    p = subs.add_parser("mould", help="make and check serialized moulds")
    mould_subs = p.add_subparsers(dest="mould_command", parser_class=_Parser)
    q = mould_subs.add_parser("make")
    gen = q.add_mutually_exclusive_group(required=True)
    gen.add_argument("--exp-scale", default=None,
                     help="weight of the exponential mould, e.g. 1/2")
    gen.add_argument("--unit", action="store_true")
    gen.add_argument("--identity", action="store_true")
    q.add_argument("--letters", default="1",
                   help="comma-separated exact letters")
    _common(q, order=4, name="mould make")
    q.set_defaults(handler=_cmd_mould_make)
    q = mould_subs.add_parser("check")
    q.add_argument("--file", required=True)
    q.add_argument("--symmetral", action="store_true")
    q.add_argument("--alternal", action="store_true")
    q.add_argument("--symmetrel", action="store_true")
    q.add_argument("--alternel", action="store_true")
    _common(q)
    q.set_defaults(handler=_cmd_mould_check)

    p = subs.add_parser("hyperlog",
                        help="hyperlogarithmic monomials and L values")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--word", default=None,
                        help="series coefficients for this word, e.g. 1,2")
    target.add_argument("--L", default=None,
                        help="numeric one-sided singular value")
    p.add_argument("--letters", default=None)
    _common(p, order=12, name="hyperlog")
    p.set_defaults(handler=_cmd_hyperlog)

    p = subs.add_parser("series", help="print builtin formal series")
    p.add_argument("--input", required=True, choices=("euler", "stirling"))
    p.add_argument("--borel", action="store_true",
                   help="include the Borel transform coefficients")
    _common(p, order=8, name="series")
    p.set_defaults(handler=_cmd_series)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            parser.error("a subcommand is required")
        if args.prec < MIN_PREC:
            raise ValueError(f"--prec {args.prec} is below the floor of "
                             f"{MIN_PREC} bits")
        if args.prec > MAX_PREC:
            raise ValueError(f"--prec {args.prec} is above the ceiling of "
                             f"{MAX_PREC} bits")
        order = getattr(args, "order", None)
        if order is not None and not 0 <= order <= args.max_order:
            raise ValueError(f"--order {order} is outside 0 .. "
                             f"{args.max_order}")
        payload = args.handler(args)
    except UsageError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}))
        return 1
    except ResurgenceError as exc:
        print(json.dumps(exc.payload(), indent=2))
        return 2
    except ValueError as exc:
        # out-of-range values that the library validation rejects
        print(json.dumps({"error": "usage", "message": str(exc)}, indent=2))
        return 2
    except NotImplementedError as exc:
        print(json.dumps({"error": "unsupported", "message": str(exc)}))
        return 2
    _emit(payload, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
