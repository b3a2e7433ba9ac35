"""End-to-end tests for the command-line interface.

Each test invokes main(argv) in-process and parses the captured output.
The numeric oracles repeat the frozen anchors of the library tests: the
alien derivative of the lattice-pole shape at its first singular point
is exactly 1, the angle-0 ray sum of that shape at z = 10 reproduces
the exact factorial-correction constant, the lateral jump of the
geometric-pole shape at z = -3 has modulus 2 pi e^-3, and the depth-one
nested sum at index 2 is pi^2 / 6.  Exit codes follow the contract:
0 on success, 2 on domain refusals (with a machine-readable error
object), 1 on usage mistakes.
"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from resurgence import _work, mzv
from resurgence.cli import (MAX_LAW_LEAVES, MAX_MOMENT, MAX_MOULD_WORDS,
                            MAX_ORDER, _law_leaves, main)
from resurgence.laplace import RaySpec, laplace_ray
from resurgence.borelfun import euler_minor
from resurgence.moulds import (Mould, _pairs, exp_scale_mould, is_alternal,
                               mould_from_json, mould_to_json)
from resurgence.mzv import MzvIndex
from resurgence.scalars import ExactScalar, parse_scalar
from resurgence.series import euler_series
from resurgence.words import Alphabet, shuffle, stuffle


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON under
    RFC 8259."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err or out
    return strict_json(out)


def as_mpc(value):
    """Read the CLI's numeric JSON form: a string or a {re, im} pair."""
    if isinstance(value, dict):
        return mpmath.mpc(mpmath.mpf(value["re"]), mpmath.mpf(value["im"]))
    return mpmath.mpc(mpmath.mpf(value))


class TestAlien:
    def test_lattice_first_point_is_one(self, capsys):
        data = run_json(capsys, "alien", "--input", "stirling",
                        "--omega", "2pii", "--derivation")
        assert data["value"] == "1"
        assert parse_scalar(data["constant_term"]).is_one()

    def test_lattice_point_multiplier_literal(self, capsys):
        for r in (2, 3):
            data = run_json(capsys, "alien", "--input", "stirling",
                            "--omega", f"{r}*2pii")
            assert data["value"] == f"1/{r}"

    def test_geometric_plus_gives_exact_period(self, capsys):
        data = run_json(capsys, "alien", "--input", "euler",
                        "--omega", "-1", "--plus")
        assert parse_scalar(data["value"]) == ExactScalar.tau()

    def test_derivation_agrees_at_nearest_point(self, capsys):
        plus = run_json(capsys, "alien", "--input", "euler",
                        "--omega", "-1", "--plus")
        der = run_json(capsys, "alien", "--input", "euler",
                       "--omega", "-1", "--derivation")
        assert plus["coefficients"] == der["coefficients"]
        assert plus["constant_term"] == der["constant_term"]

    @pytest.mark.parametrize("operator", ["--derivation", "--plus",
                                          "--minus"])
    def test_omega_zero_refused(self, capsys, operator):
        code, out, err = run(capsys, "alien", "--input", "euler",
                             "--omega", "0", operator)
        assert (code, err) == (2, "")
        assert "omega != 0" in json.loads(out)["message"]


class TestSum:
    def test_ray_factorial_correction(self, capsys):
        data = run_json(capsys, "sum", "--input", "stirling",
                        "--theta", "0", "--z", "10",
                        "--target-err", "1e-10")
        with mpmath.workprec(120):
            target = (mpmath.log(mpmath.mpf(362880))
                      - mpmath.mpf("9.5") * mpmath.log(10)
                      + 10 - mpmath.log(2 * mpmath.pi) / 2)
            assert abs(mpmath.mpf(data["value"]) - target) < 1e-9
        assert float(data["error"]) <= 1e-10
        assert data["certified"] is True

    def test_lateral_jump_modulus_and_phase(self, capsys):
        data = run_json(capsys, "sum", "--jump", "--input", "euler",
                        "--theta-star", "pi", "--z", "-3")
        with mpmath.workprec(80):
            target = 2 * mpmath.pi * mpmath.exp(-3)
            assert abs(mpmath.mpf(data["jump"]["abs"]) - target) < 1e-7
        assert abs(float(data["jump"]["value"]["re"])) < 1e-12
        assert float(data["jump"]["value"]["im"]) > 0
        for side in ("plus", "minus"):
            assert "error" in data[side]

    def test_hankel_power_kernel(self, capsys):
        data = run_json(capsys, "sum", "--input", "I_sigma:1/2",
                        "--hankel", "--theta", "0", "--z", "2")
        with mpmath.workprec(80):
            assert abs(as_mpc(data["value"]) - 1 / mpmath.sqrt(2)) < 1e-8
        assert data["contour"] == "hankel"

    def test_sums_print_certified(self, capsys):
        """Every sum prints ``certified`` beside its error, and a jump
        inside each lateral sum too, with the keys the benchmark reads
        still there; every named input has proved rules, the dilogarithm
        included."""
        ray = run_json(capsys, "sum", "--input", "stirling",
                       "--theta", "0", "--z", "10", "--target-err", "1e-10")
        jump = run_json(capsys, "sum", "--jump", "--input", "euler",
                        "--theta-star", "pi", "--z", "-3")
        hankel = run_json(capsys, "sum", "--input", "I_sigma:1/2",
                          "--hankel", "--theta", "0", "--z", "2")
        for data in (ray, hankel, jump["plus"], jump["minus"]):
            assert data["certified"] is True
            assert {"value", "error", "nodes"} <= set(data)
            assert data["diagnostics"]["segments"] > 0
        assert jump["certified"] is True
        assert {"value", "error"} <= set(jump["jump"])
        dilog = run_json(capsys, "sum", "--input", "dilog",
                         "--theta", "-0.5", "--z", "4")
        assert dilog["certified"] is True

    def test_pi_literal_angle_matches_library(self, capsys):
        data = run_json(capsys, "sum", "--input", "euler",
                        "--theta", "3pi/4", "--z=-2-2i")
        res = laplace_ray(euler_minor(), 0,
                          RaySpec(3 * float(mpmath.pi) / 4,
                                  mpmath.mpc(-2, -2)))
        with mpmath.workprec(80):
            got = as_mpc(data["value"])
            assert abs(got - res.value) <= 4 * res.error_estimate + 1e-15

    def test_dilog_named_input(self, capsys):
        data = run_json(capsys, "sum", "--input", "dilog",
                        "--theta", "-0.5", "--z", "4")
        assert data["certified"] is True
        assert float(data["error"]) < 1e-10

    def test_deterministic_output(self, capsys):
        argv = ("sum", "--jump", "--input", "euler",
                "--theta-star", "pi", "--z", "-3")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_blocked_ray_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "sum", "--input", "euler",
                           "--theta", "pi", "--z", "-3")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "ray-blocked"
        assert "nearest" in payload["details"]

    def test_negative_margin_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "sum", "--input", "stirling",
                           "--theta", "0", "--z", "-4")
        assert code == 2
        assert json.loads(out)["error"] == "decay-margin"

    def test_margin_below_the_ladder_is_domain_error(self, capsys):
        """A margin of about 6e-325 leaves the tail bound above the target
        at the last step of the truncation ladder: refused, before any
        node is sampled, with the margin named."""
        code, out, _ = run(capsys, "sum", "--input", "euler",
                           "--theta", "pi/2", "--z", "1e-308")
        assert code == 2
        payload = json.loads(out)
        assert payload["error"] == "decay-margin"
        assert 0 < mpmath.mpf(payload["details"]["margin"]) < 1e-300

    def test_hankel_unsupported_shape_is_domain_error(self, capsys):
        code, out, _ = run(capsys, "sum", "--input", "dilog", "--hankel",
                           "--theta", "-0.5", "--z", "4")
        assert code == 2
        assert json.loads(out)["error"] == "unsupported"

    def test_jump_requires_theta_star(self, capsys):
        code, out, err = run(capsys, "sum", "--jump", "--input", "euler",
                             "--z", "-3")
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ("--hankel", "--input", "I_sigma:1/2", "--theta", "0", "--z", "2",
         "--moment", "2"),
        ("--jump", "--input", "euler", "--theta-star", "pi", "--z", "-3",
         "--moment", "1"),
    ], ids=["hankel", "jump"])
    def test_moment_off_the_ray_is_usage_error(self, capsys, argv):
        # only ray sums take a moment; dropping it would print the
        # moment-0 value
        code, out, err = run(capsys, "sum", *argv)
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert "--moment" in payload["message"]


class TestMzv:
    def test_eval_depth_one(self, capsys):
        data = run_json(capsys, "mzv", "eval", "--s", "2")
        with mpmath.workprec(80):
            assert abs(mpmath.mpf(data["value"])
                       - mpmath.pi ** 2 / 6) <= 1e-10
        assert float(data["error"]) <= 1e-10
        assert data["certified"] is True

    def test_depth_two_collapse(self, capsys):
        a = run_json(capsys, "mzv", "eval", "--s", "2,1")
        b = run_json(capsys, "mzv", "eval", "--s", "3")
        assert abs(mpmath.mpf(a["value"]) - mpmath.mpf(b["value"])) < 1e-9

    def test_relation_both_modes(self, capsys):
        data = run_json(capsys, "mzv", "relation", "--a", "2", "--b", "2",
                        "--mode", "stuffle,shuffle")
        assert data["ok"] is True
        modes = [check["mode"] for check in data["checks"]]
        assert modes == ["stuffle", "shuffle"]
        stuffle_terms = {term["index"]: term["multiplicity"]
                         for term in data["checks"][0]["terms"]}
        assert stuffle_terms["Ze(2, 2)"] == 2

    def test_relation_prints_at_prec(self, capsys):
        data = run_json(capsys, "mzv", "relation", "--a", "2", "--b", "3",
                        "--prec", "200")
        product = data["product"]
        error = mpmath.mpf(product["error"])
        assert error < 1e-55
        with mpmath.workprec(260):
            exact = mpmath.zeta(2) * mpmath.zeta(3)
            assert abs(mpmath.mpf(product["value"]) - exact) <= error

    def test_unknown_mode_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mzv", "relation", "--a", "2",
                             "--b", "2", "--mode", "bogus")
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"

    @pytest.mark.parametrize("mode", [["--mode", ","], ["--mode="]])
    def test_empty_mode_list_is_usage_error(self, capsys, mode):
        """No mode would leave no check, and a report that passes
        vacuously."""
        code, out, err = run(capsys, "mzv", "relation", "--a", "2",
                             "--b", "2", *mode)
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert "names no mode" in payload["message"]

    @pytest.mark.parametrize("sub", ["eval", "relation"])
    def test_cutoff_is_an_unknown_flag(self, capsys, sub):
        """ze_eval chooses its own cutoff, so the command line offers
        none: --cutoff is a usage error."""
        index = ["--s", "2"] if sub == "eval" else ["--a", "2", "--b", "2"]
        code, out, err = run(capsys, "mzv", sub, *index, "--cutoff", "1024")
        assert code == 1
        assert err == ""
        assert "--cutoff" in strict_json(out)["message"]

    def test_eval_keeps_the_cutoff_rule(self, capsys, monkeypatch):
        """mzv eval leaves the cutoff to ze_eval, which doubles it where
        the tails need it."""
        received = []
        ze_eval = mzv.ze_eval

        def record(idx, prec=53, **kwargs):
            received.append(kwargs)
            return ze_eval(idx, prec=prec, **kwargs)

        monkeypatch.setattr(mzv, "ze_eval", record)
        data = run_json(capsys, "mzv", "eval", "--s", "2,1")
        assert received == [{}]
        assert data["error"] == mpmath.nstr(ze_eval(MzvIndex((2, 1))).error,
                                            17)


class TestMould:
    def test_make_check_roundtrip(self, capsys, tmp_path):
        made = run_json(capsys, "mould", "make", "--exp-scale", "1/2",
                        "--letters", "1", "--order", "4")
        path = tmp_path / "m.json"
        path.write_text(json.dumps(made), encoding="utf-8")
        checked = run_json(capsys, "mould", "check", "--file", str(path),
                           "--symmetral", "--alternal")
        assert checked["symmetral"] is True
        assert checked["alternal"] is False
        assert mould_to_json(mould_from_json(made)) == made

    def test_make_matches_library_object(self, capsys):
        made = run_json(capsys, "mould", "make", "--exp-scale", "1/2",
                        "--letters", "1", "--order", "4")
        alphabet = Alphabet([parse_scalar("1")])
        direct = exp_scale_mould(parse_scalar("1/2")).materialize(alphabet, 4)
        assert mould_from_json(made).same_entries(direct)

    def test_check_requires_a_predicate(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        made = run_json(capsys, "mould", "make", "--unit",
                        "--letters", "1", "--order", "2")
        path.write_text(json.dumps(made), encoding="utf-8")
        code, out, err = run(capsys, "mould", "check", "--file", str(path))
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"

    @pytest.mark.parametrize("content,needle", [
        (None, "cannot read"), (b"{}", "not a serialized mould"),
        (b"[1]", "not a serialized mould"), (b"{", "is not UTF-8 JSON"),
        (b"\xff\xfe", "is not UTF-8 JSON")],
        ids=["missing", "no-keys", "not-an-object", "not-json", "not-utf-8"])
    def test_check_unreadable_file_is_usage_error(self, capsys, tmp_path,
                                                  content, needle):
        path = tmp_path / "m.json"
        if content is not None:
            path.write_bytes(content)
        code, out, err = run(capsys, "mould", "check", "--file", str(path),
                             "--symmetral")
        assert code == 1
        assert err == ""
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert needle in payload["message"]
        assert str(path) in payload["message"]

    @staticmethod
    def _write_tampered(tmp_path, tamper):
        """A made exp-scale mould over letters 1, 2 up to length 2, changed
        by ``tamper`` and written to a file."""
        data = mould_to_json(exp_scale_mould(parse_scalar("1/2")).materialize(
            Alphabet([1, 2]), 2))
        tamper(data)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        return path

    @pytest.mark.parametrize("tamper", [
        lambda d: d.update(max_length="2"),
        lambda d: d.update(max_length=2.5),
        lambda d: d.update(max_length=True),
        lambda d: d["entries"][1].update(word=[{"kind": "int", "value": 3}]),
        # equal to the letter 1 but of another kind, so no lookup finds it
        lambda d: d["entries"][1].update(word=[{
            "kind": "scalar",
            "value": ExactScalar.from_rational(1).to_json()}]),
        lambda d: d["entries"].append(
            {"word": [{"kind": "int", "value": 1}] * 3,
             "value": d["entries"][0]["value"]}),
        lambda d: d["entries"].append(d["entries"][1]),
    ], ids=["text-length", "fractional-length", "boolean-length",
            "foreign-letter", "letter-of-another-kind", "word-too-long",
            "repeated-word"])
    def test_check_malformed_mould_is_usage_error(self, capsys, tmp_path,
                                                  tamper):
        path = self._write_tampered(tmp_path, tamper)
        code, out, err = run(capsys, "mould", "check", "--file", str(path),
                             "--symmetral")
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert "not a serialized mould" in payload["message"]

    @pytest.mark.parametrize("length,needle", [
        (-1, f"max_length -1 is outside 0 .. {MAX_ORDER['mould make']}"),
        (60, f"ceiling of {MAX_MOULD_WORDS}")],
        ids=["negative-length", "word-ceiling"])
    def test_check_out_of_range_length_is_refused(self, capsys, tmp_path,
                                                  length, needle):
        path = self._write_tampered(
            tmp_path, lambda d: d.update(max_length=length))
        code, out, err = run(capsys, "mould", "check", "--file", str(path),
                             "--symmetral")
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert needle in payload["message"]

    @pytest.mark.parametrize("length,flags", [
        (9, ["--symmetral"]),
        (8, ["--symmetral", "--alternal"]),
        (8, ["--symmetrel"])],
        ids=["shuffle", "two-laws", "stuffle"])
    def test_check_above_the_law_ceiling_is_refused(self, capsys, tmp_path,
                                                    length, flags):
        # refused before any entry is read: the entries stop at length 2
        path = self._write_tampered(
            tmp_path, lambda d: d.update(max_length=length))
        code, out, err = run(capsys, "mould", "check", "--file", str(path),
                             *flags)
        assert (code, err) == (2, "")
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert f"ceiling of {MAX_LAW_LEAVES}" in payload["message"]

    def test_law_leaves_count_the_enumeration(self):
        """The count matches the multiplicities the laws enumerate, and
        the ceiling admits length 8 over two letters but not length 9."""
        alphabet = Alphabet([1, 2])
        for law, base in ((shuffle, 1), (stuffle, 2)):
            enumerated = sum(sum(law(a, b).values())
                             for a, b in _pairs(alphabet, 5))
            assert enumerated == _law_leaves(2, 5, base)
        assert _law_leaves(2, 8, 1) == 86360 <= MAX_LAW_LEAVES
        assert _law_leaves(2, 9, 1) > MAX_LAW_LEAVES

    def test_shuffle_checks_sum_within_the_count(self):
        """Over 1 to 4 letters, at every length the ceilings admit, the
        words a passing shuffle check sums (one condition per non-Lyndon
        word) stay within the leaves the count admits it by: over two
        letters at length 8, 6353 against 86,360."""
        admitted, summed = {}, {}
        for k in range(1, 5):
            alphabet = Alphabet(range(1, k + 1))
            L = 0
            while (_law_leaves(k, L + 1, 1) <= MAX_LAW_LEAVES
                   and sum(k ** n for n in range(L + 2)) <= MAX_MOULD_WORDS):
                L += 1
                with _work.counting() as counts:
                    assert is_alternal(Mould(alphabet, L, entries={}))
                assert counts["law_leaves"] <= _law_leaves(k, L, 1)
                admitted[k], summed[k] = L, counts["law_leaves"]
        assert admitted == {1: 15, 2: 8, 3: 6, 4: 5}
        assert summed[2] == 6353


class TestHyperlog:
    def test_word_series_coefficients(self, capsys):
        data = run_json(capsys, "hyperlog", "--word", "1,2", "--order", "8")
        assert data["coefficients"][2] == "1/3"
        parsed = [parse_scalar(c) for c in data["coefficients"]]
        assert parsed[0].is_zero() and parsed[1].is_zero()

    def test_depth_one_singular_value(self, capsys):
        data = run_json(capsys, "hyperlog", "--L", "1", "--prec", "80")
        with mpmath.workprec(100):
            assert abs(mpmath.mpf(data["value"]["im"])
                       - 2 * mpmath.pi) < 1e-15
            assert abs(mpmath.mpf(data["value"]["re"])) < 1e-15
        assert float(data["error"]) < 1e-10

    def test_L_reports_certified_beside_nodes(self, capsys):
        """An integrated word reports its degree and a proved error; the
        depth-one constant samples nothing and its error is half a unit
        of 2 pi i rounded."""
        data = run_json(capsys, "hyperlog", "--L", "1,1", "--prec", "80")
        assert (data["nodes"], data["certified"]) == (64, True)
        data = run_json(capsys, "hyperlog", "--L", "1", "--prec", "80")
        assert (data["nodes"], data["certified"]) == (0, True)

    def test_word_or_L_required(self, capsys):
        code, out, err = run(capsys, "hyperlog", "--order", "8")
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"


class TestSeries:
    def test_euler_series_roundtrip(self, capsys):
        data = run_json(capsys, "series", "--input", "euler",
                        "--order", "5", "--borel")
        assert data["coefficients"] == ["0", "1", "-1", "2", "-6", "24"]
        fs = euler_series(5)
        parsed = [parse_scalar(c) for c in data["coefficients"]]
        assert parsed == [fs[n] for n in range(6)]
        assert data["borel"]["coefficients"] == ["1", "-1", "1", "-1", "1"]

    def test_table_format(self, capsys):
        code, out, _ = run(capsys, "series", "--input", "euler",
                           "--order", "3", "--format", "table")
        assert code == 0
        assert "= " in out
        assert not out.lstrip().startswith("{")


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        code, out, err = run(capsys, "alien", "--input", "euler",
                             "--omega", "-1", "--bogus")
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"

    def test_subcommand_required(self, capsys):
        code, out, err = run(capsys)
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"

    def test_unknown_input_name(self, capsys):
        code, out, err = run(capsys, "sum", "--input", "nope",
                             "--theta", "0", "--z", "2")
        assert code == 1
        assert err == ""
        assert "unknown input" in json.loads(out)["message"]

    def test_seed_flag_is_usage_error(self, capsys):
        # no subcommand draws randomness, so there is no --seed flag
        code, out, err = run(capsys, "mzv", "eval", "--s", "2", "--seed", "7")
        assert code == 1
        assert err == ""
        assert json.loads(out)["error"] == "usage"


class TestRefusals:
    """Values outside the supported range are refused with exit code 2
    and one JSON object on standard output, never a traceback."""

    @pytest.mark.parametrize("argv,needle", [
        (("mzv", "eval", "--s", "13"), "weight 13"),
        (("series", "--input", "euler", "--order", "-1"), "order"),
        (("mzv", "eval", "--s", "2", "--prec", "0"), "--prec 0"),
        (("mzv", "eval", "--s", "2", "--prec", "1025"), "--prec 1025"),
        (("sum", "--input", "euler", "--theta", "0", "--z", "2",
          "--moment", str(MAX_MOMENT + 1)),
         f"--moment {MAX_MOMENT + 1} is above the ceiling of {MAX_MOMENT}"),
        (("sum", "--input", "euler", "--theta", "0", "--z", "1e400"),
         "outside the range of a double"),
        (("sum", "--input", "euler", "--theta", "0", "--z=-1e400"),
         "outside the range of a double"),
        (("sum", "--input", "euler", "--theta", "0", "--z", "1e-400"),
         "outside the range of a double"),
        (("mould", "make", "--exp-scale", "1/2", "--letters", "1",
          "--order", "-1"), "--order -1"),
        (("series", "--input", "euler", "--order", "20000", "--borel"),
         f"--order 20000 is outside 0 .. {MAX_ORDER['series']}"),
        (("hyperlog", "--word", "1,2", "--order", "101"), "--order 101"),
        (("mould", "make", "--unit", "--letters", "1,2", "--order", "12"),
         f"ceiling of {MAX_MOULD_WORDS}"),
    ], ids=["weight-cap", "negative-order", "prec-floor", "prec-ceiling",
            "moment-ceiling", "z-overflow", "negative-z-overflow",
            "z-underflow", "negative-mould-order", "series-order-ceiling",
            "hyperlog-order-ceiling", "mould-word-ceiling"])
    def test_refused_with_json(self, capsys, argv, needle):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == ""
        payload = json.loads(out)
        assert payload["error"] == "usage"
        assert needle in payload["message"]
        assert "certified" not in payload


ROOT = Path(__file__).parents[1]


def readme_commands():
    """README's ```sh block of ``resurgence`` commands: per line, the line,
    its arguments and the file that ``> file`` sends its output to."""
    text = (ROOT / "README.md").read_text()
    blocks = [block.splitlines()
              for block in re.findall(r"```sh\n(.*?)```", text, re.S)]
    lines = [line for block in blocks
             if all(line.startswith("resurgence ") for line in block)
             for line in block]
    assert lines, "README has no block of resurgence commands"
    out = []
    for line in lines:
        command, _, target = line[len("resurgence "):].partition(" > ")
        out.append((line, command.split(), target))
    return out


def run_readme_in_process(capsys, directory, monkeypatch):
    """Each README command through main(), in order, in one directory as a
    shell runs it; returns each line's standard output."""
    monkeypatch.chdir(directory)
    outputs = []
    for line, argv, target in readme_commands():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line
        assert isinstance(json.loads(out), dict), line
        if target:
            (directory / target).write_text(out)
        outputs.append(out)
    return outputs


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    """README's ```sh block of ``resurgence`` commands, line by line in
    one directory as a shell runs it: each exits 0 with one JSON object on
    standard output, and ``> file`` writes that output where the later
    lines read it."""
    run_readme_in_process(capsys, tmp_path, monkeypatch)


# the entry point of the console script, in a child that then records the
# modules it loaded in the file named by its first argument
CHILD = ("import json, sys; from resurgence.cli import main; "
         "modules, argv = sys.argv[1], sys.argv[2:]; code = main(argv); "
         "open(modules, 'w').write(json.dumps(sorted(sys.modules))); "
         "sys.exit(code)")
# the numeric layer, which the exact commands never load
NUMERIC = {"mpmath", "resurgence._chebyshev", "resurgence._work",
           "resurgence._borelnum", "resurgence.laplace"}
# per README subcommand, the modules its process must not load
NOT_LOADED = {
    "mould make": {"mpmath"},
    "mould check": {"mpmath"},
    "series": {"mpmath"},
    "mzv": {"resurgence.laplace", "resurgence.borelfun"},
    "sum": {"resurgence.mzv", "resurgence.hyperlog"},
    "alien": {"resurgence.mzv", "resurgence.hyperlog", *NUMERIC},
    "hyperlog --word": {"resurgence.mzv", "resurgence.alien",
                        "resurgence.borelfun", *NUMERIC},
}
# modules no command loads: the records of the package are plain classes,
# and the standard record decorator would bring inspect (and ast, dis and
# tokenize) with it
NEVER_LOADED = {"dataclasses", "inspect"}


def child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def test_readme_commands_in_fresh_processes(capsys, tmp_path, monkeypatch):
    """Each README command in a fresh interpreter, where nothing is
    imported before the command line is: it exits 0 with the in-process
    output byte for byte, and loads only its own layer (NOT_LOADED) and
    none of NEVER_LOADED, so an import that a handler forgets fails
    here."""
    inside = tmp_path / "in-process"
    fresh = tmp_path / "fresh"
    inside.mkdir()
    fresh.mkdir()
    expected = run_readme_in_process(capsys, inside, monkeypatch)
    checked = set()
    for (line, argv, target), want in zip(readme_commands(), expected):
        modules = tmp_path / "modules.json"
        done = subprocess.run(
            [sys.executable, "-c", CHILD, str(modules), *argv], cwd=fresh,
            env=child_env(), capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, ""), line
        assert done.stdout == want, line
        if target:
            (fresh / target).write_text(done.stdout)
        loaded = set(json.loads(modules.read_text()))
        assert not loaded & NEVER_LOADED, (line, loaded & NEVER_LOADED)
        for prefix, banned in NOT_LOADED.items():
            if " ".join(argv).startswith(prefix):
                assert not loaded & banned, (line, loaded & banned)
                checked.add(prefix)
    assert checked == set(NOT_LOADED)


def test_bare_cli_import_loads_no_mpmath():
    """Importing the command line, as the console script does before it
    parses anything, loads no numeric layer."""
    code = ("import sys, resurgence.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'mpmath' or m.startswith('resurgence')))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == str(
        ["resurgence", "resurgence.cli", "resurgence.errors"])


def test_exact_modules_load_no_mpmath():
    code = ("import sys, resurgence.borelfun, resurgence.alien, "
            "resurgence.hyperlog; "
            f"print(sorted({NUMERIC!r} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def test_package_modules_load_no_record_decorator():
    """The modules a benchmark worker imports load none of NEVER_LOADED."""
    code = ("import sys, resurgence.alien, resurgence.borelfun, "
            "resurgence.freealg, resurgence.hyperlog, resurgence.laplace, "
            "resurgence.moulds, resurgence.mzv, resurgence.series, "
            "resurgence._borelnum; "
            f"print(sorted({NEVER_LOADED!r} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


# in a child where only borelfun is imported: the numeric rules load on
# a shape's first numeric call, and give what they give once laplace
# has loaded them
FIRST_USE = """
import sys
from resurgence.borelfun import euler_minor, power_minor, stirling_minor


def numeric():
    out = []
    for f in (euler_minor(), stirling_minor(), power_minor("1/2")):
        value = f.numeric_eval(0.3, 53)
        from resurgence._borelnum import Contour
        floor, bound = f.tail_rule(0, 2, 0, f.singular_values(53), 53)
        sample = f.panel_sampler(Contour(0), 53)(3, 1, 12)
        out.append((value, floor, bound(floor), sample))
    return out


assert not {"mpmath", "resurgence._borelnum"} & set(sys.modules)
first = numeric()
assert "resurgence.laplace" not in sys.modules
import resurgence.laplace
assert numeric() == first
"""


def test_first_numeric_call_loads_the_numeric_rules():
    done = subprocess.run([sys.executable, "-c", FIRST_USE],
                          env=child_env(), capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stderr) == (0, "")


class TestMalformedLiterals:
    """Zero denominators and values that are not finite are usage errors
    (exit 1, one JSON object on standard output, never a traceback); a
    target error that is not finite is out of range (exit 2)."""

    @pytest.mark.parametrize("argv,expected", [
        (("sum", "--input", "I_sigma:1/0", "--theta", "0", "--z", "2"), 1),
        (("sum", "--input", "euler", "--theta", "pi/0", "--z", "2"), 1),
        (("sum", "--input", "euler", "--theta", "inf", "--z", "2"), 1),
        (("sum", "--input", "euler", "--theta", "0", "--z", "1/0"), 1),
        (("sum", "--input", "euler", "--theta", "0", "--z", "inf"), 1),
        (("sum", "--input", "euler", "--theta", "0", "--z", "nan"), 1),
        (("alien", "--input", "euler", "--omega", "1/0"), 1),
        (("alien", "--input", "euler", "--omega", "1/0*2pii"), 1),
        (("sum", "--input", "euler", "--theta", "0", "--z", "2",
          "--target-err", "inf"), 2),
        (("mould", "make", "--exp-scale", "1/0", "--letters", "1",
          "--order", "4"), 1),
        (("mould", "make", "--unit", "--letters", "1/0"), 1),
        (("hyperlog", "--word", "1,2", "--letters", "x"), 1),
    ])
    def test_refused_with_json(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv)
        assert code == expected
        assert err == ""
        assert json.loads(out)["error"] == "usage"


PRECS = st.sampled_from([None, 0, 52, 53, 64, 80])


def index_text(max_depth, top):
    return st.one_of(
        st.lists(st.integers(0, top), max_size=max_depth).map(
            lambda parts: ",".join(map(str, parts))),
        st.sampled_from(["x", "2,,1", "(2,1)", "2.5", "-1"]))


@st.composite
def invocations(draw):
    """argv lists over the mzv eval, mzv relation and series grammar."""
    command = draw(st.sampled_from(["eval", "relation", "series"]))
    if command == "eval":
        argv = ["mzv", "eval", "--s", draw(index_text(4, 13))]
    elif command == "relation":
        argv = ["mzv", "relation", "--a", draw(index_text(2, 5)),
                "--b", draw(index_text(2, 5))]
        mode = draw(st.sampled_from([None, "stuffle", "shuffle",
                                     "stuffle,shuffle", "bogus", ""]))
        if mode is not None:
            argv += ["--mode", mode]
    else:
        argv = ["series", "--input",
                draw(st.sampled_from(["euler", "stirling", "dilog"]))]
        if draw(st.booleans()):
            argv += ["--order", str(draw(st.integers(-3, 20)))]
        if draw(st.booleans()):
            argv.append("--borel")
    prec = draw(PRECS)
    if prec is not None:
        argv += ["--prec", str(prec)]
    return argv


def mostly(valid, invalid):
    """Mostly valid values, so that whole invocations often get past
    parsing and reach the summation."""
    return st.sampled_from(list(valid) * 8 + list(invalid))


# The sum grammar: every builtin input, sigma texts that parse, that are
# integers (refused by the shape) and that do not parse; angles and points
# with positive, zero and negative decay margins; target errors that are
# valid (loose, to keep each sum cheap), zero, negative or not finite.
SUM_INPUTS = mostly(
    ["stirling", "euler", "dilog", "I_sigma:1/2", "I_sigma:1/3",
     "I_sigma:3/4", "I_sigma:5/4", "I_sigma:-1/2", "I_sigma:1/2:log"],
    ["nope", "I_sigma:2", "I_sigma:0", "I_sigma:1/0", "I_sigma:x"])
ANGLES = mostly(["0", "pi/4", "0.3", "-pi/2", "3pi/4", "pi"],
                ["pi/0", "2xpi", "x", "inf", "nan"])
POINTS = mostly(["2", "10", "3+i", "1-2i", "4", "i", "0", "-2"],
                ["1/0", "x", "inf", "nan", "1e400", "1e-400"])
TARGETS = mostly([None, "1e-3", "1e-6"], ["0", "-1e-6", "inf", "nan"])
SUM_PRECS = mostly([None, "53", "64"], ["0", "52", "x"])


@st.composite
def sum_invocations(draw):
    """argv lists over the sum grammar: ray, Hankel and lateral pairs."""
    # "--flag=value", so that values with a leading minus reach the parser
    argv = ["sum", f"--input={draw(SUM_INPUTS)}", f"--z={draw(POINTS)}"]
    mode = draw(st.sampled_from(["ray", "hankel", "jump"]))
    if mode == "jump":
        argv.append("--jump")
        if draw(mostly([True], [False])):
            argv.append(f"--theta-star={draw(ANGLES)}")
        if draw(st.booleans()):
            delta = draw(mostly(["0.5", "0.3"], ["0", "-1", "2", "nan"]))
            argv.append(f"--delta={delta}")
    else:
        if mode == "hankel":
            argv.append("--hankel")
        if draw(mostly([True], [False])):
            argv.append(f"--theta={draw(ANGLES)}")
    target = draw(TARGETS)
    if target is not None:
        argv.append(f"--target-err={target}")
    if draw(st.integers(0, 3)) == 0:
        argv.append(f"--max-nodes={draw(st.sampled_from(['64', '10', 'x']))}")
    if mode == "ray" and draw(st.integers(0, 3)) == 0:
        argv.append(f"--moment={draw(st.sampled_from(['1', '-1']))}")
    prec = draw(SUM_PRECS)
    if prec is not None:
        argv.append(f"--prec={prec}")
    return argv


# The alien grammar: both resurgent inputs and an unknown one; points on
# and off the singular lattices, zero, and texts that do not parse; one,
# none or two of the operator flags.
OMEGAS = mostly(["2pii", "-2pii", "3*2pii", "1/2*2pii", "-1", "-2", "1",
                 "0", "i", "1/2"],
                ["1/0", "x", "2pii/0", "1/0*2pii", "", "2*2*pii"])
OPERATORS = st.sampled_from([[], ["--derivation"], ["--plus"], ["--minus"],
                             ["--plus", "--minus"]])


@st.composite
def alien_invocations(draw):
    """argv lists over the alien grammar."""
    argv = ["alien", f"--input={draw(mostly(['euler', 'stirling'], ['x']))}"]
    if draw(mostly([True], [False])):
        argv.append(f"--omega={draw(OMEGAS)}")
    argv += draw(OPERATORS)
    prec = draw(SUM_PRECS)
    if prec is not None:
        argv.append(f"--prec={prec}")
    return argv


# Letters and words: exact texts that parse (zero among them), and texts
# that do not; orders inside and outside the ceilings, kept small enough
# that an accepted mould or series stays cheap.
LETTERS = mostly(["1", "1,2", "-1,1/2", "2pii", "1,2pii", "i"],
                 ["0", "1/0", "x", "", ",", "1,,2"])
WORDS = st.one_of(
    st.lists(st.integers(-2, 3), max_size=3).map(
        lambda parts: ",".join(map(str, parts))),
    st.sampled_from(["x", "1,,2", "(1,2)", "1.5"]))
ORDERS = mostly(["0", "2", "4"], ["-1", "101", "x"])
SCALES = mostly(["1/2", "-1", "2pii"], ["1/0", "x"])
L_WORDS = mostly(["1", "1,1", "1,2", "2,1", "-1"], ["0", "0,1", "", "x"])
MOULD_FILES = ["exp", "missing", "directory", "not-json", "not-a-mould"]


@st.composite
def mould_invocations(draw):
    """argv lists over the mould make and mould check grammar; check
    names one of the MOULD_FILES, relative to their directory."""
    if draw(st.booleans()):
        argv = ["mould", "make"]
        argv += draw(st.sampled_from([
            [], ["--unit"], ["--identity"], ["--unit", "--identity"],
            [f"--exp-scale={draw(SCALES)}"]]))
        if draw(st.booleans()):
            argv.append(f"--letters={draw(LETTERS)}")
        if draw(st.booleans()):
            argv.append(f"--order={draw(ORDERS)}")
    else:
        name = draw(st.sampled_from(MOULD_FILES))
        argv = ["mould", "check", f"--file={name}"]
        argv += draw(st.lists(st.sampled_from(
            ["--symmetral", "--alternal", "--symmetrel", "--alternel"]),
            max_size=4, unique=True))
    return argv


@st.composite
def hyperlog_invocations(draw):
    """argv lists over the hyperlog grammar: series coefficients for a
    word, numeric L values, or neither or both of the two."""
    argv = ["hyperlog"]
    target = draw(st.sampled_from(["word", "L", "both", "neither"]))
    if target in ("word", "both"):
        argv.append(f"--word={draw(WORDS)}")
        if draw(st.booleans()):
            argv.append(f"--letters={draw(WORDS)}")
        if draw(st.booleans()):
            argv.append(f"--order={draw(ORDERS)}")
    if target in ("L", "both"):
        argv.append(f"--L={draw(L_WORDS)}")
        prec = draw(SUM_PRECS)
        if prec is not None:
            argv.append(f"--prec={prec}")
    return argv


@pytest.fixture(scope="module")
def mould_files(tmp_path_factory):
    """The files that fuzzed mould check invocations read, by name."""
    root = tmp_path_factory.mktemp("moulds")
    m = exp_scale_mould(parse_scalar("1/2")).materialize(Alphabet([1]), 3)
    (root / "exp").write_text(json.dumps(mould_to_json(m)))
    (root / "directory").mkdir()
    (root / "not-json").write_text("{")
    (root / "not-a-mould").write_text(json.dumps({"alphabet": 3}))
    return root


def assert_contract(argv):
    """Exit 0, 1 or 2 with exactly one JSON object on standard output,
    nothing on standard error and no traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    assert err == ""
    parsed = strict_json(out)
    assert isinstance(parsed, dict)
    return parsed


# a positive decay margin below the least double, about 6e-325
TINY_MARGIN = ["sum", "--input=euler", "--theta=pi/2", "--z=1e-308"]


class TestFuzz:
    """Every invocation of the grammar exits 0, 1 or 2 with exactly one
    JSON object on standard output, whatever the exit code, an empty
    standard error and no traceback."""

    @settings(max_examples=60, deadline=None)
    @given(invocations())
    def test_one_json_object_and_a_contract_exit_code(self, argv):
        assert_contract(argv)

    @settings(max_examples=30, deadline=None)
    @given(sum_invocations())
    # diagnostics figures beyond the double range: a quadrature error
    # above it and a tail bound below it, and a margin below it
    @example(["sum", "--input=euler", "--theta=0", "--z=2", "--moment=300"])
    @example(["sum", "--input=euler", "--theta=0", "--z=0.01",
              "--moment=100"])
    @example(TINY_MARGIN)
    def test_sum_grammar(self, argv):
        out = assert_contract(argv)
        if argv == TINY_MARGIN:
            assert mpmath.mpf(out["details"]["margin"]) > 0

    @settings(max_examples=30, deadline=None)
    @given(alien_invocations())
    def test_alien_grammar(self, argv):
        assert_contract(argv)

    @settings(max_examples=30, deadline=None)
    @given(mould_invocations())
    def test_mould_grammar(self, mould_files, argv):
        assert_contract([a.replace("--file=", f"--file={mould_files}/")
                         for a in argv])

    @settings(max_examples=30, deadline=None)
    @given(hyperlog_invocations())
    def test_hyperlog_grammar(self, argv):
        assert_contract(argv)
