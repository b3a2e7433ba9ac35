"""Run each script in ``demos/`` and read its verdicts.

A demo prints its checks as lines ending in a verdict: ``True`` or
``False``, or ``ok`` or ``FAIL`` for the relation checks.  Each demo must
finish, print the number of verdicts listed here, and every one of them
must pass.  ``stokes_jump.py`` prints no verdict; it asserts its exact
Stokes constant itself, so finishing is its check.

README's ``python`` block under "Library in five lines" runs too: it
must print the lateral jump of the Euler minor at z = -3, 0.3128213...j,
within its error of 2 pi i e^-3, and the constant term 2 pi i of the
alien operator, exactly.
"""

import pathlib
import re
import runpy

import mpmath
import pytest

from resurgence.scalars import ExactScalar

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"
VERDICTS = {
    "factorial_correction.py": 1,
    "mould_laws.py": 7,
    "multizeta_relations.py": 2,
    "stokes_jump.py": 0,
}
VERDICT = re.compile(r"\b(True|False|ok|FAIL)$")


def test_every_demo_is_listed():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(VERDICTS)


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_demo_runs_and_its_checks_pass(name, capsys):
    prec = mpmath.mp.prec
    try:
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    finally:
        # the demos set the global working precision
        mpmath.mp.prec = prec
    lines = capsys.readouterr().out.splitlines()
    verdicts = [m.group(1) for m in map(VERDICT.search, lines) if m]
    assert len(verdicts) == VERDICTS[name]
    assert set(verdicts) <= {"True", "ok"}


def test_readme_library_example_prints_the_stokes_constant(capsys):
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library in five lines", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    jump, constant = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"\(0\.0 \+ 0\.3128213\d*j\)", jump)
    assert constant == str(ExactScalar.tau(1))
    pair = namespace["pair"]
    exact = 2j * mpmath.pi * mpmath.exp(-3)
    assert abs(pair.jump - exact) <= pair.error_estimate
