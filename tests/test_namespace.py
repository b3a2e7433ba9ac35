"""The flat ``resurgence`` namespace, which reads each name from its
submodule on first use (PEP 562).

Every exported name is the submodule's own object, ``import *`` binds
them all, ``dir`` lists them, an unknown name is an AttributeError, and
the submodules stay importable both ways.  In a fresh interpreter a bare
``import resurgence`` loads no submodule.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import resurgence

ROOT = Path(__file__).parents[1]


def test_every_export_is_its_submodules_object():
    assert resurgence.__all__[-1] == "__version__"
    names = resurgence.__all__[:-1]
    assert names == sorted(set(names))
    for name in names:
        module = importlib.import_module(
            f"resurgence.{resurgence._SOURCE[name]}")
        assert getattr(resurgence, name) is getattr(module, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from resurgence import *", namespace)
    for name in resurgence.__all__:
        assert namespace[name] is getattr(resurgence, name), name


def test_dir_lists_every_export():
    listed = dir(resurgence)
    assert set(resurgence.__all__) <= set(listed)
    assert listed == sorted(listed)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        resurgence.no_such_name
    assert not hasattr(resurgence, "MAX_PREC")


def test_submodules_import_both_ways():
    from resurgence import mzv
    import resurgence.laplace

    assert mzv is sys.modules["resurgence.mzv"]
    assert resurgence.laplace is sys.modules["resurgence.laplace"]
    assert resurgence.ze_eval is mzv.ze_eval


def test_bare_import_loads_no_submodule():
    code = ("import sys, resurgence; "
            "print(sorted(m for m in sys.modules "
            "if m == 'mpmath' or m.startswith('resurgence')))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "['resurgence']"


def test_cli_import_loads_no_work_counts():
    """The command line's first import leaves the work counts, like the
    numeric layer that adds to them, unloaded."""
    code = ("import sys, resurgence.cli; "
            "print('resurgence._work' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split("\n")[0] == "False"
