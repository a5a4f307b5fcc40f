"""Every name that the package or one of its modules exports resolves, and
the package runs on numpy and the standard library alone."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fracdual

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["fracdual"] + [f"fracdual.{info.name}" for info in pkgutil.iter_modules(fracdual.__path__)]

# Runs one derivative and one dual command in a fresh interpreter and
# prints every top-level module they loaded beyond the allowed ones; what
# the interpreter loaded at startup (site's .pth hooks) is not counted.
_LOADED_BEYOND_NUMPY = """
import sys
startup = set(sys.modules)
import fracdual.cli
problem, out = sys.argv[1:]
for args in (
    ["derivative", "--f", "tan", "--alpha", "0.4", "--h", "0.01", "--points", "0.1,0.5", "--out", out],
    ["dual", "--problem", problem, "--out", out],
):
    assert fracdual.cli.main(args) == 0, args
allowed = set(sys.stdlib_module_names) | {"numpy", "fracdual"}
print(sorted({name.partition(".")[0] for name in set(sys.modules) - startup} - allowed))
"""


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_cli_loads_no_module_beyond_numpy_and_the_standard_library(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    problem = ROOT / "src" / "fracdual" / "fixtures" / "linear_x12.prob"
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BEYOND_NUMPY, str(problem), str(tmp_path / "out.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
