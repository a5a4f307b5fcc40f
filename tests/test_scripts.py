"""Smoke tests for scripts/: each runs as a subprocess and prints its data rows."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, args, first_field",
    [
        ("classification_sweep.py", ["--fixtures", "linear_x12"], "linear_x12"),
        ("order_study.py", ["--functions", "tan", "--alphas", "0.4", "--h-list", "4e-3,2e-3,1e-3"], "tan"),
    ],
)
def test_script_prints_one_data_row(name, args, first_field):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines()[1:] if line and not line.startswith("-")]
    assert [row.split()[0] for row in rows] == [first_field]


def test_order_study_takes_n_from_the_order():
    # FractionalOrder deviates an integer order just below it: alpha = 1 has n = 1
    proc = run_script("order_study.py", "--functions", "exp", "--alphas", "1.0,2.5", "--h-list", "4e-3,2e-3,1e-3")
    assert proc.returncode == 0, proc.stderr
    assert [row.split()[:3] for row in proc.stdout.splitlines()[1:]] == [["exp", "1.00", "1.00"], ["exp", "2.50", "1.50"]]


def test_order_study_reports_an_unsupported_order_in_one_line():
    # the tan profile stops at the third derivative, which alpha = 2.5 needs past
    proc = run_script("order_study.py", "--functions", "tan", "--alphas", "1.0,2.5", "--h-list", "4e-3,2e-3,1e-3")
    assert proc.returncode == 2
    assert [row.split()[:2] for row in proc.stdout.splitlines()[1:]] == [["tan", "1.00"]]
    assert proc.stderr == "error: tan profile supplies derivatives up to 3, asked for 4\n"
