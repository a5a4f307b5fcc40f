"""Correctness gate: every operation's output against a recorded reference.

``reference.json`` holds, for every input of every workload pool, what
the library returned when the benchmark was defined:

* a solve: the verdict and u of both methods at x = 0, 0.1, ..., 1.0
  (``null`` for a method that did not converge, whose iterate is not a
  solution);
* a derivative row: the oracle and both rule values.

An operation fails when it raises, returns another verdict, or drifts
beyond the tolerances below. ``MethodFailed`` is a verdict like any
other: where the reference has it, it is the expected result.

Tolerances, relative to max(1, |reference|), set from measurements:

* ``U_TOL`` = 1e-6. Reordering round-off alone (a reordered matvec, or
  two BLAS threads in the LAPACK solve) moves u by up to 3.5e-8 on the
  stiff semilinear fixtures. Scaling the by-parts operator by 1 + 1e-4
  moves u by at least 3e-5 on every converged fixture, and swapping the
  two methods moves it by at least 4e-6 on every input but
  linear_quarter, whose methods agree to 1.4e-9.
* ``ROW_TOL`` = 1e-11. A row is one dot product of up to 6e5 terms;
  reordering it moves the value by under 2e-15, while scaling a rule by
  1 + 1e-8 is caught.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional

U_POINTS = tuple(k / 10 for k in range(11))
U_TOL = 1e-6
ROW_TOL = 1e-11

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def observe_report(report, h: float) -> dict:
    """Verdict and sampled u of both methods of a ``DualReport``."""
    def sampled(sol):
        if not sol.converged:
            return None
        return [float(sol.u.values[int(round(x / h))]) for x in U_POINTS]

    return {
        "verdict": str(report.verdict),
        "u_subst": sampled(report.sol_subst),
        "u_byparts": sampled(report.sol_byparts),
    }


def observe_row(rows) -> dict:
    """Oracle and both rule values of a one-point ``derivative_table``."""
    (row,) = rows
    return {"oracle": float(row[1]), "subst": float(row[2]), "byparts": float(row[4])}


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def _close(value: float, ref: float, tol: float) -> bool:
    if math.isnan(ref):
        return math.isnan(value)
    return math.isfinite(value) and abs(value - ref) <= tol * max(1.0, abs(ref))


def check(observed: dict, expected: Optional[dict]) -> Optional[str]:
    """None when ``observed`` matches ``expected``, else why it does not."""
    if expected is None:
        return "no reference for this input"
    if "verdict" in expected:
        if observed["verdict"] != expected["verdict"]:
            return f"verdict {observed['verdict']} != {expected['verdict']}"
        for field in ("u_subst", "u_byparts"):
            got, ref = observed[field], expected[field]
            if ref is None or got is None:
                if ref is not got:
                    return f"{field} converged={got is not None}, reference {ref is not None}"
                continue
            for x, a, b in zip(U_POINTS, got, ref):
                if not _close(a, b, U_TOL):
                    return f"{field} at x={x}: {a!r} != {b!r}"
        return None
    for field in ("oracle", "subst", "byparts"):
        if not _close(observed[field], expected[field], ROW_TOL):
            return f"{field}: {observed[field]!r} != {expected[field]!r}"
    return None
