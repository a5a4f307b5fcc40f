"""Pinned reproduction suite against published reference values.

The golden numbers below are 10-digit benchmark values from the
reference data this solver is validated against: a fractional-derivative
table for tan (order 0.4, step 1e-4), and two solution tables for the
quasilinear fixtures at step 1e-3. ``reproduce`` re-runs each pinned
computation and reports PASS/FAIL per datum.

Each datum is one ``CheckResult``. Most pass when the measured value is
within a stated tolerance of the expected one; sup errors, residuals and
inter-method differences expect 0.0. The rest compare a verdict with the
expected Reliable or not. ``FIGURES`` tables the figures' linear
fixtures: which verdict each should get and which method alone is near
the exact solution, so that either method alone may be wrong.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Union

import numpy as np

from .caputo import FractionalOrder, byparts_sum, step_powers, substitution_sum
from .dual import compare_to_exact, dual_solve, inter_method_difference
from .problem_file import ProblemFile, parse_problem_text
from .profiles import get_profile
from .special_functions import gamma

__all__ = [
    "CheckResult",
    "TABLE1",
    "TABLE2",
    "TABLE3",
    "load_fixture",
    "FIXTURES",
    "derivative_table",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_figures",
    "run_target",
    "TARGETS",
]

# x, series oracle, substitution, |err| subst, by-parts, |err| by-parts
TABLE1 = (
    (0.1, 0.2824821555, 0.2824821407, 1.5e-8, 0.2824821402, 1.5e-8),
    (0.2, 0.4344599870, 0.4344599557, 3.1e-8, 0.4344599549, 3.2e-8),
    (0.3, 0.5680457063, 0.5680456557, 5.1e-8, 0.5680456546, 5.2e-8),
    (0.4, 0.6996788619, 0.6996787873, 7.5e-8, 0.6996787858, 7.6e-8),
    (0.5, 0.8392329447, 0.8392328384, 1.1e-7, 0.8392328364, 1.1e-7),
    (0.6, 0.9959906149, 0.9959904642, 1.5e-7, 0.9959904614, 1.5e-7),
)
TABLE1_ALPHA = 0.4
TABLE1_H = 1e-4
# Most samples m = x/h a derivative row takes: a bound on its time (under
# 0.2 s at 10^7), far above the 6*10^5 of the h = 1e-6 rows.
MAX_DERIVATIVE_SAMPLES = 10**7
# Nodes per block of a derivative row, which holds no array of m samples.
# Of 2048, 8192, 32768 and 131072, 8192 ran the h = 1e-6 rows fastest.
_ROW_BLOCK = 8192
# Most points a start:stop:step range may name; each point is one row.
MAX_TABLE_POINTS = 10**5

# x, by-parts solution, substitution solution (quasilinear_tan, h = 1e-3)
TABLE2 = (
    (0.1, -0.0061330982, -0.0061330846),
    (0.2, -0.0212821228, -0.0212821387),
    (0.3, -0.0431124645, -0.0431125027),
    (0.4, -0.0700231242, -0.0700231812),
    (0.5, -0.1007208712, -0.1007209446),
    (0.6, -0.1341161406, -0.1341162285),
    (0.7, -0.1692773586, -0.1692774592),
    (0.8, -0.2054041267, -0.2054042388),
    (0.9, -0.2418082833, -0.2418084054),
    (1.0, -0.2778991084, -0.2778992392),
)
TABLE2_VALUE_TOL = 1e-5
TABLE2_RESIDUAL_TOL = 1e-6

# x, exact -x^2, by-parts, subst (quasilinear_tan_exact, h = 1e-3)
TABLE3 = (
    (0.1, -0.01, -0.0100507844, -0.0100508224),
    (0.2, -0.04, -0.0400897392, -0.0400897712),
    (0.3, -0.09, -0.0901232321, -0.0901232606),
    (0.4, -0.16, -0.1601525607, -0.1601525867),
    (0.5, -0.25, -0.2501785451, -0.2501785691),
    (0.6, -0.36, -0.3602021066, -0.3602021290),
    (0.7, -0.49, -0.4902245812, -0.4902246024),
    (0.8, -0.64, -0.6402483126, -0.6402483332),
    (0.9, -0.81, -0.8102786790, -0.8102786996),
    (1.0, -1.00, -1.0003337914, -1.0003338137),
)
TABLE3_SUP_ERROR_TOL = 5e-4
TABLE3_DIFF_TOL = 1e-6

LINEAR_PROXIMITY_TOL = 2e-2
# The figures' examples and counterexamples: fixture, expected Reliable,
# whether the two methods must separate by ten thresholds, then each
# error check in print order as (method label, near): near passes when the
# method's sup error vs exact is within LINEAR_PROXIMITY_TOL ("error"),
# not near when it is above it ("invalid").
FIGURES = (
    ("linear_x12", True, False, (("subst", True), ("byparts", True))),
    ("linear_sqrt", False, True, ()),
    ("linear_quarter", False, False, (("byparts", True), ("substitution", False))),
    ("linear_hundredth", False, False, (("substitution", True), ("byparts", False))),
)

FIXTURES = (
    "linear_x12",
    "linear_sqrt",
    "linear_quarter",
    "linear_hundredth",
    "quasilinear_tan",
    "quasilinear_tan_exact",
    "twoterm_sine",
    "semilinear_unstable",
    "semilinear_stable",
    "semilinear_cubic",
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: Union[float, str]
    expected: Union[float, str]
    tol: Optional[float]
    ok: bool

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        if isinstance(self.measured, float) and isinstance(self.expected, float):
            body = f"measured={self.measured:.12g} expected={self.expected:.12g}"
            if self.tol is not None:
                body += f" tol={self.tol:g} |diff|={abs(self.measured - self.expected):.3g}"
        else:
            body = f"measured={self.measured} expected={self.expected}"
        return f"{status} {self.name}: {body}"


def load_fixture(name: str) -> ProblemFile:
    text = resources.files("fracdual.fixtures").joinpath(f"{name}.prob").read_text("utf-8")
    return parse_problem_text(text)


def _row_rules(profile, order: FractionalOrder, h: float, m: int) -> tuple[float, float]:
    """Substitution and by-parts values at t = m*h, summed over blocks of nodes x_k0..x_k1.

    A non-finite f^(n+1) sample makes by-parts nan; one of f^(n), both.
    """
    nan = float("nan")
    p = order.n - order.effective
    sub = byp = 0.0
    byp_ok = True
    for k0 in range(0, m, _ROW_BLOCK):
        k1 = min(k0 + _ROW_BLOCK, m)
        xs = np.arange(k0, k1 + 1) * h
        with np.errstate(over="ignore"):  # an overflowing sample is inf, and its rule nan
            gn, gp = (np.asarray(g, dtype=float) for g in profile.derivative((order.n, order.n + 1), xs))
            gp = gp[:-1]
        if not np.isfinite(gn).all():
            return nan, nan
        byp_ok = byp_ok and bool(np.isfinite(gp).all())
        u = step_powers(p, h, m - np.arange(k0, k1 + 1, dtype=float))
        sub += substitution_sum(gn, u)
        if byp_ok:
            byp += byparts_sum(gp, u[:-1], h, float(gn[0]) if k0 == 0 else None)
    scale = gamma(order.n + 1 - order.effective)
    return float(sub / scale), (float(byp / scale) if byp_ok else nan)


def derivative_table(profile_name: str, alpha: float, h: float, points):
    """Rows (x, oracle, subst, err_subst, byparts, err_byparts).

    Derivative samples come from the profile's analytic derivatives so
    the table isolates pure quadrature error.
    """
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be positive and finite, got {h}")
    profile = get_profile(profile_name)
    order = FractionalOrder(alpha)
    rows = []
    for x in points:
        if not math.isfinite(x):
            raise ValueError(f"point must be finite, got {x}")
        ratio = x / h
        if not ratio <= MAX_DERIVATIVE_SAMPLES:
            raise ValueError(
                f"point {x} at step {h} needs m = x/h = {ratio:.6g} samples, over {MAX_DERIVATIVE_SAMPLES}"
            )
        m = int(round(ratio))
        if m < 1:
            raise ValueError(f"point {x} is below the step {h}: the rules need x >= h")
        if abs(ratio - m) > 1e-8 * m:  # in steps, as solver.grid_size
            raise ValueError(f"point {x} is not on the step-{h} grid")
        sub, byp = _row_rules(profile, order, h, m)
        oracle = profile.oracle(order, float(x))
        rows.append((float(x), oracle, sub, abs(sub - oracle), byp, abs(byp - oracle)))
    return rows


def _within(name: str, measured: float, expected: float, tol: float) -> CheckResult:
    """Passes when |measured - expected| <= tol; sup errors and diffs expect 0.0."""
    return CheckResult(name, measured, expected, tol, abs(measured - expected) <= tol)


def _verdict(name: str, report, reliable: bool) -> CheckResult:
    expected = "Reliable" if reliable else "not Reliable"
    return CheckResult(name, str(report.verdict), expected, None, report.verdict.reliable == reliable)


def _methods(report):
    """(label, solution) for each method of a dual report, in print order."""
    return (("byparts", report.sol_byparts), ("substitution", report.sol_subst))


def _dual_report(fixture: str):
    problem = load_fixture(fixture)
    return problem, dual_solve(problem.equation, problem.config(), threshold=problem.threshold)


def run_table1() -> list[CheckResult]:
    computed = derivative_table("tan", TABLE1_ALPHA, TABLE1_H, [row[0] for row in TABLE1])
    checks = []
    for (x, _tay, sub_ref, _es, byp_ref, _eb), row in zip(TABLE1, computed):
        checks.append(_within(f"table1 substitution x={x}", row[2], sub_ref, 5e-8))
        checks.append(_within(f"table1 byparts x={x}", row[4], byp_ref, 5e-8))
    return checks


def run_table2() -> list[CheckResult]:
    _problem, report = _dual_report("quasilinear_tan")
    h = report.sol_subst.u.h
    checks = []
    for x, *refs in TABLE2:
        for (label, sol), ref in zip(_methods(report), refs):
            v = float(sol.u.values[int(round(x / h))])
            checks.append(_within(f"table2 {label} x={x}", v, ref, TABLE2_VALUE_TOL))
    for label, sol in _methods(report):
        sup = float(np.max(np.abs(sol.residual.values)))
        checks.append(_within(f"table2 {label} residual sup", sup, 0.0, TABLE2_RESIDUAL_TOL))
    return checks


def run_table3() -> list[CheckResult]:
    problem, report = _dual_report("quasilinear_tan_exact")
    h = report.sol_subst.u.h
    checks = []
    for label, sol in _methods(report):
        err = compare_to_exact(sol, problem.exact).sup
        checks.append(_within(f"table3 {label} sup error vs exact", err, 0.0, TABLE3_SUP_ERROR_TOL))
    diff = inter_method_difference(report.sol_subst, report.sol_byparts)
    for x, *_ in TABLE3:
        checks.append(_within(f"table3 diff x={x}", float(diff.errors[int(round(x / h))]), 0.0, TABLE3_DIFF_TOL))
    checks.append(_verdict("table3 verdict", report, True))
    return checks


def run_figures() -> list[CheckResult]:
    checks = []
    for fixture, reliable, separated, errors in FIGURES:
        problem, report = _dual_report(fixture)
        name = f"figures {fixture}"
        checks.append(_verdict(f"{name} verdict", report, reliable))
        if separated:
            dev, bar = report.deviation, 10.0 * report.threshold
            checks.append(CheckResult(f"{name} separation (deviation / 10*threshold)", dev, bar, None, dev >= bar))
        for label, near in errors:
            sol = report.sol_subst if label.startswith("subst") else report.sol_byparts
            err = compare_to_exact(sol, problem.exact).sup
            if near:
                checks.append(_within(f"{name} {label} error", err, 0.0, LINEAR_PROXIMITY_TOL))
            else:
                checks.append(CheckResult(f"{name} {label} invalid", err, 0.0, None, err > LINEAR_PROXIMITY_TOL))
    return checks


# The reproduction targets, in the order ``all`` runs them.
TARGETS = {"table1": run_table1, "table2": run_table2, "table3": run_table3, "figures": run_figures}


def run_target(target: str) -> list[CheckResult]:
    if target == "all":
        return [check for run in TARGETS.values() for check in run()]
    if target not in TARGETS:
        raise ValueError(f"unknown reproduction target {target!r}")
    return TARGETS[target]()
