"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every check runs at its stated tolerance. Checks that measure properties
the implemented discretizations provably cannot deliver are still
asserted as stated (see the failure details for the measured values).
"""

import math

import numpy as np

from conftest import fixture_report

from fracdual.bench import TABLE1, derivative_table, run_figures, run_table1, run_table2
from fracdual.caputo import (
    FractionalOrder,
    GridFunction,
    caputo_byparts,
    caputo_substitution,
)
from fracdual.cli import main
from fracdual.dual import compare_to_exact, convergence_study, dual_solve, inter_method_difference
from fracdual.expr import evaluate, parse_expression, to_string
from fracdual.operators import fractional_operators
from fracdual.special_functions import gamma
from fracdual.stencils import STENCILS, apply_stencil


class Checks:
    def __init__(self):
        self.rows = []

    def add(self, name, ok, detail=""):
        self.rows.append((name, bool(ok), detail))

    def finish(self, criterion: str):
        passed = sum(1 for _, ok, _ in self.rows if ok)
        total = len(self.rows)
        status = "PASS" if passed == total else "FAIL"
        print(f"CRITERION {criterion}: {status} ({passed}/{total} checks)")
        failures = [f"  {name}: {detail}" for name, ok, detail in self.rows if not ok]
        assert passed == total, f"criterion {criterion}: {total - passed} failing checks\n" + "\n".join(failures)


def test_criterion_1_derivative_table_reproduction():
    checks = Checks()
    for check in run_table1():
        checks.add(check.name, check.ok, check.line())
    computed = derivative_table("tan", 0.4, 1e-4, [row[0] for row in TABLE1])
    for (x, _tay, _s, err_s_ref, _b, err_b_ref), row in zip(TABLE1, computed):
        for label, measured, ref in (("subst", row[3], err_s_ref), ("byparts", row[5], err_b_ref)):
            ratio = measured / ref
            checks.add(
                f"error column {label} x={x}",
                0.2 <= ratio <= 5.0,
                f"measured {measured:.3g} vs printed {ref:.3g} (ratio {ratio:.2f})",
            )
    checks.finish("1")


def test_criterion_2_quadrature_orders():
    checks = Checks()
    h_list = [4e-4, 2e-4, 1e-4]
    for fname in ("tan", "x^1.2", "exp"):
        for alpha in (0.4, 0.9, 1.7):
            for column, label in ((3, "subst"), (5, "byparts")):

                def err(h, idx=column, f=fname, a=alpha):
                    value = derivative_table(f, a, h, [0.3])[0][idx]
                    return value if math.isfinite(value) else None

                rows = convergence_study(err, h_list)
                orders = [r.observed_order for r in rows[1:]]
                ok = all(o is not None and 1.5 <= o <= 2.5 for o in orders)
                detail = ", ".join("gap" if o is None else f"{o:.2f}" for o in orders)
                checks.add(f"{fname} alpha={alpha} {label}", ok, f"orders [{detail}]")
    checks.finish("2")


def test_criterion_3_benchmark_solution_table():
    checks = Checks()
    for check in run_table2():
        checks.add(check.name, check.ok, check.line())
    checks.finish("3")


def test_criterion_4_manufactured_quadratic_table():
    checks = Checks()
    problem, report = fixture_report("quasilinear_tan_exact")
    for label, sol in (("byparts", report.sol_byparts), ("subst", report.sol_subst)):
        err = compare_to_exact(sol, problem.exact).sup
        checks.add(f"sup error {label}", err <= 5e-4, f"{err:.2e} <= 5e-4")
    diff = inter_method_difference(report.sol_subst, report.sol_byparts).sup
    checks.add("inter-method sup difference", diff <= 1e-6, f"{diff:.2e} <= 1e-6")
    checks.add(
        "verdict Reliable under default threshold",
        report.verdict.reliable,
        f"verdict={report.verdict} deviation={report.deviation:.2e} threshold={report.threshold:.2e}",
    )
    checks.finish("4")


def test_criterion_5_linear_classification_suite():
    checks = Checks()
    for check in run_figures():
        checks.add(check.name, check.ok, check.line())
    checks.finish("5")


def test_criterion_6_semilinear_suite():
    checks = Checks()
    _problem, report = fixture_report("semilinear_unstable")
    checks.add("unstable fixture not Reliable", not report.verdict.reliable, f"verdict={report.verdict}")

    _problem, report = fixture_report("semilinear_stable")
    checks.add("stable fixture Reliable", report.verdict.reliable, f"verdict={report.verdict} dev={report.deviation:.2e} thr={report.threshold:.2e}")

    problem, report = fixture_report("semilinear_cubic")
    checks.add("cubic fixture Reliable", report.verdict.reliable, f"verdict={report.verdict} dev={report.deviation:.2e}")
    for label, sol in (("subst", report.sol_subst), ("byparts", report.sol_byparts)):
        err = compare_to_exact(sol, problem.exact).sup
        checks.add(f"cubic {label} within 5e-4 of x^3", err <= 5e-4, f"{err:.2e}")

    _problem, report = fixture_report("twoterm_sine")
    checks.add("two-term fixture Reliable", report.verdict.reliable, f"verdict={report.verdict} dev={report.deviation:.2e}")
    checks.finish("6")


def test_criterion_7_property_suites(tmp_path):
    checks = Checks()
    rng = np.random.default_rng(123)

    # quadrature linearity to 1e-13
    o = FractionalOrder(0.7)
    h, m = 0.01, 64
    ok = True
    for _ in range(20):
        f, g = rng.normal(size=(2, m + 1))
        a, b = rng.normal(size=2)
        lin = caputo_substitution(GridFunction(h, a * f + b * g), o, m)
        sep = a * caputo_substitution(GridFunction(h, f), o, m) + b * caputo_substitution(GridFunction(h, g), o, m)
        ok &= abs(lin - sep) <= 1e-13 * max(1.0, abs(lin))
    checks.add("quadrature linearity 1e-13", ok)

    # derivative of a constant
    zero = GridFunction(h, np.zeros(m + 1))
    checks.add(
        "derivative of constant exactly 0 (quadratures)",
        caputo_substitution(zero, o, m) == 0.0 and caputo_byparts(0.0, zero, o, m) == 0.0,
    )
    const = np.full(m + 1, 2.2)
    sup = max(float(np.max(np.abs(A @ const))) for A in fractional_operators(o, h, m))
    checks.add("operator annihilates constants", sup <= 1e-9, f"{sup:.2e}")

    # substitution telescoping exactness on f = x^n/n!
    ok = True
    for alpha in (0.4, 1.6):
        oo = FractionalOrder(alpha)
        ones = GridFunction(h, np.ones(m + 1))
        t = m * h
        expected = t ** (oo.n - oo.effective) / gamma(oo.n + 1 - oo.effective)
        ok &= abs(caputo_substitution(ones, oo, m) - expected) <= 1e-13 * expected
    checks.add("substitution telescoping exactness", ok)

    # by-parts exactness on degree-n polynomials
    ok = True
    for alpha, c in ((0.4, 3.0), (1.6, -1.5)):
        oo = FractionalOrder(alpha)
        t = m * h
        expected = c * t ** (oo.n - oo.effective) / gamma(oo.n + 1 - oo.effective)
        got = caputo_byparts(c, zero, oo, m)
        ok &= abs(got - expected) <= 1e-13 * abs(expected)
    checks.add("by-parts exactness on degree-n polynomials", ok)

    # stencil polynomial exactness
    ok = True
    for (d, placement), kind in STENCILS.items():
        hs = 0.05
        for p in range(kind.formal_order + d):
            xs = 1.5 + (np.arange(kind.width) - kind.node) * hs
            expected = 0.0
            if p >= d:
                cc = 1.0
                for i in range(d):
                    cc *= p - i
                expected = cc * 1.5 ** (p - d)
            ok &= abs(apply_stencil(d, placement, xs**p, hs) - expected) <= 1e-7 * max(1.0, abs(expected))
    checks.add("stencil polynomial exactness", ok)

    # gamma recurrence to 1e-12
    xs = rng.uniform(0.1, 20.0, size=1000)
    rel = np.abs(gamma(xs + 1.0) - xs * gamma(xs)) / np.abs(gamma(xs + 1.0))
    checks.add("gamma recurrence 1e-12", float(rel.max()) <= 1e-12, f"max rel {rel.max():.2e}")

    # parser round-trip
    ok = True
    for text in ("x^2 + 1/100", "5*u + tan(u)", "-40*x^4", "cos(x^2)*200/(11*gamma(0.1))*x^1.1"):
        tree = parse_expression(text)
        again = parse_expression(to_string(tree))
        ok &= again == tree
        pts = rng.uniform(0.05, 0.95, size=(100, 2))
        ok &= all(evaluate(again, x, u) == evaluate(tree, x, u) for x, u in pts)
    checks.add("parser round-trip", ok)

    # CSV determinism
    args = ["derivative", "--f", "tan", "--alpha", "0.4", "--h", "0.001", "--points", "0.1:0.5:0.1"]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    checks.add("CSV determinism", out1.read_bytes() == out2.read_bytes())

    # verdict threshold monotonicity
    problem, base = fixture_report("linear_x12")
    taus = sorted([base.deviation * 1.2, base.deviation * 3, base.deviation * 17])
    verdicts = [dual_solve(problem.equation, problem.config(), threshold=t).verdict.reliable for t in taus]
    monotone = all(b or not a for a, b in zip(verdicts, verdicts[1:]))
    checks.add("verdict threshold monotonicity", verdicts[0] and monotone, str(verdicts))

    checks.finish("7")
