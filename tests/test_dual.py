import math
import re
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdual import dual
from fracdual.bench import FIXTURES, derivative_table
from fracdual.caputo import FractionalOrder, GridFunction, MethodKind
from fracdual.dual import (
    VerdictKind,
    compare_to_exact,
    convergence_study,
    default_threshold,
    dual_solve,
    inter_method_difference,
)
from fracdual.expr import parse_expression
from fracdual.problem_file import parse_problem_text
from fracdual.solver import EquationSpec, Solution, SolverConfig, TermSpec, solve, solve_in


def _fake_solution(h, values, method=MethodKind.SUBSTITUTION):
    arr = np.asarray(values, dtype=float)
    return Solution(
        u=GridFunction(h, arr),
        residual=GridFunction(h, np.zeros_like(arr)),
        newton_iters=1,
        method=method,
    )


def test_default_threshold():
    assert default_threshold(0.01) == pytest.approx(2.0 * 0.01**0.75)
    assert default_threshold(1e-3) == pytest.approx(2.0 * 1e-3**0.75)
    assert default_threshold(1e-30) == 1e-10  # absolute floor


class TestVerdicts:
    def test_reliable_fixture(self, solved_fixture):
        problem, report = solved_fixture("linear_x12")
        assert report.verdict.kind is VerdictKind.RELIABLE
        assert report.deviation <= report.threshold
        assert report.sol_subst.converged and report.sol_byparts.converged

    def test_unreliable_fixture(self, solved_fixture):
        # sqrt(x) solution: both Newton iterations converge, but to wildly
        # different grids; deviation lands far above the threshold
        _problem, report = solved_fixture("linear_sqrt")
        assert not report.verdict.reliable
        assert report.deviation >= 10.0 * report.threshold

    def test_method_failed_fixture(self, solved_fixture):
        _problem, report = solved_fixture("semilinear_unstable")
        assert report.verdict.kind is VerdictKind.METHOD_FAILED
        assert len(report.verdict.failed) >= 1
        assert "MethodFailed" in str(report.verdict)

    def test_domain_failure_reports_no_deviation(self):
        # ln(x - 2) is undefined on all of [0, 1]: no start can be
        # evaluated, so neither method has an iterate
        eq = EquationSpec(
            terms=(TermSpec(parse_expression("1"), FractionalOrder(0.5)),),
            forcing=parse_expression("ln(x - 2)"),
            rhs=parse_expression("u"),
            interval_end=1.0,
            ic_u0=0.0,
        )
        report = dual_solve(eq, SolverConfig(h=0.1))
        assert report.verdict.kind is VerdictKind.METHOD_FAILED
        assert report.verdict.failed == (MethodKind.SUBSTITUTION, MethodKind.BYPARTS)
        assert math.isnan(report.deviation)
        assert not report.verdict.reliable
        for sol in (report.sol_subst, report.sol_byparts):
            assert sol.u is None and sol.residual is None and sol.failure.endswith(" at node 1")

    def test_overflowing_forcing_reports_no_deviation(self):
        # exp(1000*x) overflows on the grid: the starting residual is not
        # finite, so neither method has an iterate to compare
        eq = EquationSpec(
            terms=(TermSpec(parse_expression("1"), FractionalOrder(0.5)),),
            forcing=parse_expression("exp(1000*x)"),
            rhs=parse_expression("u"),
            interval_end=1.0,
            ic_u0=0.0,
        )
        report = dual_solve(eq, SolverConfig(h=0.1))
        assert report.verdict.failed == (MethodKind.SUBSTITUTION, MethodKind.BYPARTS)
        assert math.isnan(report.deviation)

    def test_reliable_iff_converged_and_within(self, solved_fixture):
        _problem, report = solved_fixture("linear_x12")
        both_ok = report.sol_subst.converged and report.sol_byparts.converged
        assert report.verdict.reliable == (both_ok and report.deviation <= report.threshold)

    def test_threshold_monotonicity(self, solved_fixture):
        problem, base = solved_fixture("linear_x12")
        thresholds = [base.deviation * f for f in (1.5, 4.0, 40.0)]
        verdicts = [
            dual_solve(problem.equation, problem.config(), threshold=t).verdict.reliable
            for t in thresholds
        ]
        assert verdicts[0]
        assert all(verdicts), "reliable at a threshold must stay reliable at larger ones"

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        eq = EquationSpec(
            terms=(TermSpec(parse_expression("1"), FractionalOrder(0.5)),),
            forcing=parse_expression("sin(x)"),
            rhs=parse_expression("u"),
            interval_end=1.0,
            ic_u0=0.0,
        )
        with pytest.raises(ValueError, match=f"threshold must be positive and finite, got {threshold}"):
            dual_solve(eq, SolverConfig(h=0.1), threshold=threshold)

    def test_explicit_threshold_override(self, solved_fixture):
        problem, base = solved_fixture("linear_x12")
        tight = dual_solve(problem.equation, problem.config(), threshold=base.deviation / 10.0)
        assert tight.verdict.kind is VerdictKind.UNRELIABLE


class TestComparisons:
    def test_compare_to_exact_zero_on_exact_samples(self):
        h, m = 0.1, 10
        x = np.arange(m + 1) * h
        sol = _fake_solution(h, x**2)
        report = compare_to_exact(sol, parse_expression("x^2"))
        assert report.sup == 0.0
        assert np.all(report.errors == 0.0)

    def test_inter_method_difference_symmetry(self):
        h = 0.1
        a = _fake_solution(h, np.linspace(0, 1, 11))
        b = _fake_solution(h, np.linspace(0, 2, 11) ** 1.5, MethodKind.BYPARTS)
        ab = inter_method_difference(a, b)
        ba = inter_method_difference(b, a)
        assert np.array_equal(ab.errors, ba.errors)
        assert ab.sup == ba.sup

    def test_inter_method_difference_zero_on_identical(self):
        a = _fake_solution(0.1, np.linspace(0, 1, 11))
        assert inter_method_difference(a, a).sup == 0.0

    def test_grid_mismatch_rejected(self):
        a = _fake_solution(0.1, np.zeros(11))
        b = _fake_solution(0.05, np.zeros(21))
        with pytest.raises(ValueError):
            inter_method_difference(a, b)


    def test_no_iterate_rejected(self):
        eq = EquationSpec(
            terms=(TermSpec(parse_expression("1"), FractionalOrder(0.5)),),
            forcing=parse_expression("ln(x - 2)"),
            rhs=parse_expression("u"),
            interval_end=1.0,
            ic_u0=0.0,
        )
        failed = solve(eq, SolverConfig(h=0.1), MethodKind.SUBSTITUTION)
        ok = _fake_solution(0.1, np.zeros(11), MethodKind.BYPARTS)
        with pytest.raises(ValueError, match=r"^substitution has no iterate to compare: ln.* at node 1$"):
            compare_to_exact(failed, parse_expression("x"))
        for a, b in ((failed, ok), (ok, failed)):
            with pytest.raises(ValueError, match="^substitution has no iterate"):
                inter_method_difference(a, b)


class TestConvergenceStudy:
    def test_requires_three_halving_steps(self):
        with pytest.raises(ValueError):
            convergence_study(lambda h: h, [0.1, 0.05])
        with pytest.raises(ValueError):
            convergence_study(lambda h: h, [0.1, 0.06, 0.03])

    def test_quadrature_order_tan(self):
        # D^0.4 tan at x = 0.3: both quadratures show the n+1-alpha = 1.6
        # endpoint rate, inside the 1.5..2.5 band
        for method_idx in (3, 5):  # columns: err_subst, err_byparts
            def err(h, idx=method_idx):
                return derivative_table("tan", 0.4, h, [0.3])[0][idx]

            rows = convergence_study(err, [4e-4, 2e-4, 1e-4])
            orders = [r.observed_order for r in rows[1:]]
            assert all(o is not None and 1.5 <= o <= 2.5 for o in orders)

    def test_equation_order_quadratic(self, solved_fixture):
        # manufactured -x^2 problem: the solve error follows the dominant
        # 2 - 0.9 endpoint rate (about 1.1), not the nominal second order
        problem, _ = solved_fixture("quasilinear_tan_exact")

        def err(h):
            sol = solve(problem.equation, SolverConfig(h=h), method=MethodKind.SUBSTITUTION)
            if not sol.converged:
                return None
            return compare_to_exact(sol, problem.exact).sup

        rows = convergence_study(err, [4e-3, 2e-3, 1e-3])
        orders = [r.observed_order for r in rows[1:]]
        assert all(o is not None and 1.0 <= o <= 1.4 for o in orders)

    def test_gap_propagation(self):
        calls = []

        def err(h):
            calls.append(h)
            return None if len(calls) == 2 else h**2

        rows = convergence_study(err, [0.4, 0.2, 0.1])
        assert rows[1].error is None and rows[1].observed_order is None
        assert rows[2].observed_order is None  # previous row was a gap

    def test_saturation_flag(self):
        rows = convergence_study(lambda h: 1e-16, [0.4, 0.2, 0.1])
        assert all(r.saturated for r in rows)
        assert all(r.observed_order is None for r in rows)

    def test_exact_solution_case_saturates(self):
        # zero-discretization-error case: u = x is reproduced exactly, the
        # residual errors are pure round-off and must be flagged, not
        # turned into noise orders
        from fracdual.expr import parse_expression
        from fracdual.solver import EquationSpec, TermSpec
        from fracdual.caputo import FractionalOrder
        import math

        eq = EquationSpec(
            terms=(TermSpec(parse_expression("1"), FractionalOrder(0.5)),),
            forcing=parse_expression("x - 2/sqrt(pi)*x^0.5"),
            rhs=parse_expression("u"),
            interval_end=1.0,
            ic_u0=0.0,
        )
        exact = parse_expression("x")

        def err(h):
            sol = solve(eq, SolverConfig(h=h), method=MethodKind.SUBSTITUTION)
            return compare_to_exact(sol, exact).sup

        rows = convergence_study(err, [0.04, 0.02, 0.01])
        assert all(r.saturated for r in rows)
        assert all(r.observed_order is None for r in rows)


def test_error_column_matches_published_scale(solved_fixture):
    # manufactured -x^2 problem at h = 1e-3: the by-parts error at x = 0.1
    # is published as 5.1e-5; ours lands within a few percent of it
    problem, report = solved_fixture("quasilinear_tan_exact")
    err = compare_to_exact(report.sol_byparts, problem.exact)
    k = round(0.1 / problem.h)
    assert err.errors[k] == pytest.approx(5.1e-5, rel=0.3)


def test_forcing_padded_with_a_thousand_zero_terms_solves_the_same(solved_fixture):
    # each "+0*x" adds an exact zero, so the padded forcing, a tree 1,000
    # operators deep, gives u bit for bit
    _problem, report = solved_fixture("linear_x12")
    text = resources.files("fracdual.fixtures").joinpath("linear_x12.prob").read_text("utf-8")
    padded = re.sub(r'^(forcing = ".*)"$', lambda mt: mt.group(1) + "+0*x" * 1000 + '"', text, flags=re.M)
    assert padded.count("+0*x") == 1000
    problem = parse_problem_text(padded)
    again = dual_solve(problem.equation, problem.config(), threshold=problem.threshold)
    for sol, want in ((again.sol_subst, report.sol_subst), (again.sol_byparts, report.sol_byparts)):
        assert np.array_equal(sol.u.values, want.u.values)
        assert sol.newton_iters == want.newton_iters


# (verdict, substitution's (Newton steps, failure), by-parts' ...) of each
# shipped fixture at its own h; by-parts starts from substitution's u
_FIXTURE_NEWTON = {
    "linear_x12": ("Reliable", (1, None), (1, None)),
    "linear_sqrt": ("Unreliable", (1, None), (1, None)),
    "linear_quarter": ("Reliable", (1, None), (1, None)),
    "linear_hundredth": ("Reliable", (1, None), (1, None)),
    "quasilinear_tan": ("Reliable", (4, None), (2, None)),
    "quasilinear_tan_exact": ("Reliable", (4, None), (2, None)),
    "twoterm_sine": ("Reliable", (4, None), (2, None)),
    "semilinear_unstable": (
        "MethodFailed(substitution,byparts)",
        (2, "line search found no decrease"),
        (1, "line search found no decrease"),
    ),
    "semilinear_stable": ("Reliable", (3, None), (2, None)),
    "semilinear_cubic": ("Reliable", (6, None), (2, None)),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_newton_counts_and_failures_are_pinned(name, solved_fixture):
    _problem, report = solved_fixture(name)
    sols = report.sol_subst, report.sol_byparts
    got = (str(report.verdict), *((sol.newton_iters, sol.failure) for sol in sols))
    assert got == _FIXTURE_NEWTON[name]


def test_dual_report_carries_both_solutions(solved_fixture):
    _problem, report = solved_fixture("linear_x12")
    assert report.sol_subst.method is MethodKind.SUBSTITUTION
    assert report.sol_byparts.method is MethodKind.BYPARTS
    assert report.threshold == default_threshold(0.01)


def _cold_dual(problem, monkeypatch):
    """dual_solve with by-parts started cold, as if it were not seeded."""
    monkeypatch.setattr(dual, "solve_in", lambda ws, start=None: solve_in(ws))
    return dual_solve(problem.equation, problem.config(), threshold=problem.threshold)


# On these linear fixtures the cold start u = 0 makes the Jacobian's
# forward difference of rhs = u exact; at the seed it carries ~3e-10
# rounding, so the first seeded step stops just above the convergence
# test and a second follows.
_SEEDED_SECOND_STEP = ("linear_x12", "linear_sqrt")


@pytest.mark.parametrize("name", [f for f in FIXTURES if f != "semilinear_unstable"])
def test_seeding_byparts_changes_only_where_newton_starts(name, solved_fixture, monkeypatch):
    problem, report = solved_fixture(name)
    cold = _cold_dual(problem, monkeypatch)
    assert report.sol_subst.converged
    seeded, unseeded = report.sol_byparts, cold.sol_byparts
    scale = max(1.0, float(np.max(np.abs(unseeded.u.values))))
    assert np.max(np.abs(seeded.u.values - unseeded.u.values)) / scale <= 1e-6
    assert report.verdict == cold.verdict
    assert seeded.newton_iters <= unseeded.newton_iters + (name in _SEEDED_SECOND_STEP)


def test_failed_substitution_leaves_byparts_cold(solved_fixture):
    problem, report = solved_fixture("semilinear_unstable")
    cold = solve(problem.equation, problem.config(), MethodKind.BYPARTS)
    seeded = report.sol_byparts
    assert not report.sol_subst.converged
    assert seeded.u.values.tobytes() == cold.u.values.tobytes()
    assert seeded.residual.values.tobytes() == cold.residual.values.tobytes()
    assert (seeded.newton_iters, seeded.failure) == (cold.newton_iters, cold.failure)


# Expressions that overflow, divide by zero or leave their domain on
# small grids, next to harmless ones.
_POOL = ("0", "1", "x", "u", "x*u + 1", "sin(x)", "u^2", "exp(u)", "exp(1000*x)", "1/u", "ln(u)", "gamma(u)")


@st.composite
def _problem_texts(draw):
    pick = st.sampled_from(_POOL)
    alphas = draw(st.lists(st.sampled_from((0.3, 0.5, 1.0, 1.2, 1.5, 2.0)), min_size=1, max_size=2))
    lines = []
    for i, alpha in enumerate(alphas):
        lines += [f'term.{i}.coeff = "{draw(pick)}"', f"term.{i}.alpha = {alpha}"]
    lines += [f'forcing = "{draw(pick)}"', f'rhs = "{draw(pick)}"', "T = 1.0"]
    lines += [f"h = {draw(st.sampled_from((1 / 8, 1 / 10, 1 / 16)))}"]
    lines += [f"ic.u0 = {draw(st.sampled_from((0.0, 1.0, -0.5)))}"]
    if max(alphas) > 1.0:
        lines += [f"ic.du0 = {draw(st.sampled_from((0.0, 2.0)))}"]
    return "\n".join(lines) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_problem_texts())
# a 9-point grid, narrower than one Newton panel of 32 columns
@example(
    'term.0.coeff = "x*u + 1"\nterm.0.alpha = 0.5\nforcing = "sin(x)"\nrhs = "u^2"\nT = 1.0\nh = 0.125\nic.u0 = 0.0\n'
)
def test_dual_solve_reports_on_any_parsed_problem(text):
    problem = parse_problem_text(text)
    report = dual_solve(problem.equation, problem.config())
    failed = tuple(s.method for s in (report.sol_subst, report.sol_byparts) if not s.converged)
    assert report.verdict.failed == failed
    assert (report.verdict.kind is VerdictKind.METHOD_FAILED) == bool(failed)
    if not failed:
        assert report.verdict.reliable == (report.deviation <= report.threshold)
