"""Solver-level tests: layout, residual assembly, Newton behavior.

The m = 1000 benchmark solves live in the shared conftest cache; this
module checks the machinery on small grids plus the pinned per-solution
values the benchmarks publish.
"""

import numpy as np
import pytest

from fracdual.caputo import FractionalOrder, GridFunction, MethodKind
from fracdual.expr import parse_expression
from fracdual.solver import (
    EquationSpec,
    ResidualDomainError,
    SolverConfig,
    SolverDomainError,
    TermSpec,
    _Workspace,
    assemble_residual,
    collocation_layout,
    grid_size,
    solve,
)

E = parse_expression


def simple_eq(alpha=0.5, forcing="0", rhs="0", T=1.0, u0=0.0, du0=None, coeff="1"):
    return EquationSpec(
        terms=(TermSpec(E(coeff), FractionalOrder(alpha)),),
        forcing=E(forcing),
        rhs=E(rhs),
        interval_end=T,
        ic_u0=u0,
        ic_du0=du0,
    )


class TestSpecValidation:
    def test_needs_terms(self):
        with pytest.raises(ValueError):
            EquationSpec(terms=(), forcing=E("0"), rhs=E("0"), interval_end=1.0, ic_u0=0.0)

    def test_du0_required_above_one(self):
        with pytest.raises(ValueError):
            simple_eq(alpha=1.7)

    def test_du0_forbidden_at_or_below_one(self):
        with pytest.raises(ValueError):
            simple_eq(alpha=0.5, du0=0.0)
        with pytest.raises(ValueError):
            simple_eq(alpha=1.0, du0=0.0)  # integer order 1 keeps one condition

    def test_mixed_orders_follow_max(self):
        eq = EquationSpec(
            terms=(
                TermSpec(E("x^2"), FractionalOrder(0.3)),
                TermSpec(E("x"), FractionalOrder(1.7)),
            ),
            forcing=E("0"),
            rhs=E("0"),
            interval_end=1.0,
            ic_u0=0.0,
            ic_du0=0.0,
        )
        assert eq.n_ic == 2


class TestGridAndLayout:
    def test_grid_size(self):
        assert grid_size(1.0, 0.01) == 100
        assert grid_size(1.0, 0.001) == 1000

    def test_grid_rejects_non_divisor(self):
        with pytest.raises(ValueError):
            grid_size(1.0, 0.03)

    def test_grid_rejects_coarse(self):
        with pytest.raises(ValueError):
            grid_size(1.0, 0.2)

    def test_layout_single_condition(self):
        plan = collocation_layout(simple_eq(T=1.0), SolverConfig(h=0.1))
        assert plan.n_ic == 1
        assert list(plan.collocation_nodes) == list(range(1, 11))

    def test_layout_two_conditions(self):
        eq = simple_eq(alpha=1.5, du0=0.0)
        plan = collocation_layout(eq, SolverConfig(h=0.1))
        assert plan.n_ic == 2
        assert list(plan.collocation_nodes) == list(range(2, 11))

    def test_layout_square(self):
        for alpha, h in ((0.3, 0.05), (1.9, 0.02), (1.0, 0.1)):
            eq = simple_eq(alpha=alpha, du0=0.0 if alpha > 1 else None)
            plan = collocation_layout(eq, SolverConfig(h=h))
            assert plan.n_ic + plan.collocation_nodes.size == plan.m + 1

    def test_placement_labels(self):
        plan = collocation_layout(simple_eq(), SolverConfig(h=0.1))
        assert plan.placement(0) == "forward"
        assert plan.placement(1) == "forward"
        assert plan.placement(5) == "central"
        assert plan.placement(9) == "backward"
        assert plan.placement(10) == "backward"


class TestResidual:
    def test_constant_candidate_annihilated(self):
        # D^0.5 u = 0 with u identically at the initial value
        eq = simple_eq(u0=2.5)
        cfg = SolverConfig(h=0.05, method=MethodKind.SUBSTITUTION)
        m = grid_size(1.0, 0.05)
        r = assemble_residual(eq, cfg, GridFunction(0.05, np.full(m + 1, 2.5)))
        assert r.values[0] == 0.0
        assert np.max(np.abs(r.values[1:])) <= 1e-10

    def test_exact_quadratic_candidate_small_residual(self, solved_fixture):
        # manufactured -x^2 problem: plugging the exact solution leaves
        # only discretization error at the collocation nodes
        problem, _report = solved_fixture("quasilinear_tan_exact")
        cfg = SolverConfig(h=problem.h, method=MethodKind.SUBSTITUTION)
        m = grid_size(problem.equation.interval_end, problem.h)
        x = np.arange(m + 1) * problem.h
        r = assemble_residual(eq=problem.equation, cfg=cfg, candidate=GridFunction(problem.h, -(x**2)))
        assert np.max(np.abs(r.values[1:])) <= 5e-4

    def test_sqrt_candidate_fails_near_zero(self):
        # expected-failure fixture: reconstructing u' of sqrt(x) near 0 is
        # poor, so the residual concentrates at the left edge
        eq = simple_eq(forcing="sqrt(x) - sqrt(pi)/2", rhs="u")
        cfg = SolverConfig(h=0.01, method=MethodKind.SUBSTITUTION)
        m = grid_size(1.0, 0.01)
        x = np.arange(m + 1) * 0.01
        r = assemble_residual(eq, cfg, GridFunction(0.01, np.sqrt(x)))
        near_zero = np.max(np.abs(r.values[1:8]))
        interior = np.max(np.abs(r.values[m // 2 :]))
        assert near_zero > 5 * interior
        assert interior < 0.05

    def test_grid_mismatch(self):
        eq = simple_eq()
        cfg = SolverConfig(h=0.05, method=MethodKind.SUBSTITUTION)
        with pytest.raises(ValueError):
            assemble_residual(eq, cfg, GridFunction(0.05, np.zeros(11)))

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_jacobian_matches_residual_differences(self, method):
        # column-by-column forward differences of the residual at the
        # Jacobian's own step; u enters every coefficient, f and g
        eq = EquationSpec(
            terms=(
                TermSpec(E("x*u + 1"), FractionalOrder(1.3)),
                TermSpec(E("exp(x)"), FractionalOrder(0.6)),
            ),
            forcing=E("sin(x) + x*u^2"),
            rhs=E("sin(u) + u^2"),
            interval_end=1.0,
            ic_u0=0.2,
            ic_du0=0.5,
        )
        ws = _Workspace(eq, SolverConfig(h=0.1), method)
        u = 0.2 + 0.5 * ws.x - 0.3 * ws.x**2
        J = ws.jacobian(u)
        r = ws.residual(u)
        fd = np.empty_like(J)
        for j in range(u.size):
            step = 1e-7 * (1.0 + abs(u[j]))
            up = u.copy()
            up[j] += step
            fd[:, j] = (ws.residual(up) - r) / step
        assert np.max(np.abs(J - fd)) <= 1e-7 * np.max(np.abs(J))

    def test_domain_error_reports_node(self):
        eq = simple_eq(rhs="ln(u)")
        cfg = SolverConfig(h=0.1, method=MethodKind.SUBSTITUTION)
        with pytest.raises(ResidualDomainError) as err:
            assemble_residual(eq, cfg, GridFunction(0.1, np.zeros(11)))
        assert err.value.node == 1


class TestSolve:
    def test_linear_x12_substitution(self, solved_fixture):
        problem, report = solved_fixture("linear_x12")
        sol = report.sol_subst
        assert sol.converged
        x = sol.u.x
        assert np.max(np.abs(sol.u.values - x**1.2)) <= 1e-2

    def test_linear_x12_byparts(self, solved_fixture):
        # the boundary-derivative channel limits by-parts on x^1.2 data to
        # a few percent; see the notes on the u''(0+) singularity
        problem, report = solved_fixture("linear_x12")
        sol = report.sol_byparts
        assert sol.converged
        x = sol.u.x
        assert np.max(np.abs(sol.u.values - x**1.2)) <= 5e-2

    def test_benchmark_byparts_endpoint(self, solved_fixture):
        # published value at x = 1.0 is -0.2778991084; the by-parts route
        # lands within 5e-5 of it (substitution within 1e-6)
        _problem, report = solved_fixture("quasilinear_tan")
        byp = report.sol_byparts
        assert byp.converged
        assert abs(byp.u.values[-1] - (-0.2778991084)) <= 5e-5
        assert np.max(np.abs(byp.residual.values)) <= 1e-9

    def test_benchmark_substitution_endpoint(self, solved_fixture):
        _problem, report = solved_fixture("quasilinear_tan_exact")
        sub = report.sol_subst
        assert sub.converged
        assert abs(sub.u.values[-1] - (-1.0003338137)) <= 1e-6

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_u_dependent_forcing_matches_rhs_form(self, method):
        # the same equation with its u terms moved from g into f
        cfg = SolverConfig(h=0.01)
        a = solve(simple_eq(alpha=0.6, forcing="sin(x) - u^2 - tan(u)"), cfg, method=method)
        b = solve(simple_eq(alpha=0.6, forcing="sin(x)", rhs="u^2 + tan(u)"), cfg, method=method)
        assert a.converged and b.converged
        assert a.newton_iters == b.newton_iters
        assert np.max(np.abs(a.u.values - b.u.values)) <= 1e-12

    def test_determinism(self):
        eq = simple_eq(forcing="x^1.2 - 1.2*gamma(0.5)*gamma(1.2)/gamma(1.7)*x^0.7/sqrt(pi)", rhs="u")
        cfg = SolverConfig(h=0.02)
        a = solve(eq, cfg, method=MethodKind.SUBSTITUTION)
        b = solve(eq, cfg, method=MethodKind.SUBSTITUTION)
        assert np.array_equal(a.u.values, b.u.values)
        assert np.array_equal(a.residual.values, b.residual.values)
        assert a.newton_iters == b.newton_iters

    def test_residual_consistency_bitwise(self, solved_fixture):
        from fracdual.solver import assemble_residual as rebuild

        problem, report = solved_fixture("linear_x12")
        for sol in (report.sol_subst, report.sol_byparts):
            cfg = SolverConfig(h=problem.h, method=sol.method)
            again = rebuild(problem.equation, cfg, sol.u)
            assert np.array_equal(again.values, sol.residual.values)

    def test_converged_residual_bound(self, solved_fixture):
        problem, report = solved_fixture("linear_x12")
        sol = report.sol_subst
        sup_u = float(np.max(np.abs(sol.u.values)))
        assert np.max(np.abs(sol.residual.values)) <= 1e-9 * (1 + sup_u)

    def test_non_convergence_is_data(self, solved_fixture):
        _problem, report = solved_fixture("semilinear_unstable")
        assert not report.sol_subst.converged or not report.sol_byparts.converged
        # best iterate is still a finite grid function
        assert np.isfinite(report.sol_subst.u.values).all()

    def test_domain_error_every_level_raises(self):
        eq = simple_eq(forcing="ln(x - 2)", rhs="0")
        cfg = SolverConfig(h=0.1)
        with pytest.raises(SolverDomainError):
            solve(eq, cfg, method=MethodKind.SUBSTITUTION)

    def test_no_method_rejected(self):
        with pytest.raises(ValueError):
            solve(simple_eq(), SolverConfig(h=0.1))
