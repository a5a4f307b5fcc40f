"""Solver-level tests: layout, residual assembly, Newton behavior.

The m = 1000 benchmark solves live in the shared conftest cache; this
module checks the machinery on small grids plus the pinned per-solution
values the benchmarks publish.
"""

import dataclasses
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from dense_stencils import operator_of

from fracdual import operators, solver
from fracdual.bench import load_fixture
from fracdual.caputo import FractionalOrder, GridFunction, MethodKind
from fracdual.expr import evaluate, parse_expression
from fracdual.dual import dual_solve
from fracdual.solver import (
    _BANDWIDTH,
    _BLOCK,
    DAMPING_MIN,
    MAX_GRID_STEPS,
    EquationSpec,
    ResidualDomainError,
    SolverConfig,
    TermSpec,
    _newton,
    _solve_upper_banded,
    _workspace,
    assemble_residual,
    grid_size,
    solve,
)
from fracdual.stencils import STENCILS

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

    def test_method_must_be_a_method_kind(self):
        eq, cfg = simple_eq(), SolverConfig(h=0.1)
        with pytest.raises(ValueError, match="method must be a MethodKind, got 'subst'"):
            solve(eq, cfg, "subst")
        with pytest.raises(ValueError, match="method must be a MethodKind, got None"):
            assemble_residual(eq, cfg, None, GridFunction(0.1, np.zeros(11)))

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

    @pytest.mark.parametrize("field", ["T", "u0", "du0"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_equation_rejects_non_finite_data(self, field, value):
        data = {"alpha": 1.5, "T": 1.0, "u0": 0.0, "du0": 0.0, field: value}
        with pytest.raises(ValueError, match=f"finite, got {value}"):
            simple_eq(**data)

    def test_orders_above_two_rejected(self):
        # the equation carries u(0) and u'(0) only
        assert simple_eq(alpha=2.0, du0=0.0).n_ic == 2
        with pytest.raises(ValueError, match=r"u''\(0\)"):
            simple_eq(alpha=2.5, du0=0.0)

    @pytest.mark.parametrize("h", [float("nan"), float("inf"), 0.0, -0.1])
    def test_config_rejects_bad_step(self, h):
        with pytest.raises(ValueError, match=f"positive and finite, got {h}"):
            SolverConfig(h=h)

    @pytest.mark.parametrize("knob", ["newton_tol", "newton_max_iter", "damping_min"])
    def test_step_is_the_only_setting(self, knob):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == ["h"]
        with pytest.raises(TypeError):
            SolverConfig(h=0.1, **{knob: 1.0})


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

    @pytest.mark.parametrize("h, ratio", [(1e-9, "1e+09"), (1e-320, "inf")])
    def test_grid_rejects_too_fine(self, h, ratio):
        assert grid_size(1.0, 1e-6) == MAX_GRID_STEPS
        with pytest.raises(ValueError, match=re.escape(f"grid too fine: T/h = {ratio}, over {MAX_GRID_STEPS} steps")):
            grid_size(1.0, h)

    @pytest.mark.parametrize(
        "T, h, message",
        [
            (float("nan"), 0.1, "got T=nan, h=0.1"),
            (float("inf"), 0.1, "got T=inf, h=0.1"),
            (1.0, float("nan"), "got T=1.0, h=nan"),
            (1.0, 0.0, "got T=1.0, h=0.0"),
        ],
    )
    def test_grid_rejects_non_finite(self, T, h, message):
        with pytest.raises(ValueError, match=message):
            grid_size(T, h)

    def test_layout_single_condition(self):
        eq = simple_eq(T=1.0)
        assert eq.n_ic == 1
        assert grid_size(eq.interval_end, 0.1) == 10

    def test_layout_two_conditions(self):
        eq = simple_eq(alpha=1.5, du0=0.0)
        assert eq.n_ic == 2
        assert grid_size(eq.interval_end, 0.1) == 10

    def test_layout_square(self):
        # n_ic condition rows plus one collocation row per node n_ic..m
        for alpha, h in ((0.3, 0.05), (1.9, 0.02), (1.0, 0.1)):
            eq = simple_eq(alpha=alpha, du0=0.0 if alpha > 1 else None)
            m = grid_size(eq.interval_end, h)
            u = np.linspace(0.0, 1.0, m + 1)
            for method in MethodKind:
                r = assemble_residual(eq, SolverConfig(h=h), method, GridFunction(h, u))
                assert r.values.shape == (m + 1,)
                ws = _workspace(eq, SolverConfig(h=h), method)
                J = ws.jacobian(u, ws.residual_terms(u)[1])[0](0, m + 1, 0, m + 1)
                assert J.shape == (m + 1, m + 1)


class TestResidual:
    def test_constant_candidate_annihilated(self):
        # D^0.5 u = 0 with u identically at the initial value
        eq = simple_eq(u0=2.5)
        cfg = SolverConfig(h=0.05)
        m = grid_size(1.0, 0.05)
        r = assemble_residual(eq, cfg, MethodKind.SUBSTITUTION, GridFunction(0.05, np.full(m + 1, 2.5)))
        assert r.values[0] == 0.0
        assert np.max(np.abs(r.values[1:])) <= 1e-10

    def test_exact_quadratic_candidate_small_residual(self, solved_fixture):
        # manufactured -x^2 problem: plugging the exact solution leaves
        # only discretization error at the collocation nodes
        problem, _report = solved_fixture("quasilinear_tan_exact")
        cfg = SolverConfig(h=problem.h)
        m = grid_size(problem.equation.interval_end, problem.h)
        x = np.arange(m + 1) * problem.h
        r = assemble_residual(
            eq=problem.equation,
            cfg=cfg,
            method=MethodKind.SUBSTITUTION,
            candidate=GridFunction(problem.h, -(x**2)),
        )
        assert np.max(np.abs(r.values[1:])) <= 5e-4

    def test_sqrt_candidate_fails_near_zero(self):
        # expected-failure fixture: reconstructing u' of sqrt(x) near 0 is
        # poor, so the residual concentrates at the left edge
        eq = simple_eq(forcing="sqrt(x) - sqrt(pi)/2", rhs="u")
        cfg = SolverConfig(h=0.01)
        m = grid_size(1.0, 0.01)
        x = np.arange(m + 1) * 0.01
        r = assemble_residual(eq, cfg, MethodKind.SUBSTITUTION, GridFunction(0.01, np.sqrt(x)))
        near_zero = np.max(np.abs(r.values[1:8]))
        interior = np.max(np.abs(r.values[m // 2 :]))
        assert near_zero > 5 * interior
        assert interior < 0.05

    def test_grid_mismatch(self):
        eq = simple_eq()
        cfg = SolverConfig(h=0.05)
        with pytest.raises(ValueError):
            assemble_residual(eq, cfg, MethodKind.SUBSTITUTION, GridFunction(0.05, np.zeros(11)))

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
        ws = _workspace(eq, SolverConfig(h=0.1), method)
        u = 0.2 + 0.5 * ws.x - 0.3 * ws.x**2
        r, parts = ws.residual_terms(u)
        J = ws.jacobian(u, parts)[0](0, ws.m + 1, 0, ws.m + 1)
        fd = np.empty_like(J)
        for j in range(u.size):
            step = 1e-7 * (1.0 + abs(u[j]))
            up = u.copy()
            up[j] += step
            fd[:, j] = (ws.residual_terms(up)[0] - r) / step
        assert np.max(np.abs(J - fd)) <= 1e-7 * np.max(np.abs(J))

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("alpha", [0.6, 1.4])
    def test_jacobian_differences_an_affine_rhs_exactly(self, method, alpha):
        # the probe's step is taken as represented, up - u, so g = u
        # differences to exactly 1 at a nonzero iterate, and with K = 1 the
        # diagonal is the operator's own entry less 1
        eq = simple_eq(alpha=alpha, forcing="sin(x)", rhs="u", du0=0.5 if alpha > 1 else None)
        ws = _workspace(eq, SolverConfig(h=0.05), method)
        u = 0.3 + 0.5 * ws.x - 0.7 * np.sin(3 * ws.x)
        J = ws.jacobian(u, ws.residual_terms(u)[1])[0](0, ws.m + 1, 0, ws.m + 1)
        (A,) = ws.ops
        for k in range(ws.n_ic, ws.m + 1):
            assert J[k, k] == A.block(k, k + 1, k, k + 1)[0, 0] - 1.0

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("n_ic", [1, 2])
    @pytest.mark.parametrize("scale", ["1", "1e-9"], ids=["collocation_row_max", "condition_row_max"])
    def test_rounding_floor_sums_absolute_values(self, method, n_ic, scale):
        # max over rows of |f| + |g| + sum_i |K_i| (|A_i| @ |u|), then the
        # u0 row, then the u'(0) row, written out from the public pieces;
        # scaling f, g and K down by 1e-9 makes a condition row the max
        if n_ic == 1:
            eq = simple_eq(
                alpha=0.6, forcing=f"{scale}*(sin(x) - u^2)", rhs=f"{scale}*tan(u)", u0=0.3, coeff=f"{scale}*exp(x)"
            )
        else:
            eq = EquationSpec(
                terms=(
                    TermSpec(E(f"{scale}*(x*u + 1)"), FractionalOrder(1.3)),
                    TermSpec(E(f"{scale}*cos(u)"), FractionalOrder(0.6)),
                ),
                forcing=E(f"{scale}*(sin(x) + x*u^2)"),
                rhs=E(f"{scale}*(sin(u) - u^2)"),
                interval_end=1.0,
                ic_u0=-0.2,
                ic_du0=0.5,
            )
        h = 0.05
        m = grid_size(eq.interval_end, h)
        x = np.arange(m + 1) * h
        u = -0.2 + 0.5 * x - 0.7 * np.sin(3 * x)
        nic = eq.n_ic
        xc, uc = x[nic:], u[nic:]
        acc = np.abs(evaluate(eq.forcing, xc, uc)) + np.abs(evaluate(eq.rhs, xc, uc))
        for t in eq.terms:
            A = operator_of(method, t.order, h, m).block(0, m + 1, 0, m + 1)
            acc = acc + np.abs(evaluate(t.coeff, xc, uc)) * (np.abs(A) @ np.abs(u))[nic:]
        expected = max(float(np.max(acc)), abs(u[0]) + abs(eq.ic_u0))
        if nic == 2:
            fwd = STENCILS[(1, "forward")]
            du0 = np.abs(fwd.coefficients) @ np.abs(u[:3]) / (fwd.denominator * h)
            expected = max(expected, float(du0) + abs(eq.ic_du0))
        assert (expected == float(np.max(acc))) == (scale == "1")
        ws = _workspace(eq, SolverConfig(h=h), method)
        got = ws.floor_scale(u, ws.residual_terms(u)[1])
        assert abs(got - expected) <= 1e-14 * expected

    def test_domain_error_reports_node(self):
        eq = simple_eq(rhs="ln(u)")
        cfg = SolverConfig(h=0.1)
        with pytest.raises(ResidualDomainError) as err:
            assemble_residual(eq, cfg, MethodKind.SUBSTITUTION, GridFunction(0.1, np.zeros(11)))
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
            again = rebuild(problem.equation, SolverConfig(h=problem.h), sol.method, sol.u)
            assert np.array_equal(again.values, sol.residual.values)

    def test_converged_residual_bound(self, solved_fixture):
        problem, report = solved_fixture("linear_x12")
        sol = report.sol_subst
        sup_u = float(np.max(np.abs(sol.u.values)))
        assert np.max(np.abs(sol.residual.values)) <= 1e-9 * (1 + sup_u)

    def test_iteration_limit_keeps_the_last_iterate(self, monkeypatch):
        monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 1)
        problem = load_fixture("quasilinear_tan")
        cfg = problem.config()
        sol = solve(problem.equation, cfg, MethodKind.SUBSTITUTION)
        assert (sol.newton_iters, sol.failure) == (1, "no convergence in 1 iterations")
        ws = _workspace(problem.equation, cfg, MethodKind.SUBSTITUTION)
        start = np.full(ws.m + 1, problem.equation.ic_u0)
        assert not np.array_equal(sol.u.values, start)
        assert np.array_equal(sol.residual.values, ws.residual_terms(sol.u.values)[0])
        assert np.max(np.abs(sol.residual.values)) < np.max(np.abs(ws.residual_terms(start)[0]))

    def test_non_convergence_is_data(self, solved_fixture):
        _problem, report = solved_fixture("semilinear_unstable")
        assert not report.sol_subst.converged or not report.sol_byparts.converged
        # best iterate is still a finite grid function
        assert np.isfinite(report.sol_subst.u.values).all()

    def test_domain_error_at_the_start_leaves_no_iterate(self):
        # ln(x - 2) is undefined on the whole grid, so no start can be evaluated
        eq = simple_eq(forcing="ln(x - 2)", rhs="0")
        sol = solve(eq, SolverConfig(h=0.1), method=MethodKind.SUBSTITUTION)
        assert sol.u is None and sol.residual is None
        assert not sol.converged and sol.newton_iters == 0
        assert sol.failure.startswith("ln") and sol.failure.endswith(" at node 1")

    @pytest.mark.parametrize(
        "forcing, failure",
        [
            ("gamma(u)", "gamma: pole at 0.0 at node 1"),
            ("gamma(x - 0.5)", "gamma: pole at 0.0 at node 5"),
            ("ln(u)", "ln of a non-positive value at node 1"),
        ],
    )
    def test_domain_failure_names_one_node(self, forcing, failure):
        # x = 0.5 is node 5 at h = 0.1; nodes count from x = 0
        sol = solve(simple_eq(forcing=forcing, rhs="u"), SolverConfig(h=0.1), MethodKind.SUBSTITUTION)
        assert sol.u is None and sol.failure == failure

    def test_overflowing_starting_residual_is_a_domain_failure(self):
        # exp(1000*x) overflows from x = 0.71 on: node 8 at h = 0.1
        eq = simple_eq(forcing="exp(1000*x)", rhs="u")
        ws = _workspace(eq, SolverConfig(h=0.1), MethodKind.SUBSTITUTION)
        message = "non-finite starting residual at node 8"
        assert _newton(ws, np.zeros(ws.m + 1)) == (None, None, 0, message)
        sol = solve(eq, SolverConfig(h=0.1), MethodKind.SUBSTITUTION)
        assert (sol.u, sol.residual, sol.newton_iters, sol.failure) == (None, None, 0, message)

    def test_domain_error_at_every_damping_level_keeps_the_last_iterate(self):
        # by-parts takes 5 steps; from the 5th iterate every damped trial
        # leaves ln's domain, so the solve ends on that iterate
        eq = simple_eq(alpha=1.0, coeff="ln(u)", forcing="ln(u)", rhs="u^2", u0=1.0)
        cfg = SolverConfig(h=0.1)
        ws = _workspace(eq, cfg, MethodKind.BYPARTS)
        u, r, iters, failure = _newton(ws, np.ones(ws.m + 1))
        assert (iters, failure) == (5, "expression domain error at every damping level")
        delta = _solve_upper_banded(*ws.jacobian(u, ws.residual_terms(u)[1]), -r)
        lam = 1.0
        while lam >= DAMPING_MIN:
            with pytest.raises(ResidualDomainError):
                ws.residual_terms(u + lam * delta)
            lam *= 0.5
        sol = solve(eq, cfg, MethodKind.BYPARTS)
        assert (sol.newton_iters, sol.failure) == (iters, failure)
        assert np.array_equal(sol.u.values, u) and np.array_equal(sol.residual.values, r)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_domain_error_in_the_jacobian_probe_keeps_the_start(self, method):
        # sqrt(1 - u) is defined at the start u = 1, but the Jacobian's
        # probe at u + 1e-7*(1 + |u|) is not
        eq = simple_eq(forcing="sqrt(1 - u)", rhs="u", u0=1.0)
        sol = solve(eq, SolverConfig(h=0.1), method)
        assert sol.failure == "Jacobian probe: sqrt of a negative value at node 1"
        assert sol.newton_iters == 0 and np.array_equal(sol.u.values, np.ones(11))

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_linear_guess_rescues_failed_constant_guess(self, method):
        # Newton from u = 0 fails for both methods; from u = 2x it converges
        eq = simple_eq(alpha=1.2, rhs="exp(u)", du0=2.0)
        cfg = SolverConfig(h=0.02)
        ws = _workspace(eq, cfg, method)
        assert _newton(ws, np.zeros(ws.m + 1))[3] is not None
        _u, _r, iters, failure = _newton(ws, 2.0 * ws.x)
        assert failure is None
        sol = solve(eq, cfg, method)
        assert sol.converged
        assert sol.newton_iters == iters

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_start_that_cannot_be_evaluated_falls_back_to_the_cold_start(self, method):
        # ln(u) is undefined at every node of the start u = -1, defined at
        # the cold start u = 1; the exact solution is u = 1 + x
        eq = simple_eq(forcing="ln(1 + x) - 2*sqrt(x/pi)", rhs="ln(u)", u0=1.0)
        cfg = SolverConfig(h=0.1)
        assert _newton(_workspace(eq, cfg, method), np.full(11, -1.0))[0] is None
        cold = solve(eq, cfg, method)
        seeded = solve(eq, cfg, method, start=np.full(11, -1.0))
        assert cold.converged
        assert seeded.u.values.tobytes() == cold.u.values.tobytes()
        assert (seeded.newton_iters, seeded.failure) == (cold.newton_iters, cold.failure)

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_start_at_the_root_takes_no_step(self, method):
        eq, cfg = load_fixture("quasilinear_tan").equation, SolverConfig(h=0.01)
        cold = solve(eq, cfg, method)
        seeded = solve(eq, cfg, method, start=cold.u.values)
        assert seeded.newton_iters == 0 and seeded.converged
        assert seeded.u.values.tobytes() == cold.u.values.tobytes()

    def test_start_must_match_the_grid(self):
        with pytest.raises(ValueError, match="start must hold 11 node values"):
            solve(simple_eq(), SolverConfig(h=0.1), MethodKind.SUBSTITUTION, start=np.zeros(10))

    def test_no_method_rejected(self):
        with pytest.raises(TypeError):
            solve(simple_eq(), SolverConfig(h=0.1))
        with pytest.raises(ValueError, match="MethodKind"):
            solve(simple_eq(), SolverConfig(h=0.1), None)
        with pytest.raises(ValueError, match="MethodKind"):
            assemble_residual(simple_eq(), SolverConfig(h=0.1), None, GridFunction(0.1, np.zeros(11)))

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("name", ["quasilinear_tan", "twoterm_sine"])
    def test_solve_memory_is_linear_in_m(self, name, method, h):
        # each operator holds O(m) numbers and the Newton step O(m) per
        # column of its panels, so a solve peaks at a few hundred
        # (m+1)-vectors, not at an (m+1)^2 Jacobian
        eq, cfg = load_fixture(name).equation, SolverConfig(h=h)
        m = grid_size(eq.interval_end, cfg.h)
        tracemalloc.start()
        try:
            assert solve(eq, cfg, method).converged
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * (m + 1) * 8


def test_dual_solve_assembles_each_kernel_once(monkeypatch):
    # three terms: three kernels for both methods, and at most one abs(rev)
    # kernel per term however many floor tests run
    kernels, floors = [], Counter()

    class Counted(operators._Kernel):
        def __init__(self, rev):
            super().__init__(rev)
            kernels.append(self)

    def floor_scale(ws, *args):
        floors[ws] += 1
        return original_floor(ws, *args)

    original_floor = solver._Workspace.floor_scale
    monkeypatch.setattr(operators, "_Kernel", Counted)
    monkeypatch.setattr(solver._Workspace, "floor_scale", floor_scale)
    problem = load_fixture("quasilinear_tan")
    assert dual_solve(problem.equation, problem.config()).verdict.reliable
    abs_kernels = [k.__dict__["magnitude"] for k in kernels if "magnitude" in k.__dict__]
    assert len(kernels) - len(abs_kernels) == 3
    assert len(abs_kernels) <= 3
    assert len(floors) == 2 and min(floors.values()) >= 2


def _upper_banded(n, p, seed):
    # J[i, j] = 0 for j > i + p, diagonally dominant so well-conditioned
    rng = np.random.default_rng(seed)
    return np.tril(rng.uniform(-1.0, 1.0, (n, n)), p) / np.sqrt(n) + 2.0 * np.eye(n), rng.uniform(-1.0, 1.0, n)


def _dense_accessors(J):
    # a dense J handed to the step as the Jacobian hands its own
    return (lambda k0, k1, l0, l1: J[k0:k1, l0:l1].copy()), (lambda i, W: W @ J[i:, i - W.shape[1] : i].T)


class TestBandedStep:
    @pytest.mark.parametrize("n", [9, 31, 32, 33, 35, 64, 65, 1001])
    @pytest.mark.parametrize("p", [0, 1, 2, 3])
    def test_matches_dense_solve(self, n, p):
        J, r = _upper_banded(n, p, seed=1000 * n + p)
        x = _solve_upper_banded(*_dense_accessors(J), r)
        backward = np.max(np.abs(J @ x - r)) / (np.max(np.abs(J)) * np.max(np.abs(x)) + np.max(np.abs(r)))
        assert backward <= 1e-14
        assert np.max(np.abs(x - np.linalg.solve(J, r))) <= 1e-12 * np.max(np.abs(x))

    @pytest.mark.parametrize("n", [9, 33, 65])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_singular_jacobian_raises(self, n, where):
        # a zero row of J is a zero column of the factored J^T
        J, r = _upper_banded(n, _BANDWIDTH, seed=n)
        J[{"first": 0, "middle": n // 2, "last": n - 1}[where]] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _solve_upper_banded(*_dense_accessors(J), r)

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("alphas", [(0.6,), (0.6, 0.3), (1.3,), (1.3, 0.6)])
    @pytest.mark.parametrize("m", [8, 33, 36, 100, 1000])
    def test_workspace_step_matches_dense_solve(self, method, alphas, m):
        # at m = 8 and 33 no panel has rows below its head; at 36 panel 0's
        # tail crosses the edge columns at both ends, and at 100 and 1000
        # panel 0's crosses the leading and the last tail the trailing ones.
        # A unit step keeps J's rows on one scale, so that the dense solve
        # is an oracle to 1e-12.
        coeffs = ("2 + sin(x)*u", "1 + cos(x)^2")
        eq = EquationSpec(
            terms=tuple(TermSpec(E(c), FractionalOrder(a)) for c, a in zip(coeffs, alphas)),
            forcing=E("sin(x) + u^2"),
            rhs=E("0"),
            interval_end=float(m),
            ic_u0=0.2,
            ic_du0=0.5 if alphas[0] > 1.0 else None,
        )
        ws = _workspace(eq, SolverConfig(h=1.0), method)
        u = 0.2 + 0.5 * np.sin(ws.x)
        r, parts = ws.residual_terms(u)
        block, below = ws.jacobian(u, parts)
        delta = _solve_upper_banded(block, below, -r)
        want = np.linalg.solve(block(0, m + 1, 0, m + 1), -r)
        assert np.max(np.abs(delta - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("alphas", [(0.6,), (1.3, 0.6)], ids=["n_ic=1", "n_ic=2"])
    @pytest.mark.parametrize("m", [33, 36, 100, 1000])
    def test_gathered_panel_blocks_match_fresh_blocks(self, method, alphas, m):
        # the step's diagonal blocks, gathered once per term, are bit for bit
        # the blocks formed one at a time; each request gets its own copy
        coeffs = ("2 + sin(x)*u", "1 + cos(x)^2")
        eq = EquationSpec(
            terms=tuple(TermSpec(E(c), FractionalOrder(a)) for c, a in zip(coeffs, alphas)),
            forcing=E("sin(x) + u^2"),
            rhs=E("0"),
            interval_end=1.0,
            ic_u0=0.2,
            ic_du0=0.5 if alphas[0] > 1.0 else None,
        )
        ws = _workspace(eq, SolverConfig(h=1.0 / m), method)
        u = 0.2 + 0.5 * np.sin(ws.x)
        block, _below = ws.jacobian(u, ws.residual_terms(u)[1])
        n = m + 1
        fresh = block(0, n, 0, n)
        for k in range(0, n, _BLOCK):
            f = min(k + _BLOCK + _BANDWIDTH, n)
            panel = block(k, f, k, f)
            assert panel.tobytes() == fresh[k:f, k:f].tobytes()
            panel[:] = 0.0
            assert block(k, f, k, f).tobytes() == fresh[k:f, k:f].tobytes()

    def test_singular_jacobian_is_non_convergence(self, monkeypatch):
        ws = _workspace(simple_eq(forcing="sin(x)"), SolverConfig(h=0.1), MethodKind.BYPARTS)
        jacobian = ws.jacobian

        def singular(u, parts):
            block, below = jacobian(u, parts)

            def zeroed(k0, k1, l0, l1):
                out = block(k0, k1, l0, l1)
                out[np.arange(k0, k1) == 5] = 0.0  # row 5 of J, above every row below() reads
                return out

            return zeroed, below

        monkeypatch.setattr(ws, "jacobian", singular)
        _u, _r, iters, failure = _newton(ws, np.zeros(ws.m + 1))
        assert (iters, failure) == (0, "singular Newton step")

    @pytest.mark.parametrize("method", list(MethodKind))
    def test_vanishing_coefficient_is_a_singular_step(self, method):
        # K = x - 0.5 vanishes at node 5 and nothing else in row 5 depends
        # on u, so that row of J is exactly zero
        ws = _workspace(simple_eq(coeff="x - 0.5", forcing="sin(x)"), SolverConfig(h=0.1), method)
        u = np.zeros(ws.m + 1)
        r, parts = ws.residual_terms(u)
        assert not ws.jacobian(u, parts)[0](5, 6, 0, ws.m + 1).any()
        with pytest.raises(np.linalg.LinAlgError):
            _solve_upper_banded(*ws.jacobian(u, parts), -r)
        _u, _r, iters, failure = _newton(ws, u)
        assert (iters, failure) == (0, "singular Newton step")

    @pytest.mark.parametrize("method", list(MethodKind))
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.3, 2.0])
    @pytest.mark.parametrize("m", [8, 9, 10, 11, 12, 13, 40, 1000])
    def test_bandwidth_is_pinned(self, method, alpha, m):
        # every operator and Jacobian row stops _BANDWIDTH columns right of
        # the diagonal; by-parts row 1 reaches exactly that far
        order = FractionalOrder(alpha)
        A = operator_of(method, order, 1.0 / m, m).block(0, m + 1, 0, m + 1)
        assert not np.triu(A, _BANDWIDTH + 1).any()
        if method is MethodKind.BYPARTS:
            assert A[1, 1 + _BANDWIDTH] != 0.0
        eq = simple_eq(alpha=alpha, coeff="1 + x*u", forcing="u^2", du0=0.5 if alpha > 1.0 else None)
        ws = _workspace(eq, SolverConfig(h=1.0 / m), method)
        assert ws.n_ic == (2 if alpha > 1.0 else 1)
        u = 0.3 + 0.5 * ws.x
        J = ws.jacobian(u, ws.residual_terms(u)[1])[0](0, m + 1, 0, m + 1)
        assert not np.triu(J, _BANDWIDTH + 1).any()
