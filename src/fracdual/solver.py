"""Implicit collocation solver for quasilinear fractional equations.

An equation sum_i K_i(u,x) D^(alpha_i) u(x) + f(x,u) = g(u(x)) on [0, T]
is discretized on the uniform grid x_k = k*h: one row per initial
condition, then one collocation row per remaining node, with the
fractional derivatives represented by the Toeplitz operators of the
chosen method. The square nonlinear system is solved globally (all nodes
at once) by damped Newton with a forward-difference Jacobian J, each step
an O(m^2) blocked QR of banded J^T, forward in x from column strips of J.
One pass over the terms gives the residual, the products the Jacobian
reuses and the rounding floor. A solve holds O(m) per term and O(m *
_BLOCK) for the step. The step h is the only setting: Newton's are the
constants below, so both methods run under one solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .caputo import FractionalOrder, GridFunction, MethodKind
from .expr import EvalDomainError, ExpressionTree, evaluate
from .operators import operator_for
from .stencils import STENCILS

__all__ = [
    "TermSpec",
    "EquationSpec",
    "SolverConfig",
    "Solution",
    "ResidualDomainError",
    "grid_size",
    "assemble_residual",
    "solve",
]

# Converged means max|r| <= NEWTON_TOL * (1 + max|u|), or max|r| at the
# rounding floor of its own evaluation: eps times the absolute-value sum
# that the residual cancellation runs over, with this safety factor.
NEWTON_TOL = 1e-12
RESIDUAL_FLOOR_FACTOR = 256.0
# Iterations per starting guess; the line search halves the step from 1 to this.
NEWTON_MAX_ITER = 50
DAMPING_MIN = 1.0 / 64.0
# J[i, j] = 0 for j > i + _BANDWIDTH: central rows reach i + 2, and the
# one-sided row 1 reaches A[1, 4] (by-parts, and substitution at n = 2).
_BANDWIDTH = 3
_BLOCK = 32  # rows of J per QR panel of the Newton step
# Most steps m a grid may have. A solve allocates a few (m + 1)-float
# arrays per term before its first Newton step, so this keeps each at 8 MB
# while leaving ten times the m = 10^5 the step is meant to reach.
MAX_GRID_STEPS = 10**6

class ResidualDomainError(ValueError):
    """Expression domain error during residual assembly, tagged with the node."""

    def __init__(self, message: str, node: Optional[int]):
        where = f" at node {node}" if node is not None else ""
        super().__init__(f"{message}{where}")
        self.node = node


@dataclass(frozen=True)
class TermSpec:
    """One fractional term K(x,u) * D^alpha u."""

    coeff: ExpressionTree
    order: FractionalOrder


@dataclass(frozen=True)
class EquationSpec:
    """sum of terms + forcing(x, u) = rhs(u), with initial data at x = 0.

    The forcing may depend on u as well as x; the Newton Jacobian
    differentiates it in u like the coefficients and the right-hand side.
    """

    terms: tuple[TermSpec, ...]
    forcing: ExpressionTree
    rhs: ExpressionTree
    interval_end: float
    ic_u0: float
    ic_du0: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms:
            raise ValueError("equation needs at least one fractional term")
        for name, value in (("interval_end", self.interval_end), ("ic_u0", self.ic_u0), ("ic_du0", self.ic_du0)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.interval_end <= 0.0:
            raise ValueError(f"interval end must be positive, got {self.interval_end}")
        if self.n_ic > 2:
            raise ValueError(f"orders above 2 need a u''(0) condition, got {self.max_alpha}")
        needs_du0 = self.max_alpha > 1.0
        if needs_du0 and self.ic_du0 is None:
            raise ValueError("orders above 1 require the first-derivative initial condition")
        if not needs_du0 and self.ic_du0 is not None:
            raise ValueError("first-derivative initial condition given but max order is <= 1")

    @property
    def max_alpha(self) -> float:
        return max(t.order.alpha for t in self.terms)

    @property
    def n_ic(self) -> int:
        return max(t.order.n for t in self.terms)


@dataclass(frozen=True)
class SolverConfig:
    h: float

    def __post_init__(self):
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step must be positive and finite, got {self.h}")


@dataclass(frozen=True)
class Solution:
    """How one method's solve ended. ``failure`` says why it did not
    converge; u and the residual are None when no start could be evaluated."""

    u: Optional[GridFunction]
    residual: Optional[GridFunction]
    newton_iters: int
    method: MethodKind
    failure: Optional[str] = None

    @property
    def converged(self) -> bool:
        return self.failure is None


def grid_size(T: float, h: float) -> int:
    """Number of steps m with m*h = T; validates divisibility and 8 <= m <= MAX_GRID_STEPS."""
    if not (math.isfinite(T) and math.isfinite(h) and h > 0.0):
        raise ValueError(f"need a finite interval end and a positive finite step, got T={T}, h={h}")
    ratio = T / h
    if not ratio < MAX_GRID_STEPS + 0.5:
        raise ValueError(f"grid too fine: T/h = {ratio:.6g}, over {MAX_GRID_STEPS} steps")
    m = int(round(ratio))
    if m < 8:
        raise ValueError(f"grid too coarse: T/h = {ratio}, need at least 8 steps")
    if abs(ratio - m) > 1e-8 * max(1.0, m):
        raise ValueError(f"step {h} does not divide interval {T}")
    return m


def _tree_eval(tree, x, u, node_offset: int) -> np.ndarray:
    """``evaluate``, with domain errors naming their node."""
    try:
        return evaluate(tree, x, u)
    except EvalDomainError as exc:
        node = None if exc.index is None else exc.index + node_offset
        raise ResidualDomainError(str(exc), node) from exc


class _Workspace:
    """Operators and grid of one solve, shared across its Newton iterations."""

    def __init__(self, eq: EquationSpec, cfg: SolverConfig, method: MethodKind):
        if not isinstance(method, MethodKind):
            raise ValueError(f"method must be a MethodKind, got {method!r}")
        self.eq = eq
        m, h = grid_size(eq.interval_end, cfg.h), cfg.h
        self.m = m
        self.x = np.arange(m + 1) * h
        self.n_ic = eq.n_ic
        self.ops = [operator_for(method, t.order, h, m) for t in eq.terms]
        self.xc = self.x[self.n_ic :]
        # u(0) and u'(0) rows on u[:3], divided by the denominator after the product
        fwd = STENCILS[(1, "forward")]
        self.ic_rows = np.array([(1.0, 0.0, 0.0), fwd.coefficients][: self.n_ic])
        self.ic_denom = np.array([1.0, fwd.denominator * h][: self.n_ic])
        self.ic_vals = np.array([eq.ic_u0, eq.ic_du0][: self.n_ic], dtype=float)

    def _parts(self, uc: np.ndarray):
        """f, g and every K_i at the collocation nodes, given u there."""
        eq, xc, nic = self.eq, self.xc, self.n_ic
        f = _tree_eval(eq.forcing, xc, uc, nic)
        g = _tree_eval(eq.rhs, xc, uc, nic)
        return f, g, [_tree_eval(t.coeff, xc, uc, nic) for t in eq.terms]

    def residual_terms(self, u: np.ndarray):
        """The residual of u, the parts it was formed from (f, g, every K_i
        and every product A_i @ u), and the scale its sums cancel over: the
        same sums taken of absolute values."""
        nic, au = self.n_ic, np.abs(u)
        r = np.empty(self.m + 1)
        r[:nic] = self.ic_rows @ u[:3] / self.ic_denom - self.ic_vals
        ic_scale = np.abs(self.ic_rows) @ au[:3] / self.ic_denom + np.abs(self.ic_vals)
        f, g, Ks = self._parts(u[nic:])
        # overflow makes a non-finite residual, which the Newton loop rejects
        with np.errstate(over="ignore", invalid="ignore"):
            products = [A @ u for A in self.ops]
            acc, scale = f - g, np.abs(f) + np.abs(g)
            for K, A, Au in zip(Ks, self.ops, products):
                acc = acc + K * Au[nic:]
                scale = scale + np.abs(K) * (abs(A) @ au)[nic:]
        r[nic:] = acc
        return r, (f, g, Ks, products), max(float(np.max(scale)), float(np.max(ic_scale)))

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.residual_terms(u)[0]

    def jacobian(self, u: np.ndarray, parts: tuple):
        """Forward-difference Jacobian J, column step 1e-7*(1+|u_j|), as the
        accessor columns(k, l0, l1) = J[k:, l0:l1]: a new array per call, in
        column-major order so that the step reads J^T by rows.

        Expression trees act pointwise, so the finite-difference column j
        differs from the linear part only in its diagonal entry; the
        closed form below reproduces the column-by-column differences
        without m+1 full residual evaluations. ``parts`` are those of
        ``residual_terms(u)``.
        """
        nic, m = self.n_ic, self.m
        epsc = 1e-7 * (1.0 + np.abs(u[nic:]))
        f, g, Ks, products = parts
        fp, gp, Kps = self._parts(u[nic:] + epsc)
        diag = np.zeros(m + 1)
        for K, Kp, A, Au in zip(Ks, Kps, self.ops, products):
            diag[nic:] += (Kp - K) / epsc * Au[nic:] + (Kp - K) * A.diagonal()[nic:]
        diag[nic:] += (fp - f) / epsc - (gp - g) / epsc
        Ks = [np.r_[np.zeros(nic), K] for K in Ks]  # the condition rows are written over
        ic = np.zeros((nic, m + 1))
        ic[:, :3] = self.ic_rows / self.ic_denom[:, None]

        def columns(k: int, l0: int, l1: int) -> np.ndarray:
            blocks = [A.columns(k, l0, l1) for A in self.ops]
            for K, block in zip(Ks, blocks):
                block *= K[k:, None]
            strip = blocks[0]
            for block in blocks[1:]:
                strip += block
            i = np.arange(max(k, l0), min(l1, m + 1))
            strip[i - k, i - l0] += diag[i]
            strip[: max(nic - k, 0)] = ic[k:, l0:l1]
            return strip

        return columns


def _solve_upper_banded(columns, r: np.ndarray) -> np.ndarray:
    """x with J x = r, for J[i, j] = 0 when j > i + _BANDWIDTH, given
    columns(k, l0, l1) = J[k:, l0:l1] as an array the step may write over.

    J^T has lower bandwidth _BANDWIDTH, so the Householder QR of a panel
    of its _BLOCK columns spans _BANDWIDTH more rows. In J's terms, panel
    k's Q turns the strip J[k:, k:e + _BANDWIDTH] into columns k..e-1 of
    the lower triangular L = J Q, plus _BANDWIDTH columns carried to the
    next panel. The forward substitution L z = r runs alongside and uses
    each column of L once, so only the Qs are kept, and x = Q z applies
    them in reverse. A zero row of J leaves a zero on L's diagonal and
    raises LinAlgError.
    """
    n = r.size
    z, acc, Qs = np.empty(n), np.zeros(n), []  # acc[k:] = L[k:, :k] @ z[:k]
    carried = np.empty((0, n))  # L[k:, k:k + _BANDWIDTH]^T
    for k in range(0, n, _BLOCK):
        e = min(k + _BLOCK, n)
        T = columns(k, k, min(e + _BANDWIDTH, n)).T
        T[: len(carried)] = carried
        Q, R = np.linalg.qr(T[:, : e - k], mode="complete")
        # L[k:e, k:e] = R^T, solved reversed: upper triangular, so a zero
        # on its diagonal stays an exact zero pivot
        z[k:e] = np.linalg.solve(R[: e - k].T[::-1, ::-1], (r[k:e] - acc[k:e])[::-1])[::-1]
        LT = Q.T @ T[:, e - k :]
        acc[e:] += z[k:e] @ LT[: e - k]
        carried = LT[e - k :]
        Qs.append(Q)
    for k, Q in zip(reversed(range(0, n, _BLOCK)), reversed(Qs)):
        z[k : k + len(Q)] = Q @ z[k : k + len(Q)]
    return z


def assemble_residual(
    eq: EquationSpec, cfg: SolverConfig, method: MethodKind, candidate: GridFunction
) -> GridFunction:
    """Residual vector of ``candidate``: IC rows, then collocation rows.

    Entry 0 is u_0 minus the initial value; with a first-derivative
    condition, entry 1 is its forward-difference mismatch; entries
    n_ic..m are sum_i K_i(x_k,u_k) D^(alpha_i)u(x_k) + f(x_k,u_k) - g(u_k).
    """
    ws = _Workspace(eq, cfg, method)
    if candidate.m != ws.m or not math.isclose(candidate.h, cfg.h, rel_tol=1e-12):
        raise ValueError(
            f"candidate grid (h={candidate.h}, m={candidate.m}) does not match config (h={cfg.h}, m={ws.m})"
        )
    return GridFunction(cfg.h, ws.residual(np.asarray(candidate.values, dtype=float)))


def _converged(r: np.ndarray, u: np.ndarray, scale: float) -> bool:
    limit = NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))
    return float(np.max(np.abs(r))) <= max(limit, RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * scale)


def _newton(ws: _Workspace, u0: np.ndarray):
    """Damped Newton from u0: (u, r, iterations, failure), where failure is
    None once converged and otherwise says why the iteration stopped. A start
    whose residual cannot be formed leaves no iterate: u = r = None."""
    u = u0.copy()
    try:
        r, parts, scale = ws.residual_terms(u)
    except ResidualDomainError as exc:
        return None, None, 0, str(exc)
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        return None, None, 0, f"non-finite starting residual at node {bad[0]}"
    iters = 0
    for _ in range(NEWTON_MAX_ITER):
        if _converged(r, u, scale):
            return u, r, iters, None
        try:
            delta = _solve_upper_banded(ws.jacobian(u, parts), -r)
        except ResidualDomainError as exc:  # the probe at u + eps left the domain
            return u, r, iters, f"Jacobian probe: {exc}"
        except np.linalg.LinAlgError:
            return u, r, iters, "singular Newton step"
        rnorm = float(np.max(np.abs(r)))
        lam = 1.0
        accepted = None
        domain_blocked = True
        while lam >= DAMPING_MIN:
            trial = u + lam * delta
            try:
                terms = ws.residual_terms(trial)
            except ResidualDomainError:
                lam *= 0.5
                continue
            domain_blocked = False
            if np.isfinite(terms[0]).all() and float(np.max(np.abs(terms[0]))) < rnorm:
                accepted = (trial, *terms)
                break
            lam *= 0.5
        if accepted is None:
            blocked = "expression domain error at every damping level"
            return u, r, iters, blocked if domain_blocked else "line search found no decrease"
        u, r, parts, scale = accepted
        iters += 1
    return u, r, iters, None if _converged(r, u, scale) else f"no convergence in {NEWTON_MAX_ITER} iterations"


def solve(eq: EquationSpec, cfg: SolverConfig, method: MethodKind) -> Solution:
    """Damped-Newton solve of the collocation system.

    Every outcome is a Solution: one that did not converge carries the
    reason in ``failure`` and its last iterate, or no iterate when no start
    could be evaluated. The initial guess is the constant ic_u0, retried
    once from the linear profile ic_u0 + ic_du0*x when a first-derivative
    condition exists; the last start that left an iterate is reported.
    """
    ws = _Workspace(eq, cfg, method)
    guesses = [np.full(ws.m + 1, float(eq.ic_u0))]
    if eq.ic_du0 is not None and eq.ic_du0 != 0.0:
        guesses.append(eq.ic_u0 + eq.ic_du0 * ws.x)
    results = []
    for guess in guesses:
        results.append(_newton(ws, guess))
        if results[-1][3] is None:
            break
    u, r, iters, failure = next((res for res in reversed(results) if res[0] is not None), results[-1])
    return Solution(
        u=None if u is None else GridFunction(cfg.h, u),
        residual=None if r is None else GridFunction(cfg.h, r),
        newton_iters=iters,
        method=method,
        failure=failure,
    )
