"""Implicit collocation solver for quasilinear fractional equations.

An equation sum_i K_i(u,x) D^(alpha_i) u(x) + f(x,u) = g(u(x)) on [0, T]
is discretized on the uniform grid x_k = k*h: one row per initial
condition, then one collocation row per remaining node, with the
fractional derivatives represented by the Toeplitz operators of the
chosen method. The square nonlinear system is solved globally (all nodes
at once) by damped Newton with a forward-difference Jacobian J, each step
an O(m^2) blocked QR of banded J^T, forward in x, that forms J only in
blocks at the diagonal and reaches the rest through 4-column products.
One pass over the terms gives the residual and the products the Jacobian
reuses, with u transformed once for all terms; the rounding floor is
formed only where a test needs it. A solve holds O(m * _BLOCK) per term.
Every workspace comes from ``dual_workspaces``, so the two methods' solves
of one problem share each term's kernel, and a solve of one method builds
the other's edge columns too. The step h is the only setting: Newton's
are the constants below, so both methods run under one solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .caputo import FractionalOrder, GridFunction, MethodKind
from .expr import EvalDomainError, ExpressionTree, evaluate
from .operators import fractional_operators, products
from .stencils import STENCILS

__all__ = [
    "TermSpec",
    "EquationSpec",
    "SolverConfig",
    "Solution",
    "ResidualDomainError",
    "grid_size",
    "assemble_residual",
    "dual_workspaces",
    "solve",
    "solve_in",
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
# Diagonal panel blocks formed at once: 8 * 35^2 floats stay below the
# size from which malloc maps fresh pages for every array.
_GATHER = 8
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
        raise ResidualDomainError(exc.reason, node) from exc


class _Workspace:
    """Operators and grid of one solve, shared across its Newton iterations:
    ``ops`` holds one operator of ``method`` per term on the m steps of h."""

    def __init__(self, eq: EquationSpec, h: float, m: int, method: MethodKind, ops):
        self.eq, self.method, self.m, self.h, self.ops = eq, method, m, h, list(ops)
        self.x = np.arange(m + 1) * h
        self.n_ic = eq.n_ic
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

    def _sum(self, u, f, g, Ks, products, ic_rows, ic_vals) -> np.ndarray:
        """The residual's rows from its parts: ic_rows @ u[:3] / ic_denom - ic_vals,
        then f - g + K_i * products_i, term by term, at the collocation nodes.
        The rounding floor and the Jacobian's diagonal are this sum of other parts."""
        nic = self.n_ic
        r = np.empty(self.m + 1)
        r[:nic] = ic_rows @ u[:3] / self.ic_denom - ic_vals
        acc = f - g
        for K, Au in zip(Ks, products):
            acc = acc + K * Au[nic:]
        r[nic:] = acc
        return r

    # overflow makes a non-finite residual, which the Newton loop rejects
    @np.errstate(over="ignore", invalid="ignore")
    def residual_terms(self, u: np.ndarray):
        """The residual of u and the parts it was formed from: f, g, every
        K_i and every product A_i @ u, which ``jacobian`` and ``floor_scale``
        take with u."""
        parts = (*self._parts(u[self.n_ic :]), products(self.ops, u))
        return self._sum(u, *parts, self.ic_rows, self.ic_vals), parts

    @np.errstate(over="ignore", invalid="ignore")
    def floor_scale(self, u: np.ndarray, parts: tuple) -> float:
        """The scale the residual of u cancels over, from its ``parts``: the
        largest row of their sum over absolute values (x - -|y| is x + |y|).
        Each abs(A_i) is formed here, on its kernel's cached |rev|."""
        f, g, Ks, _ = parts
        au = np.abs(u)
        abs_parts = np.abs(f), -np.abs(g), [np.abs(K) for K in Ks], products([abs(A) for A in self.ops], au)
        return float(np.max(self._sum(au, *abs_parts, np.abs(self.ic_rows), -np.abs(self.ic_vals))))

    def jacobian(self, u: np.ndarray, parts: tuple):
        """Forward-difference Jacobian J, column step 1e-7*(1+|u_j|), as the
        accessors block(k0, k1, l0, l1) = J[k0:k1, l0:l1], a new array of one
        multiply per term, and below(i, W) = W @ J[i:, i - _BLOCK : i].T
        (i >= _BLOCK), from the operators' windows without writing that strip.
        The Newton step's diagonal blocks J[k:k+s, k:k+s], s = _BLOCK +
        _BANDWIDTH and k a multiple of _BLOCK, are formed _GATHER at a time,
        one ``diagonal_blocks`` per term, as the step first asks for each run;
        ``block`` hands each out once.

        Expression trees act pointwise, so difference column j departs from
        sum_i K_i A_i (``block``) only on the diagonal, by ``_sum`` of the
        probe's differences of f, g and K_i against A_i u + eps diag(A_i),
        over eps. ``parts`` are those of ``residual_terms(u)``.
        """
        nic, m = self.n_ic, self.m
        up = u + 1e-7 * (1.0 + np.abs(u))
        eps = up - u  # the step as represented, so an affine part differences exactly
        f, g, Ks, products = parts
        fp, gp, Kps = self._parts(up[nic:])
        dKs = [Kp - K for K, Kp in zip(Ks, Kps)]
        shifted = [Au + eps * A.diagonal() for A, Au in zip(self.ops, products)]
        diag = self._sum(np.zeros(3), fp - f, gp - g, dKs, shifted, self.ic_rows, np.zeros(nic)) / eps
        Ks = [np.r_[np.zeros(nic), K] for K in Ks]  # the condition rows are written over
        ic = np.zeros((nic, m + 1))
        ic[:, :3] = self.ic_rows / self.ic_denom[:, None]
        size = _BLOCK + _BANDWIDTH
        gathered = {}  # diagonal blocks of the step's next panels, by first row

        def pointwise(out: np.ndarray, k0: int, k1: int, l0: int, l1: int) -> np.ndarray:
            """J[k0:k1, l0:l1] from out = sum_i K_i A_i[k0:k1, l0:l1], in place."""
            lo, hi = max(k0, l0), min(k1, l1)  # J's diagonal in the block, through a view
            np.einsum("ii->i", out[lo - k0 : hi - k0, lo - l0 : hi - l0])[:] += diag[lo:hi]
            if k0 < nic:
                out[: nic - k0] = ic[k0:k1, l0:l1]
            return out

        def gather(k0: int) -> None:
            """The diagonal blocks of the _GATHER panels from row k0 on."""
            starts = np.arange(k0, min(k0 + _GATHER * _BLOCK, m + 2 - size), _BLOCK)
            blocks = sum(A.diagonal_blocks(starts, size, K) for K, A in zip(Ks, self.ops))
            for k, b in zip(starts.tolist(), blocks):
                gathered[k] = pointwise(b, k, k + size, k, k + size)

        def block(k0: int, k1: int, l0: int, l1: int) -> np.ndarray:
            if k0 == l0 and k1 == l1 == k0 + size and k0 % _BLOCK == 0:  # a step's diagonal block
                if k0 not in gathered:
                    gather(k0)
                return gathered.pop(k0)
            out = sum(A.block(k0, k1, l0, l1, K[k0:k1, None]) for K, A in zip(Ks, self.ops))
            return pointwise(out, k0, k1, l0, l1)

        def below(i: int, W: np.ndarray) -> np.ndarray:
            out = None  # the sum of the terms, each scaled and added in place
            for K, A in zip(Ks, self.ops):
                t = A.strip(i, W)
                t *= K[i:]
                out = t if out is None else np.add(out, t, out=out)
            return out

        return block, below


def _solve_upper_banded(block, below, r: np.ndarray) -> np.ndarray:
    """x with J x = r, for J[i, j] = 0 when j > i + _BANDWIDTH, given J by
    the accessors of ``_Workspace.jacobian``; ``block`` may be written over.

    J^T has lower bandwidth _BANDWIDTH, so the Householder QR of a panel
    of its _BLOCK columns spans _BANDWIDTH more rows. In J's terms, panel
    k's Q turns columns k..f-1 of J, f = e + _BANDWIDTH, into columns
    k..e-1 of the lower triangular L = J Q, plus _BANDWIDTH columns carried
    to the next panel. The forward substitution L z = r runs alongside, so
    below row e it needs only the z-weighted sum and the carried columns of
    J[:, k:f] Q: from ``block`` down to row f, then from the carried columns
    and ``below`` (Golub & Van Loan, Matrix Computations, 5.2, without the
    trailing matrix), whose weights W and product LT are filled in place.
    Only the Qs are kept, and x = Q z applies them in reverse. A zero row
    of J leaves a zero on L's diagonal: LinAlgError.
    """
    n = r.size
    z, acc, Qs = np.empty(n), np.zeros(n), []  # acc[k:] = L[k:, :k] @ z[:k]
    W = np.empty((1 + _BANDWIDTH, _BLOCK + _BANDWIDTH), order="F")  # rows J[:, k:f] Q is weighted by, per panel
    carried = block(0, n, 0, _BANDWIDTH).T  # L[k:, k:k + _BANDWIDTH]^T
    for k in range(0, n, _BLOCK):
        e = min(k + _BLOCK, n)
        f = min(e + _BANDWIDTH, n)
        T = block(k, f, k, f).T
        T[: len(carried)] = carried[:, : f - k]
        Q, R = np.linalg.qr(T[:, : e - k], mode="complete")
        # L[k:e, k:e] = R^T, solved reversed: upper triangular, so a zero
        # on its diagonal stays an exact zero pivot
        z[k:e] = np.linalg.solve(R[: e - k].T[::-1, ::-1], (r[k:e] - acc[k:e])[::-1])[::-1]
        Wk = W[: 1 + f - e, : f - k]
        Wk[0], Wk[1:] = Q[:, : e - k] @ z[k:e], Q[:, e - k :].T
        LT = np.empty((1 + f - e, n - e))  # (J[e:, k:f] @ Wk^T)^T, rows e..f-1, then the rows below
        LT[:, : f - e] = Wk @ T[:, e - k :]
        if f < n:
            np.add(Wk[:, :_BANDWIDTH] @ carried[:, f - k :], below(f, Wk[:, _BANDWIDTH:]), out=LT[:, f - e :])
        acc[e:] += LT[0]
        carried = LT[1:]
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
    ws = _workspace(eq, cfg, method)
    if candidate.m != ws.m or not math.isclose(candidate.h, cfg.h, rel_tol=1e-12):
        raise ValueError(
            f"candidate grid (h={candidate.h}, m={candidate.m}) does not match config (h={cfg.h}, m={ws.m})"
        )
    return GridFunction(cfg.h, ws.residual_terms(np.asarray(candidate.values, dtype=float))[0])


def _converged(ws: _Workspace, u: np.ndarray, r: np.ndarray, parts: tuple) -> bool:
    """max|r| within NEWTON_TOL of u, or at the rounding floor of the
    iterate (u, r, parts), which is formed only when the first test fails."""
    rmax, tol = float(np.max(np.abs(r))), NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))
    return rmax <= tol or rmax <= RESIDUAL_FLOOR_FACTOR * np.finfo(float).eps * ws.floor_scale(u, parts)


def _newton(ws: _Workspace, u0: np.ndarray):
    """Damped Newton from u0: (u, r, iterations, failure), where failure is
    None once converged and otherwise says why the iteration stopped. A start
    whose residual cannot be formed leaves no iterate: u = r = None."""
    u = u0.copy()
    try:
        r, parts = ws.residual_terms(u)
    except ResidualDomainError as exc:
        return None, None, 0, str(exc)
    bad = np.flatnonzero(~np.isfinite(r))
    if bad.size:
        return None, None, 0, f"non-finite starting residual at node {bad[0]}"
    for iters in range(NEWTON_MAX_ITER):
        if _converged(ws, u, r, parts):
            return u, r, iters, None
        try:
            delta = _solve_upper_banded(*ws.jacobian(u, parts), -r)
        except ResidualDomainError as exc:  # the probe at u + eps left the domain
            return u, r, iters, f"Jacobian probe: {exc}"
        except np.linalg.LinAlgError:
            return u, r, iters, "singular Newton step"
        rnorm = float(np.max(np.abs(r)))
        lam, failure = 1.0, "expression domain error at every damping level"
        while lam >= DAMPING_MIN:
            trial = u + lam * delta
            lam *= 0.5
            try:
                trial_r, trial_parts = ws.residual_terms(trial)
            except ResidualDomainError:
                continue
            failure = "line search found no decrease"
            if np.isfinite(trial_r).all() and float(np.max(np.abs(trial_r))) < rnorm:
                break
        else:
            return u, r, iters, failure
        u, r, parts = trial, trial_r, trial_parts
    converged = _converged(ws, u, r, parts)
    return u, r, NEWTON_MAX_ITER, None if converged else f"no convergence in {NEWTON_MAX_ITER} iterations"


def dual_workspaces(eq: EquationSpec, cfg: SolverConfig):
    """Yields substitution's workspace for one problem, then by-parts', on
    one kernel per term: each term's kernel, spectrum and strip window are
    assembled once, and by-parts' edge columns are summed when its
    workspace is asked for."""
    m = grid_size(eq.interval_end, cfg.h)
    per_term = [fractional_operators(t.order, cfg.h, m) for t in eq.terms]
    for method in MethodKind:  # the order fractional_operators yields in
        yield _Workspace(eq, cfg.h, m, method, [next(ops) for ops in per_term])


def _workspace(eq: EquationSpec, cfg: SolverConfig, method: MethodKind) -> _Workspace:
    """The workspace of ``method`` alone, from ``dual_workspaces``."""
    if not isinstance(method, MethodKind):
        raise ValueError(f"method must be a MethodKind, got {method!r}")
    return next(ws for ws in dual_workspaces(eq, cfg) if ws.method is method)


def solve(
    eq: EquationSpec, cfg: SolverConfig, method: MethodKind, *, start: Optional[np.ndarray] = None
) -> Solution:
    """Damped-Newton solve of the collocation system.

    Every outcome is a Solution: one that did not converge carries the
    reason in ``failure`` and its last iterate, or no iterate when no start
    could be evaluated. The initial guess is the constant ic_u0, retried
    once from the linear profile ic_u0 + ic_du0*x when a first-derivative
    condition exists; the last start that left an iterate is reported.
    ``start``, m + 1 node values, is tried before both; only where Newton
    begins changes, not the system it solves or its stop rule.
    """
    return solve_in(_workspace(eq, cfg, method), start=start)


def solve_in(ws: _Workspace, *, start: Optional[np.ndarray] = None) -> Solution:
    """``solve`` on the grid and operators of the workspace ``ws``."""
    eq = ws.eq
    guesses = [np.full(ws.m + 1, float(eq.ic_u0))]
    if eq.ic_du0 is not None and eq.ic_du0 != 0.0:
        guesses.append(eq.ic_u0 + eq.ic_du0 * ws.x)
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (ws.m + 1,):
            raise ValueError(f"start must hold {ws.m + 1} node values, got shape {start.shape}")
        guesses.insert(0, start)
    results = []
    for guess in guesses:
        results.append(_newton(ws, guess))
        if results[-1][3] is None:
            break
    u, r, iters, failure = next((res for res in reversed(results) if res[0] is not None), results[-1])
    return Solution(
        u=None if u is None else GridFunction(ws.h, u),
        residual=None if r is None else GridFunction(ws.h, r),
        newton_iters=iters,
        method=ws.method,
        failure=failure,
    )
