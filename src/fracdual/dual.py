"""The dual-reliability protocol and its diagnostics.

Both discretizations are run on the same problem; the result is trusted
only when both converge and their solutions agree within a tolerance.
Disagreement or non-convergence is a verdict, not an error. By-parts'
Newton starts from the converged substitution answer, about one step
from its own root since the two systems differ by one rank-one term; it
still solves its own system to its own stop rule. The two solves share
each term's kernel: only the operators' edge columns are each method's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .caputo import MethodKind
from .expr import ExpressionTree, evaluate
from .solver import EquationSpec, Solution, SolverConfig, dual_workspaces, solve_in

__all__ = [
    "VerdictKind",
    "Verdict",
    "DualReport",
    "ExactErrorReport",
    "OrderRow",
    "default_threshold",
    "dual_solve",
    "compare_to_exact",
    "inter_method_difference",
    "convergence_study",
]

# Observed inter-method agreement of the two discretizations on smooth
# problems scales like the by-parts boundary channel, about h^(3/4) in
# the exercised range, far below the O(1) split of a genuine failure;
# 2*h^(3/4) sits between the regimes at every step size used here.
THRESHOLD_COEFF = 2.0
THRESHOLD_EXPONENT = 0.75
THRESHOLD_FLOOR = 1e-10

# Errors below this are round-off of the solve itself (observed up to
# ~1e-11 on zero-discretization-error cases); order estimates computed
# from them are noise and the rows are flagged saturated instead.
SATURATION_FLOOR = 1e-10


class VerdictKind(Enum):
    RELIABLE = "Reliable"
    UNRELIABLE = "Unreliable"
    METHOD_FAILED = "MethodFailed"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    failed: tuple[MethodKind, ...] = ()

    @property
    def reliable(self) -> bool:
        return self.kind is VerdictKind.RELIABLE

    def __str__(self) -> str:
        if self.kind is VerdictKind.METHOD_FAILED:
            names = ",".join(m.value for m in self.failed)
            return f"MethodFailed({names})"
        return self.kind.value


@dataclass(frozen=True)
class DualReport:
    sol_subst: Solution
    sol_byparts: Solution
    deviation: float
    threshold: float
    verdict: Verdict


@dataclass(frozen=True)
class ExactErrorReport:
    x: np.ndarray
    errors: np.ndarray
    sup: float


@dataclass(frozen=True)
class OrderRow:
    h: float
    error: Optional[float]
    observed_order: Optional[float]
    saturated: bool = False


def default_threshold(h: float) -> float:
    return max(THRESHOLD_COEFF * h**THRESHOLD_EXPONENT, THRESHOLD_FLOOR)


def dual_solve(
    eq: EquationSpec, cfg: SolverConfig, threshold: Optional[float] = None
) -> DualReport:
    """Run both methods and classify their agreement.

    Reliable iff both converged and the scaled sup-norm deviation is at
    most the threshold; a non-converged method yields MethodFailed with
    the offending method(s) named. The deviation is nan when a method
    has no iterate to compare. By-parts starts from substitution's answer
    when that converged, then from its own cold starts, so the start
    moves its answer only within its stop rule's slack.
    """
    thr = default_threshold(cfg.h) if threshold is None else float(threshold)
    if not (math.isfinite(thr) and thr > 0.0):
        raise ValueError(f"threshold must be positive and finite, got {threshold}")
    workspaces = dual_workspaces(eq, cfg)  # each lives only for its own solve
    a = solve_in(next(workspaces))
    b = solve_in(next(workspaces), start=a.u.values if a.converged else None)
    failed = tuple(sol.method for sol in (a, b) if not sol.converged)
    if a.u is None or b.u is None:
        deviation = np.nan
    else:
        diff = float(np.max(np.abs(a.u.values - b.u.values)))
        deviation = diff / max(1.0, float(np.max(np.abs(b.u.values))))
    if failed:
        verdict = Verdict(VerdictKind.METHOD_FAILED, failed)
    elif deviation <= thr:
        verdict = Verdict(VerdictKind.RELIABLE)
    else:
        verdict = Verdict(VerdictKind.UNRELIABLE)
    return DualReport(
        sol_subst=a, sol_byparts=b, deviation=deviation, threshold=thr, verdict=verdict
    )


def _require_iterate(sol: Solution) -> None:
    if sol.u is None:
        raise ValueError(f"{sol.method.value} has no iterate to compare: {sol.failure}")


def compare_to_exact(sol: Solution, exact: ExpressionTree) -> ExactErrorReport:
    """Per-node absolute error of a solution against an exact expression in x."""
    _require_iterate(sol)
    x = sol.u.x
    exact_vals = evaluate(exact, x, np.zeros_like(x))
    errors = np.abs(sol.u.values - exact_vals)
    return ExactErrorReport(x=x, errors=errors, sup=float(np.max(errors)))


def inter_method_difference(a: Solution, b: Solution) -> ExactErrorReport:
    """Pointwise |a - b| on the shared grid, plus its sup-norm."""
    _require_iterate(a)
    _require_iterate(b)
    if a.u.values.shape != b.u.values.shape or a.u.h != b.u.h:
        raise ValueError("solutions live on different grids")
    diff = np.abs(a.u.values - b.u.values)
    return ExactErrorReport(x=a.u.x, errors=diff, sup=float(np.max(diff)))


def convergence_study(
    error_of_h: Callable[[float], Optional[float]], h_list: Sequence[float]
) -> list[OrderRow]:
    """Observed orders log2(err(h)/err(h/2)) over a halving sequence.

    ``error_of_h`` returns the error at one step size, or None when the
    solve did not converge (the row becomes a gap). Errors at round-off
    scale are flagged saturated instead of producing noise orders.
    """
    hs = list(h_list)
    if len(hs) < 3:
        raise ValueError("need at least 3 step sizes")
    for h in hs:
        if not (math.isfinite(h) and h > 0.0):
            raise ValueError(f"step must be positive and finite, got {h}")
    for a, b in zip(hs, hs[1:]):
        if abs(a / b - 2.0) > 1e-9:
            raise ValueError(f"steps must halve: {a} -> {b}")
    errors = [error_of_h(h) for h in hs]
    rows: list[OrderRow] = []
    prev: Optional[float] = None
    for h, err in zip(hs, errors):
        saturated = err is not None and err < SATURATION_FLOOR
        order = None
        if (
            err is not None
            and prev is not None
            and not saturated
            and prev >= SATURATION_FLOOR
            and err > 0.0
        ):
            order = float(np.log2(prev / err))
        rows.append(OrderRow(h=h, error=err, observed_order=order, saturated=saturated))
        prev = err
    return rows
