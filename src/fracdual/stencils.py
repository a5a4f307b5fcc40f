"""Finite-difference stencils on a uniform grid.

Coefficient rows for the first three derivatives with forward, central,
and backward placement, window application helpers, and the full-grid
layout both as rows applied without a matrix (``apply_rows``) and as
dense differentiation matrices, which the tests use as references. Central windows are used wherever they
fit; the nodes at each end fall back to the same-order one-sided stencil
on the available side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StencilKind",
    "STENCILS",
    "apply_stencil",
    "differentiation_rows",
    "difference_rows_3pt",
    "apply_rows",
    "differentiation_matrix",
    "difference_matrix_3pt",
]


@dataclass(frozen=True)
class StencilKind:
    """One stencil: derivative order, placement, coefficients, formal order.

    ``coefficients`` multiply consecutive grid samples and are divided by
    ``denominator * h**order``; ``node`` is the index within the window
    where the derivative is evaluated. Every row sums to zero (constants
    are annihilated).
    """

    order: int
    placement: str  # "forward" | "central" | "backward"
    coefficients: tuple[float, ...]
    denominator: float
    node: int
    formal_order: int

    @property
    def width(self) -> int:
        return len(self.coefficients)


STENCILS: dict[tuple[int, str], StencilKind] = {
    # first derivative
    (1, "forward"): StencilKind(1, "forward", (-3.0, 4.0, -1.0), 2.0, 0, 2),
    # five-point central row; formally fourth order
    (1, "central"): StencilKind(1, "central", (1.0, -8.0, 0.0, 8.0, -1.0), 12.0, 2, 4),
    (1, "backward"): StencilKind(1, "backward", (1.0, -4.0, 3.0), 2.0, 2, 2),
    # second derivative
    (2, "forward"): StencilKind(2, "forward", (2.0, -5.0, 4.0, -1.0), 1.0, 0, 2),
    (2, "central"): StencilKind(2, "central", (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2, 4),
    (2, "backward"): StencilKind(2, "backward", (-1.0, 4.0, -5.0, 2.0), 1.0, 3, 2),
    # third derivative
    (3, "forward"): StencilKind(3, "forward", (-5.0, 18.0, -24.0, 14.0, -3.0), 2.0, 0, 2),
    (3, "central"): StencilKind(3, "central", (-1.0, 2.0, 0.0, -2.0, 1.0), 2.0, 2, 2),
    (3, "backward"): StencilKind(3, "backward", (3.0, -14.0, 24.0, -18.0, 5.0), 2.0, 4, 2),
}


def _scaled_coefficients(order: int, placement: str, h: float) -> np.ndarray:
    kind = STENCILS[(order, placement)]
    return np.asarray(kind.coefficients) / (kind.denominator * h**order)


def apply_stencil(order: int, placement: str, values, h: float) -> float:
    """Apply one stencil to a window of grid samples.

    The window length must match the stencil width; the value returned is
    the derivative estimate at the stencil's evaluation node (first node
    for forward, middle for central, last for backward).
    """
    if h <= 0.0:
        raise ValueError(f"step must be positive, got {h}")
    kind = STENCILS[(order, placement)]
    window = np.asarray(values, dtype=float)
    if window.shape != (kind.width,):
        raise ValueError(
            f"{placement} stencil of order {order} needs {kind.width} samples, got {window.shape}"
        )
    return float(np.dot(_scaled_coefficients(order, placement, h), window))


def differentiation_rows(order: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward, central, backward) coefficient rows of ``differentiation_matrix``."""
    return tuple(_scaled_coefficients(order, p, h) for p in ("forward", "central", "backward"))


def difference_rows_3pt(h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward, central, backward) coefficient rows of ``difference_matrix_3pt``."""
    fwd, _, bwd = differentiation_rows(1, h)
    return fwd, np.array([-1.0, 0.0, 1.0]) / (2.0 * h), bwd


def apply_rows(rows, values: np.ndarray) -> np.ndarray:
    """Banded matrix of stencil ``rows`` applied to ``values`` (along axis 0).

    Same layout as the matrices below: with a central row of width w, the
    first w//2 nodes take the forward row, the last w//2 the backward row.
    Costs O(w) per entry of ``values``; no matrix is formed.
    """
    fwd, cen, bwd = rows
    n, half = len(values), len(cen) // 2
    out = np.zeros_like(values)
    for i, c in enumerate(cen):
        out[half : n - half] += c * values[i : n - 2 * half + i]
    for k in range(half):
        out[k] = fwd @ values[k : k + len(fwd)]
        out[n - 1 - k] = bwd @ values[n - k - len(bwd) : n - k]
    return out


def differentiation_matrix(m: int, h: float, order: int) -> np.ndarray:
    """(m+1)x(m+1) matrix taking grid samples to derivative samples.

    Placement per node: forward at the first two nodes, central where the
    window fits, backward at the last two nodes. Requires m >= 8 so the
    windows never collide.
    """
    if m < 8:
        raise ValueError(f"grid too small for stencil layout (m={m}, need m >= 8)")
    S = np.zeros((m + 1, m + 1))
    fwd, cen, bwd = differentiation_rows(order, h)
    wf, wc, wb = len(fwd), len(cen), len(bwd)
    for k in (0, 1):
        S[k, k : k + wf] = fwd
    half = wc // 2
    for k in range(2, m - 1):
        S[k, k - half : k - half + wc] = cen
    for k in (m - 1, m):
        S[k, k - wb + 1 : k + 1] = bwd
    S.setflags(write=False)
    return S


def difference_matrix_3pt(m: int, h: float) -> np.ndarray:
    """Classic three-point first-difference matrix.

    Central (g[j+1]-g[j-1])/(2h) at interior nodes, three-point one-sided
    rows at the two ends. This is the differencing whose trapezoid sum is
    the summation-by-parts dual of the substitution quadrature; the
    by-parts operator uses it to turn n-th derivative samples into
    (n+1)-th ones.
    """
    D = np.zeros((m + 1, m + 1))
    D[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    rows = np.arange(1, m)
    D[rows, rows - 1] = -1.0 / (2.0 * h)
    D[rows, rows + 1] = 1.0 / (2.0 * h)
    D[m, m - 2 : m + 1] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    D.setflags(write=False)
    return D
