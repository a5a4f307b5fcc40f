"""Finite-difference stencils on a uniform grid.

Coefficient rows for the first three derivatives with forward, central,
and backward placement, window application helpers, and the full-grid
layout as rows applied without a matrix (``apply_rows``). Central
windows are used wherever they fit; the nodes at each end fall back to
the same-order one-sided stencil on the available side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StencilKind",
    "STENCILS",
    "apply_stencil",
    "differentiation_rows",
    "apply_rows",
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
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step must be positive and finite, got {h}")
    kind = STENCILS.get((order, placement))
    if kind is None:
        raise ValueError(
            f"no stencil of order {order!r} placed {placement!r}: "
            "orders are 1-3, placements forward, central and backward"
        )
    return np.asarray(kind.coefficients) / (kind.denominator * h**order)


def apply_stencil(order: int, placement: str, values, h: float) -> float:
    """Apply one stencil to a window of grid samples.

    The window length must match the stencil width; the value returned is
    the derivative estimate at the stencil's evaluation node (first node
    for forward, middle for central, last for backward).
    """
    coefficients = _scaled_coefficients(order, placement, h)
    window = np.asarray(values, dtype=float)
    if window.shape != coefficients.shape:
        raise ValueError(
            f"{placement} stencil of order {order} needs {coefficients.size} samples, got {window.shape}"
        )
    return float(np.dot(coefficients, window))


def differentiation_rows(order: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(forward, central, backward) rows of the order-``order`` derivative layout."""
    return tuple(_scaled_coefficients(order, p, h) for p in ("forward", "central", "backward"))


def apply_rows(rows, values: np.ndarray) -> np.ndarray:
    """Banded matrix of stencil ``rows`` applied to ``values`` (along axis 0).

    With a central row of width w, the first w//2 nodes take the forward
    row, the last w//2 the backward row. Costs O(w) per entry of
    ``values``; no matrix is formed.
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

