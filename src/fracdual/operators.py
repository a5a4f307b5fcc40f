"""Fractional-derivative operators kept as their Toeplitz kernels.

Row k of an operator matrix A reproduces the corresponding scalar
quadrature at t = k*h applied to stencil-reconstructed derivative
samples of the grid function, so a matrix-vector product evaluates
D^alpha u at every node at once. Each rule is a weight matrix L times a
banded stencil matrix B:

* substitution: A = W S_n, with S_n the n-th derivative stencils;
* by-parts: A = c S_n[0,:] + P D S_n, with D the three-point differences
  and the boundary term c anchored at node 0.

L is lower-triangular Toeplitz, L[k,j] = lam[k-j], apart from its column
0 (and row 0, which is zero); B repeats its central stencil row apart
from one-sided rows at the ends. So every column that only central rows
of B reach is Toeplitz too, A[k,l] = kappa[k-l] with kappa = lam
convolved with B's central row. That holds outside the ``_EDGE`` columns
at each end, which assembly computes exactly as sums of shifted columns
of L (both ends together, so small grids where the ends overlap come out
whole). A ``ToeplitzOperator`` keeps just these O(m) numbers: it
multiplies by correlation, writes dense only the small blocks a Newton
step factors, and multiplies the strips below them through one window of
the kernel. A block is one multiply of a strided view of the kernel,
patched only where it reaches the edge columns. Nothing is cached: each
solve builds its operators once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caputo import FractionalOrder, MethodKind, power_weights
from .special_functions import gamma
from .stencils import apply_rows, difference_rows_3pt, differentiation_rows

__all__ = ["ToeplitzOperator", "fractional_operator", "operator_for"]

# With stencils up to five wide, the columns that a one-sided row of S_n
# or D S_n reaches, or whose central window runs off the grid, lie within
# this many of either end.
_EDGE = 6


@dataclass(frozen=True)
class ToeplitzOperator:
    """(m+1)x(m+1) matrix with row k rev[m-k : 2m-k+1], apart from the
    columns ``cols``, which hold ``edge``. The arrays are read-only; the
    view ``_toeplitz[k, l] = rev[m - k + l]`` has every column Toeplitz."""

    rev: np.ndarray
    cols: np.ndarray
    edge: np.ndarray

    def __post_init__(self):
        for a in (self.rev, self.cols, self.edge):
            a.setflags(write=False)
        windows = np.lib.stride_tricks.sliding_window_view(self.rev, self.edge.shape[0])
        object.__setattr__(self, "_toeplitz", windows[::-1])

    def __matmul__(self, u) -> np.ndarray:
        v = np.array(u, dtype=float)
        v[self.cols] = 0.0
        return np.correlate(self.rev, v)[::-1] + self.edge @ np.take(u, self.cols)

    def __abs__(self) -> ToeplitzOperator:
        return ToeplitzOperator(np.abs(self.rev), self.cols, np.abs(self.edge))

    def diagonal(self) -> np.ndarray:
        d = np.full(self.edge.shape[0], self.rev[self.rev.size // 2])
        d[self.cols] = self.edge[self.cols, np.arange(self.cols.size)]
        return d

    def block(self, k0: int, k1: int, l0: int, l1: int, K=1.0) -> np.ndarray:
        """Dense K * A[k0:k1, l0:l1], a new array, for a scalar K or a column of k1 - k0."""
        block = K * self._toeplitz[k0:k1, l0:l1]
        if l0 < _EDGE or l1 > self.edge.shape[0] - _EDGE:  # the block reaches ``cols``
            inside = (self.cols >= l0) & (self.cols < l1)
            block[:, self.cols[inside] - l0] = K * self.edge[k0:k1, inside]
        return block

    def strip_product(self, w: int):
        """The map (i, W) -> W @ A[i:, i - w : i].T, for w <= i <= m + 1 and W of w columns.

        For every i that strip is the top of X[a, c] = rev[m - w - a + c], built
        once here, apart from the ``cols`` it reaches: those add their difference."""
        n = self.edge.shape[0]
        XT = self._toeplitz[w:, :w].T.copy()

        def product(i: int, W: np.ndarray) -> np.ndarray:
            out = W @ XT[:, : n - i]
            if i - w < _EDGE or i > n - _EDGE:  # the strip reaches ``cols``
                q = np.flatnonzero((self.cols >= i - w) & (self.cols < i))
                j = self.cols[q]
                out += W[:, j - i + w] @ (self.edge[i:, q] - self._toeplitz[i:, j]).T
            return out

        return product


def fractional_operator(method: MethodKind, effective: float, n: int, h: float, m: int) -> ToeplitzOperator:
    """(m+1)x(m+1) operator A with (A u)_k = D^alpha u(x_k) under ``method``.

    Substitution applies the trapezoid weights of the transformed
    integral to S_n u: W[k,j] = (w[k-j+1]-w[k-j-1])/2 for 1 <= j <= k
    (w[-1] = 0), W[k,0] = (w[k]-w[k-1])/2. By-parts applies the trapezoid
    weights to three-point first differences of S_n u (its
    summation-by-parts dual form): P[k,j] = h*w[k-j] for 1 <= j < k,
    P[k,0] = h*w[k]/2, with the boundary term c[k] = w[k] times
    (S_n u)(0). All weights are divided by Gamma(n+1-alpha).
    """
    if m < 8:
        raise ValueError(f"grid too small for stencil layout (m={m}, need m >= 8)")
    w = power_weights(n - effective, h, m)
    g = gamma(n + 1 - effective)
    rows = differentiation_rows(n, h)
    cols = np.unique(np.r_[0:_EDGE, m + 1 - _EDGE : m + 1])
    B = np.zeros((m + 1, cols.size))
    B[cols, np.arange(cols.size)] = 1.0
    B = apply_rows(rows, B)  # S_n[:, cols]
    central = rows[1]
    if method is MethodKind.SUBSTITUTION:
        # differences of w first: they are small against w itself
        col0 = 0.5 * np.diff(w, prepend=0.0) / g
        lam = col0[:-1] + col0[1:]
        edge = np.zeros_like(B)
    else:
        lam = h * w / g
        col0 = 0.5 * lam
        edge = np.outer(w / g, B[0])  # boundary term c S_n[0, cols]
        diff = difference_rows_3pt(h)
        B = apply_rows(diff, B)  # (D S_n)[:, cols]
        central = np.convolve(diff[1], central)
    # A[:, cols] += L B[:, cols] over the few rows of B that reach cols;
    # column j of L is col0 for j = 0, else lam shifted down by j.
    for j in np.flatnonzero(B.any(axis=1)):
        if j == 0:
            edge += np.outer(col0, B[0])
        else:
            edge[j:] += np.outer(lam[: m + 1 - j], B[j])
    # the kernel kappa = lam * central has kappa[d + lead] = A[k, l] at
    # k - l = d; rev holds it reversed, zero above the band
    lead = len(central) // 2
    rev = np.zeros(2 * m + 1)
    rev[: m + lead + 1] = np.convolve(lam, central[::-1])[m + lead :: -1]
    return ToeplitzOperator(rev, cols, edge)


def operator_for(method: MethodKind, order: FractionalOrder, h: float, m: int) -> ToeplitzOperator:
    return fractional_operator(method, order.effective, order.n, h, m)
