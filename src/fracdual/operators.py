"""Fractional-derivative operators kept as their Toeplitz kernels.

Row k of an operator matrix A reproduces the corresponding scalar
quadrature at t = k*h applied to stencil-reconstructed derivative
samples of the grid function, so a matrix-vector product evaluates
D^alpha u at every node at once. Both rules are built from W S_n, the
substitution trapezoid weights W times the n-th derivative stencils S_n:

* substitution: A = W S_n;
* by-parts: A = c S_n[0,:] + P D S_n, with D the three-point differences
  and the boundary term c anchored at node 0. Summation by parts turns
  P D into W apart from nodes 0-2, so A = W S_n - c l, with l =
  (S_n[0,:] - 2 S_n[1,:] + S_n[2,:]) / 4 nonzero on columns 0-4 (0-5
  for n = 3).

W is lower-triangular Toeplitz, W[k,j] = lam[k-j], apart from its column
0 (and row 0, which is zero); S_n repeats its central stencil row apart
from one-sided rows at the ends. So every column that only central rows
of S_n reach is Toeplitz too, A[k,l] = kappa[k-l] with kappa = lam
convolved with S_n's central row. That holds outside the ``_EDGE``
columns at each end, which assembly computes exactly as sums of shifted
columns of W (both ends together, so small grids where the ends overlap
come out whole); they also hold by-parts' boundary term, the only place
the two methods differ. A ``ToeplitzOperator`` keeps just these O(m)
numbers and the kernel's spectrum: it multiplies by FFT, writes dense
only the small blocks a Newton step factors, and multiplies the strips
below them through one window of the kernel. A block is one multiply of
a strided view of the kernel, patched only where it reaches the edge
columns. Nothing is cached: each solve builds its operators once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .caputo import FractionalOrder, MethodKind, power_weights
from .special_functions import gamma
from .stencils import apply_rows, differentiation_rows

__all__ = ["ToeplitzOperator", "fractional_operator", "operator_for"]

# With stencils up to five wide, the columns that a one-sided row of S_n
# or the boundary term reaches, or whose central window runs off the
# grid, lie within this many of either end.
_EDGE = 6


@dataclass(frozen=True)
class ToeplitzOperator:
    """(m+1)x(m+1) matrix with row k rev[m-k : 2m-k+1], apart from the
    columns ``cols``, which hold ``edge``. The arrays are read-only; the
    view ``_toeplitz[k, l] = rev[m - k + l]`` has every column Toeplitz,
    and ``_spectrum`` is the rfft of rev reversed at a length over 2m."""

    rev: np.ndarray
    cols: np.ndarray
    edge: np.ndarray

    def __post_init__(self):
        windows = np.lib.stride_tricks.sliding_window_view(self.rev, self.edge.shape[0])
        object.__setattr__(self, "_toeplitz", windows[::-1])
        object.__setattr__(self, "_spectrum", np.fft.rfft(self.rev[::-1], 1 << self.rev.size.bit_length()))
        for a in (self.rev, self.cols, self.edge, self._spectrum):
            a.setflags(write=False)

    def __matmul__(self, u) -> np.ndarray:
        """Off ``cols``, row k is entry m + k of rev reversed convolved with u,
        exact at any cyclic length over 2m. Row 0 is empty (w[0] = 0): an exact 0."""
        v = np.array(u, dtype=float)
        v[self.cols] = 0.0
        out = np.fft.irfft(self._spectrum * np.fft.rfft(v, 2 * self._spectrum.size - 2))[v.size - 1 : 2 * v.size - 1]
        out[0] = 0.0
        return out + self.edge @ np.take(u, self.cols)

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

    Both methods apply the trapezoid weights of the transformed integral
    to S_n u: W[k,j] = (w[k-j+1]-w[k-j-1])/2 for 1 <= j <= k (w[-1] = 0),
    W[k,0] = (w[k]-w[k-1])/2. By-parts applies the trapezoid weights
    P[k,j] = h*w[k-j] (half at j = 0) to three-point first differences of
    S_n u and adds the boundary term w[k] (S_n u)(0); by summation by
    parts that is W S_n minus the rank-one term outer(w, l), with l a
    quarter of the second difference S_n[0] - 2 S_n[1] + S_n[2]. All
    weights are divided by Gamma(n+1-alpha).
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
    edge = np.zeros_like(B)
    if method is MethodKind.BYPARTS:  # minus the boundary term outer(w, l) / g
        edge -= np.outer(w / g, (B[0] - 2.0 * B[1] + B[2]) / 4.0)
    # differences of w first: they are small against w itself
    col0 = 0.5 * np.diff(w, prepend=0.0) / g
    lam = col0[:-1] + col0[1:]
    # A[:, cols] += W B[:, cols] over the few rows of B that reach cols;
    # column j of W is col0 for j = 0, else lam shifted down by j.
    for j in np.flatnonzero(B.any(axis=1)):
        if j == 0:
            edge += np.outer(col0, B[0])
        else:
            edge[j:] += np.outer(lam[: m + 1 - j], B[j])
    # the kernel kappa = lam * central has kappa[d + lead] = A[k, l] at
    # k - l = d; rev holds it reversed, zero above the band
    central = rows[1]
    lead = len(central) // 2
    rev = np.zeros(2 * m + 1)
    rev[: m + lead + 1] = np.convolve(lam, central[::-1])[m + lead :: -1]
    return ToeplitzOperator(rev, cols, edge)


def operator_for(method: MethodKind, order: FractionalOrder, h: float, m: int) -> ToeplitzOperator:
    return fractional_operator(method, order.effective, order.n, h, m)
