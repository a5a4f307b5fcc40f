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
columns of W, one nonzero entry of S_n at a time (both ends together, so
small grids where the ends overlap come out whole); they also hold
by-parts' boundary term, the only place the two methods differ. A
``ToeplitzOperator`` keeps just these O(m) numbers and a ``_Kernel``: the
kernel, its spectrum and a strided view of it, which both methods'
operators of one term share. It multiplies by FFT, writes dense only the
small blocks a Newton step factors, and multiplies the strips below them
through one window of the kernel. A block is a copy of a slice of the
view, patched only where it reaches the edge columns; off them every
diagonal block of one size is the same slice, ``core``. Nothing is
cached between solves: ``fractional_operators``, the one constructor,
assembles a term's kernel once for both methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .caputo import FractionalOrder, MethodKind, power_weights
from .special_functions import gamma
from .stencils import apply_rows, differentiation_rows

__all__ = ["ToeplitzOperator", "fractional_operators", "products"]

# With stencils up to five wide, the columns that a one-sided row of S_n
# or the boundary term reaches, or whose central window runs off the
# grid, lie within this many of either end.
_EDGE = 6


class _Kernel:
    """The reversed kernel ``rev`` (2m + 1 entries) and what products
    through it need: the view ``toeplitz[k, l] = rev[m - k + l]``, with
    every column Toeplitz; ``spectrum``, the rfft of rev reversed at a
    length over 2m; each strip window, copied when first asked for; and
    ``magnitude``, the kernel of abs(rev), formed when first asked for.
    The arrays are read-only."""

    def __init__(self, rev: np.ndarray):
        self.rev = rev
        self.toeplitz = np.lib.stride_tricks.sliding_window_view(rev, (rev.size + 1) // 2)[::-1]
        self.spectrum = np.fft.rfft(rev[::-1], 1 << rev.size.bit_length())
        self._windows = {}
        for a in (self.rev, self.spectrum):
            a.setflags(write=False)

    @cached_property
    def magnitude(self) -> _Kernel:
        return _Kernel(np.abs(self.rev))

    def window(self, w: int) -> np.ndarray:
        """XT[c, a] = rev[m - w - a + c], the top of every strip A[i:, i - w : i]."""
        if w not in self._windows:
            XT = self.toeplitz[w:, :w].T.copy()
            XT.setflags(write=False)
            self._windows[w] = XT
        return self._windows[w]


@dataclass(frozen=True)
class ToeplitzOperator:
    """(m+1)x(m+1) matrix with row k rev[m-k : 2m-k+1] of its kernel, apart
    from the columns ``cols``, which hold ``edge``. The arrays are read-only."""

    kernel: _Kernel
    cols: np.ndarray
    edge: np.ndarray

    def __post_init__(self):
        for a in (self.cols, self.edge):
            a.setflags(write=False)

    @property
    def rev(self) -> np.ndarray:
        return self.kernel.rev

    def __matmul__(self, u) -> np.ndarray:
        (out,) = products([self], u)
        return out

    def __abs__(self) -> ToeplitzOperator:
        return ToeplitzOperator(self.kernel.magnitude, self.cols, np.abs(self.edge))

    def diagonal(self) -> np.ndarray:
        d = np.full(self.edge.shape[0], self.rev[self.rev.size // 2])
        d[self.cols] = self.edge[self.cols, np.arange(self.cols.size)]
        return d

    def reaches_edge(self, l0: int, l1: int) -> bool:
        """Whether columns l0:l1 hold any of ``cols``. Off them, every
        diagonal block A[k:k+s, k:k+s] is ``core(s)``, whatever k is."""
        return l0 < _EDGE or l1 > self.edge.shape[0] - _EDGE

    def core(self, s: int) -> np.ndarray:
        """The kernel's s x s slice that every diagonal block A[k:k+s, k:k+s]
        off ``cols`` equals, a read-only view."""
        return self.kernel.toeplitz[:s, :s]

    def block(self, k0: int, k1: int, l0: int, l1: int) -> np.ndarray:
        """Dense A[k0:k1, l0:l1], a new array."""
        block = self.kernel.toeplitz[k0:k1, l0:l1].copy()
        if self.reaches_edge(l0, l1):
            inside = (self.cols >= l0) & (self.cols < l1)
            block[:, self.cols[inside] - l0] = self.edge[k0:k1, inside]
        return block

    def strip(self, i: int, W: np.ndarray) -> np.ndarray:
        """W @ A[i:, i - w : i].T, for W of w columns and w <= i <= m + 1.

        For every i that strip is the top of X[a, c] = rev[m - w - a + c], the
        kernel's window, apart from the ``cols`` it reaches: those add their difference."""
        n, w = self.edge.shape[0], W.shape[1]
        out = W @ self.kernel.window(w)[:, : n - i]
        if self.reaches_edge(i - w, i):
            q = np.flatnonzero((self.cols >= i - w) & (self.cols < i))
            j = self.cols[q]
            out += W[:, j - i + w] @ (self.edge[i:, q] - self.kernel.toeplitz[i:, j]).T
        return out


def products(ops, u) -> list[np.ndarray]:
    """[A @ u for A in ops], for operators on one grid (so one ``cols`` and
    one cyclic length), with u transformed once.

    Off ``cols``, row k is entry m + k of rev reversed convolved with u,
    exact at any cyclic length over 2m. Row 0 is empty (w[0] = 0): an
    exact 0.
    """
    cols, n = ops[0].cols, len(u)
    v = np.array(u, dtype=float)
    v[cols] = 0.0
    spectrum = np.fft.rfft(v, 2 * ops[0].kernel.spectrum.size - 2)
    uc = np.take(u, cols)
    out = []
    for A in ops:
        Au = np.fft.irfft(A.kernel.spectrum * spectrum)[n - 1 : 2 * n - 1]
        Au[0] = 0.0
        out.append(Au + A.edge @ uc)
    return out


def _stencil_columns(rows, cols: np.ndarray, m: int):
    """l on ``cols``, and the nonzero entries (c, j, S_n[j, cols[c]]) of S_n's
    columns ``cols``, in ascending j for each c."""
    B = np.zeros((m + 1, cols.size))
    B[cols, np.arange(cols.size)] = 1.0
    B = apply_rows(rows, B).T  # S_n[:, cols]^T
    c, j = np.nonzero(B)
    return (B[:, 0] - 2.0 * B[:, 1] + B[:, 2]) / 4.0, list(zip(c.tolist(), j.tolist(), B[c, j].tolist()))


def fractional_operators(order: FractionalOrder, h: float, m: int):
    """Yields the (m+1)x(m+1) operators A with (A u)_k = D^alpha u(x_k) of
    substitution, then of by-parts, on one kernel: each sums only its edge
    columns, when it is asked for.

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
    n = order.n
    w = power_weights(n - order.effective, h, m)
    g = gamma(n + 1 - order.effective)
    rows = differentiation_rows(n, h)
    cols = np.unique(np.r_[0:_EDGE, m + 1 - _EDGE : m + 1])
    ell, entries = _stencil_columns(rows, cols, m)
    # differences of w first: they are small against w itself
    col0 = 0.5 * np.diff(w, prepend=0.0) / g
    lam = col0[:-1] + col0[1:]
    # the kernel kappa = lam * central has kappa[d + lead] = A[k, l] at
    # k - l = d; rev holds it reversed, zero above the band
    central = rows[1]
    lead = len(central) // 2
    rev = np.zeros(2 * m + 1)
    rev[: m + lead + 1] = np.convolve(lam, central[::-1])[m + lead :: -1]
    kernel = _Kernel(rev)
    for method in MethodKind:  # substitution, then by-parts
        edge = np.zeros((cols.size, m + 1))  # A[:, cols] transposed, a column per row
        if method is MethodKind.BYPARTS:  # minus the boundary term outer(w, l) / g
            edge -= np.outer(ell, w / g)
        # A[:, cols] += W S_n[:, cols], one nonzero S_n[j, c] at a time;
        # column j of W is col0 for j = 0, else lam shifted down by j
        for c, j, s in entries:
            edge[c, j:] += (col0 if j == 0 else lam)[: m + 1 - j] * s
        edge = np.ascontiguousarray(edge.T)  # while suspended, hold no more than the operator
        yield ToeplitzOperator(kernel, cols, edge)

