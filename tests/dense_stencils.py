"""Dense stencil matrices: the test oracles for the row-wise stencil layout.

The library applies its stencils row by row (``stencils.apply_rows``)
and never forms these matrices; the tests compare against them. Also
``operator_of``, one method's operator from the library's one constructor.
"""

import numpy as np

from fracdual.caputo import MethodKind
from fracdual.operators import fractional_operators
from fracdual.stencils import differentiation_rows


def operator_of(method, order, h, m):
    """``method``'s operator, of those ``fractional_operators`` yields in turn."""
    return next(A for kind, A in zip(MethodKind, fractional_operators(order, h, m)) if kind is method)


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
    dense by-parts oracle uses it to turn n-th derivative samples into
    (n+1)-th ones. The library has no counterpart: it builds by-parts
    from the substitution weights and one rank-one boundary term.
    """
    D = np.zeros((m + 1, m + 1))
    D[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    rows = np.arange(1, m)
    D[rows, rows - 1] = -1.0 / (2.0 * h)
    D[rows, rows + 1] = 1.0 / (2.0 * h)
    D[m, m - 2 : m + 1] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    D.setflags(write=False)
    return D
