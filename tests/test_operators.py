import gc
import weakref

import numpy as np
import pytest
from dense_stencils import difference_matrix_3pt, differentiation_matrix, operator_of

from fracdual.bench import FIXTURES, load_fixture
from fracdual.caputo import (
    FractionalOrder,
    GridFunction,
    MethodKind,
    caputo_byparts,
    caputo_substitution,
    power_weights,
)
from fracdual.operators import fractional_operators, products
from fracdual.solver import grid_size
from fracdual.special_functions import gamma


def dense_operator(method, order, h, m):
    """The operator as the dense products W @ S_n and c S_n[0] + P @ (D @ S_n).

    Row k of W and P holds the per-sample weights of caputo_substitution
    and caputo_byparts at t_index k: trapezoid averages times the
    increments of u = (t-x)^p for substitution, h*w[k-j] (half at j = 0)
    for by-parts, whose boundary column is c = w.
    """
    n = order.n
    w = power_weights(n - order.effective, h, m) / gamma(n + 1 - order.effective)
    Sn = differentiation_matrix(m, h, n)
    L = np.zeros((m + 1, m + 1))
    for k in range(1, m + 1):
        if method is MethodKind.SUBSTITUTION:
            du = w[k:0:-1] - w[k - 1 :: -1]
            L[k, :k] += 0.5 * du
            L[k, 1 : k + 1] += 0.5 * du
        else:
            L[k, 0] = 0.5 * h * w[k]
            L[k, 1:k] = h * w[k - 1 : 0 : -1]
    if method is MethodKind.SUBSTITUTION:
        return L @ Sn
    return np.outer(w, Sn[0]) + L @ (difference_matrix_3pt(m, h) @ Sn)


def _oracle_cases():
    """(alpha, h, m) over an order/grid ladder plus every fixture's terms."""
    # 2.5 takes the third-derivative stencils, the widest one-sided rows
    alphas = (0.3, 0.5, 0.9, 1.0, 1.3, 1.7, 2.0, 2.5)
    cases = {(a, 1.0 / m, m) for a in alphas for m in (8, 9, 10, 40, 1000)}
    for name in FIXTURES:
        problem = load_fixture(name)
        m = grid_size(problem.equation.interval_end, problem.h)
        cases.update((t.order.alpha, problem.h, m) for t in problem.equation.terms)
    return sorted(cases)


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("alpha,h,m", _oracle_cases())
def test_matches_dense_product(method, alpha, h, m):
    o = FractionalOrder(alpha)
    want = dense_operator(method, o, h, m)
    op = operator_of(method, o, h, m)
    got = op.block(0, m + 1, 0, m + 1)
    assert got.shape == (m + 1, m + 1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # partial blocks: interior, cutting the leading and the trailing edge columns
    n = m + 1
    for k0, k1, l0, l1 in ((m // 2, n, 3, m - 2), (1, 6, 4, 9), (m - 4, n, m - 8, n), (m, n, 0, n)):
        block = op.block(k0, k1, l0, l1)
        assert block.shape == want[k0:k1, l0:l1].shape
        assert np.max(np.abs(block - want[k0:k1, l0:l1])) <= 1e-12 * np.max(np.abs(want))
    # the strips left of the diagonal at row i that the Newton step multiplies,
    # reaching the leading edge columns, the interior and the trailing ones
    W = np.random.default_rng(m).normal(size=(4, 32))
    for w in (6, 32):
        for i in sorted({w, (m + w) // 2, m - 2, m + 1} & set(range(w, m + 2))):
            got = op.strip(i, W[:, :w])
            assert got.shape == (4, m + 1 - i)
            bound = 1e-12 * np.max(np.abs(want)) * np.sum(np.abs(W[:, :w]), axis=1, keepdims=True)
            assert np.all(np.abs(got - W[:, :w] @ want[i:, i - w : i].T) <= bound)
    # the products the solver takes, on a signed vector: entries are summed
    # in another order, so compare against the absolute-value sums
    u = np.random.default_rng(m).normal(size=m + 1)
    scale = np.max(np.abs(want) @ np.abs(u))
    assert np.max(np.abs(op @ u - want @ u)) <= 1e-12 * scale
    assert np.max(np.abs(abs(op) @ np.abs(u) - np.abs(want) @ np.abs(u))) <= 1e-12 * scale
    assert np.max(np.abs(op.diagonal() - np.diag(want))) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("alpha", [0.3, 1.7])
@pytest.mark.parametrize("m", [1023, 1024, 2047, 2048])
def test_products_hold_where_the_cyclic_length_steps(method, alpha, m):
    # the product is a cyclic convolution of a power-of-two length over 2m;
    # 2m + 1 falls just under or just over a power of two on these grids
    op = operator_of(method, FractionalOrder(alpha), 1.0 / m, m)
    A = op.block(0, m + 1, 0, m + 1)
    u = np.random.default_rng(m).normal(size=m + 1)
    scale = np.max(np.abs(A) @ np.abs(u))
    assert np.max(np.abs(op @ u - A @ u)) <= 1e-12 * scale
    assert np.max(np.abs(abs(op) @ np.abs(u) - np.abs(A) @ np.abs(u))) <= 1e-12 * scale


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["n=1", "n=2"])
@pytest.mark.parametrize("m", [8, 33, 36, 100])
def test_panel_diagonal_blocks_match_dense(method, alpha, m):
    # the Newton step's diagonal blocks (k, min(k + 35, n)), k a multiple of
    # 32: on these grids they reach the edge columns at both ends, and on
    # the smaller ones a block holds both ends at once
    o = FractionalOrder(alpha)
    want = dense_operator(method, o, 1.0 / m, m)
    op = operator_of(method, o, 1.0 / m, m)
    n = m + 1
    K = np.random.default_rng(m).normal(size=(n, 1))
    bound = 1e-12 * np.max(np.abs(want))
    off_edge = []
    for k0 in range(0, n, 32):
        k1 = min(k0 + 35, n)
        block = op.block(k0, k1, k0, k1)
        assert np.max(np.abs(block - want[k0:k1, k0:k1])) <= bound
        # a block is a new array: scaling it in place is one multiply of the
        # same entries and leaves the next one as it was
        scaled = op.block(k0, k1, k0, k1)
        scaled *= K[k0:k1]
        assert np.array_equal(scaled, K[k0:k1] * block)
        assert np.array_equal(op.block(k0, k1, k0, k1), block)
        # off the edge columns the block is the kernel's shared slice
        assert op.reaches_edge(k0, k1) == (k0 < 6 or k1 > n - 6)
        if not op.reaches_edge(k0, k1):
            off_edge.append(k0)
            assert np.max(np.abs(op.core(k1 - k0) - want[k0:k1, k0:k1])) <= bound
            assert np.array_equal(op.core(k1 - k0), block)
    assert off_edge == {8: [], 33: [], 36: [], 100: [32]}[m]


def test_rejects_grids_below_stencil_layout():
    with pytest.raises(ValueError, match="m >= 8"):
        next(fractional_operators(FractionalOrder(0.5), 0.2, 7))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.3, 1.7])
def test_substitution_rows_match_scalar_op(alpha):
    o = FractionalOrder(alpha)
    h, m = 0.02, 40
    rng = np.random.default_rng(1)
    u = np.cumsum(rng.normal(size=m + 1)) * h  # smooth-ish walk
    A = operator_of(MethodKind.SUBSTITUTION, o, h, m)
    gn = differentiation_matrix(m, h, o.n) @ u
    got = A @ u
    for k in range(1, m + 1):
        want = caputo_substitution(GridFunction(h, gn), o, k)
        assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[0] == 0.0


@pytest.mark.parametrize("alpha", [0.3, 0.9, 1.3, 1.7])
def test_byparts_rows_match_scalar_op(alpha):
    o = FractionalOrder(alpha)
    h, m = 0.02, 40
    rng = np.random.default_rng(2)
    u = np.cumsum(rng.normal(size=m + 1)) * h
    A = operator_of(MethodKind.BYPARTS, o, h, m)
    gn = differentiation_matrix(m, h, o.n) @ u
    gp = difference_matrix_3pt(m, h) @ gn
    got = A @ u
    for k in range(1, m + 1):
        want = caputo_byparts(float(gn[0]), GridFunction(h, gp), o, k)
        assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert got[0] == 0.0


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("alpha", [0.5, 1.7])
def test_annihilates_constants(method, alpha):
    o = FractionalOrder(alpha)
    A = operator_of(method, o, 0.01, 30)
    out = A @ np.full(31, 3.7)
    assert np.max(np.abs(out)) <= 1e-9


def test_operator_is_read_only_and_dies_with_its_caller():
    # nothing outside the caller keeps a dense operator alive
    a = operator_of(MethodKind.SUBSTITUTION, FractionalOrder(0.5), 0.01, 20)
    assert not a.rev.flags.writeable
    assert not a.edge.flags.writeable
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is None


def test_byparts_tracks_substitution_on_smooth_data():
    # the by-parts operator is the summation-by-parts dual of substitution;
    # on smooth data the two differ only through the boundary-derivative
    # channel, far below either one's own magnitude
    o = FractionalOrder(0.9)
    h, m = 1e-3, 1000
    x = np.arange(m + 1) * h
    u = -0.28 * x**2 + 0.05 * x**3
    S = operator_of(MethodKind.SUBSTITUTION, o, h, m).block(0, m + 1, 0, m + 1)
    B = operator_of(MethodKind.BYPARTS, o, h, m).block(0, m + 1, 0, m + 1)
    ds = np.max(np.abs((B - S) @ u))
    magnitude = np.max(np.abs(S @ u))
    assert ds <= 1e-5 * max(1.0, magnitude)


# l for S_1 and S_2, times h^n: the by-parts boundary term reads u^(n)(0)
# through these five samples, l.u = (h^2/3) u'''(0) and (23/48) h^2 u''''(0)
_BOUNDARY_ROW = {1: -np.array([17, -52, 54, -20, 1]) / 48, 2: 23 / 48 * np.array([1, -4, 6, -4, 1])}


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.3, 1.7])
@pytest.mark.parametrize("m", [8, 40, 1000])
def test_methods_differ_by_rank_one_boundary_term(alpha, m):
    # summation by parts: A_subst - A_byparts = b l^T with b = w / Gamma(n+1-alpha)
    o = FractionalOrder(alpha)
    n, h = o.n, 1.0 / m
    b = power_weights(n - o.effective, h, m) / gamma(n + 1 - o.effective)
    ell = np.zeros(m + 1)
    ell[:5] = _BOUNDARY_ROW[n] / h**n
    want = np.outer(b, ell)
    got = dense_operator(MethodKind.SUBSTITUTION, o, h, m) - dense_operator(MethodKind.BYPARTS, o, h, m)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # built that way: one kernel, and edge columns that differ only on 0-4
    subst, byparts = fractional_operators(o, h, m)
    assert np.array_equal(subst.rev, byparts.rev)
    assert np.array_equal(subst.cols, byparts.cols)
    differs = (subst.edge != byparts.edge).any(axis=0)
    assert np.array_equal(subst.cols[differs], np.arange(5))


@pytest.mark.parametrize("alpha", [0.5, 1.5], ids=["n=1", "n=2"])
@pytest.mark.parametrize("m", [8, 12, 36, 1000])
def test_byparts_operator_shares_the_substitution_kernel(alpha, m):
    # the two methods' operators of one term hold one kernel
    o = FractionalOrder(alpha)
    subst, byparts = fractional_operators(o, 1.0 / m, m)
    assert byparts.kernel is subst.kernel
    # abs() of either operator shares the one kernel of absolute values
    assert abs(subst).kernel is abs(byparts).kernel is subst.kernel.magnitude


@pytest.mark.parametrize("m", [8, 1000])
def test_products_transform_u_once_for_every_operator(m):
    # one rfft of u for all terms gives each A_i @ u bit for bit, and so
    # for the floor's abs(A_i) @ |u|
    h = 1.0 / m
    orders = [FractionalOrder(a) for a in (0.3, 0.9, 1.5)]
    ops = [A for o in orders for A in fractional_operators(o, h, m)]
    u = np.random.default_rng(m).normal(size=m + 1)
    for A, Au in zip(ops, products(ops, u)):
        assert Au.tobytes() == (A @ u).tobytes()
    magnitudes = [abs(A) for A in ops]
    for A, Au in zip(magnitudes, products(magnitudes, np.abs(u))):
        assert Au.tobytes() == (A @ np.abs(u)).tobytes()
