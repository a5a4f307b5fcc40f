import math

import numpy as np
import pytest

from dense_stencils import difference_matrix_3pt, differentiation_matrix
from fracdual.caputo import FractionalOrder
from fracdual.operators import fractional_operators
from fracdual.stencils import (
    STENCILS,
    apply_rows,
    apply_stencil,
    differentiation_rows,
)

ALL_KINDS = sorted(STENCILS)


@pytest.mark.parametrize("key", ALL_KINDS)
def test_row_sums_to_zero(key):
    # a stencil must annihilate constants
    assert math.fsum(STENCILS[key].coefficients) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("key", ALL_KINDS)
def test_polynomial_exactness(key):
    # exact on x^p for p up to formal_order + d - 1, sampled at 20 nodes
    d, placement = key
    kind = STENCILS[key]
    h = 0.05
    for p in range(0, kind.formal_order + d):
        for base in np.linspace(1.0, 3.0, 20):
            xs = base + (np.arange(kind.width) - kind.node) * h
            window = xs**p
            expected = 0.0
            if p >= d:
                c = 1.0
                for i in range(d):
                    c *= p - i
                expected = c * base ** (p - d)
            got = apply_stencil(d, placement, window, h)
            assert got == pytest.approx(expected, rel=1e-7, abs=1e-7)


def test_constant_window_annihilated():
    # raw rows sum to zero exactly; after the 1/h^d scaling the application
    # is zero to round-off at the coefficient scale
    for d, placement in ALL_KINDS:
        width = STENCILS[(d, placement)].width
        got = apply_stencil(d, placement, np.full(width, 4.25), 0.1)
        assert abs(got) <= 1e-12 / 0.1**d


def test_first_derivative_examples():
    # x^2 sampled around 1.0; the central row is exact on quartics
    h = 0.1
    xs = 1.0 + (np.arange(5) - 2) * h
    assert apply_stencil(1, "central", xs**2, h) == pytest.approx(2.0, rel=1e-13)
    # sin with the forward rule: second-order error, halving ratio near 4
    errs = []
    for h in (0.01, 0.005):
        xs = 0.5 + np.arange(3) * h
        errs.append(abs(apply_stencil(1, "forward", np.sin(xs), h) - math.cos(0.5)))
    ratio = errs[0] / errs[1]
    assert 3.5 <= ratio <= 4.5


def test_second_derivative_examples():
    h = 0.02
    xs = 0.7 + np.arange(4) * h
    assert apply_stencil(2, "forward", 3 * xs + 2, h) == pytest.approx(0.0, abs=1e-10)
    for placement, nodes in (("forward", 4), ("central", 5), ("backward", 4)):
        xs = 0.4 + np.arange(nodes) * h
        assert apply_stencil(2, placement, xs**2, h) == pytest.approx(2.0, rel=1e-10)
    h = 0.01
    xs = 0.3 + (np.arange(5) - 2) * h
    assert abs(apply_stencil(2, "central", np.exp(xs), h) - math.exp(0.3)) <= 1e-8


def test_third_derivative_examples():
    h = 0.05
    for placement in ("forward", "central", "backward"):
        kind = STENCILS[(3, placement)]
        xs = 1.2 + (np.arange(kind.width) - kind.node) * h
        assert apply_stencil(3, placement, xs**3, h) == pytest.approx(6.0, rel=1e-9)
        assert apply_stencil(3, placement, xs**2, h) == pytest.approx(0.0, abs=1e-9)
    errs = []
    for h in (0.005, 0.0025):
        xs = 0.4 + (np.arange(5) - 2) * h
        errs.append(abs(apply_stencil(3, "central", np.sin(xs), h) - (-math.cos(0.4))))
    assert 3.5 <= errs[0] / errs[1] <= 4.5


@pytest.mark.parametrize("key", ALL_KINDS)
def test_empirical_order(key):
    d, placement = key
    kind = STENCILS[key]
    f = np.sin
    exact = {1: math.cos, 2: lambda x: -math.sin(x), 3: lambda x: -math.cos(x)}[d]
    errs = []
    for h in (0.02, 0.01):
        xs = 0.6 + (np.arange(kind.width) - kind.node) * h
        errs.append(abs(apply_stencil(d, placement, f(xs), h) - exact(0.6)))
    observed = math.log2(errs[0] / errs[1])
    assert abs(observed - kind.formal_order) <= 0.5


def test_window_length_mismatch():
    with pytest.raises(ValueError):
        apply_stencil(1, "forward", [1.0, 2.0], 0.1)
    with pytest.raises(ValueError):
        apply_stencil(2, "forward", np.zeros(5), 0.1)
    with pytest.raises(ValueError):
        apply_stencil(3, "central", np.zeros(3), 0.1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: apply_stencil(1, "forward", [1.0, 2.0, 3.0], math.nan), "step must be positive and finite"),
        (lambda: apply_stencil(1, "forward", [1.0, 2.0, 3.0], math.inf), "step must be positive and finite"),
        (lambda: apply_stencil(1, "forward", [1.0, 2.0, 3.0], 0.0), "step must be positive and finite"),
        (lambda: differentiation_rows(1, math.nan), "step must be positive and finite"),
        (lambda: apply_stencil(4, "forward", np.zeros(6), 0.1), "orders are 1-3"),
        (lambda: apply_stencil(1, "sideways", np.zeros(3), 0.1), "placements forward, central and backward"),
        (lambda: differentiation_rows(4, 0.1), "orders are 1-3"),
        (lambda: next(fractional_operators(FractionalOrder(3.5), 0.1, 10)), "orders are 1-3"),
    ],
    ids=["nan step", "inf step", "zero step", "rows nan step", "order 4", "placement", "rows order 4", "operator n=4"],
)
def test_bad_step_or_stencil_key_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_differentiation_matrix_layout():
    m, h = 12, 0.1
    for d in (1, 2, 3):
        S = differentiation_matrix(m, h, d)
        u = (np.arange(m + 1) * h) ** 2
        expected_d = {1: 2 * np.arange(m + 1) * h, 2: np.full(m + 1, 2.0), 3: np.zeros(m + 1)}[d]
        assert np.allclose(S @ u, expected_d, atol=1e-9)
        # row placements: one-sided rows touch only one side
        assert S[0, : 0] .size == 0 and S[0, 6:].sum() == 0.0
        assert S[m, :m - 5].sum() == 0.0


def test_differentiation_matrix_matches_window_ops():
    m, h = 15, 0.05
    rng = np.random.default_rng(3)
    u = rng.normal(size=m + 1)
    for d in (1, 2, 3):
        S = differentiation_matrix(m, h, d)
        got = S @ u
        for k in range(m + 1):
            if k < 2:
                placement, kind = "forward", STENCILS[(d, "forward")]
                window = u[k : k + kind.width]
            elif k > m - 2:
                placement, kind = "backward", STENCILS[(d, "backward")]
                window = u[k - kind.width + 1 : k + 1]
            else:
                placement, kind = "central", STENCILS[(d, "central")]
                window = u[k - kind.node : k - kind.node + kind.width]
            assert got[k] == pytest.approx(apply_stencil(d, placement, window, h), rel=1e-12, abs=1e-12)


def test_differentiation_matrix_rejects_small_grids():
    with pytest.raises(ValueError):
        differentiation_matrix(7, 0.1, 1)


def test_difference_matrix_3pt():
    m, h = 10, 0.1
    D = difference_matrix_3pt(m, h)
    x = np.arange(m + 1) * h
    # exact on quadratics at interior rows and on the one-sided end rows
    assert np.allclose(D @ x**2, 2 * x, atol=1e-10)
    assert np.allclose(D @ np.ones(m + 1), 0.0, atol=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("m", [8, 9, 30])
def test_apply_rows_matches_matrices(order, m):
    h = 0.1
    rows, M = differentiation_rows(order, h), differentiation_matrix(m, h, order)
    V = np.random.default_rng(4).normal(size=(m + 1, 3))
    assert np.allclose(apply_rows(rows, V), M @ V, rtol=1e-13, atol=1e-10)
    assert np.allclose(apply_rows(rows, V[:, 0]), M @ V[:, 0], rtol=1e-13, atol=1e-10)
