import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdual.special_functions import (
    GammaPoleError,
    SpecialFunctionDomainError,
    beta,
    gamma,
    lgamma,
)

# High-precision reference values, pinned once from a 40-digit evaluation.
GAMMA_GOLDEN = {
    0.1: 9.513507698668731836292487,
    0.25: 3.625609908221908311930685,
    0.5: 1.772453850905516027298167,
    0.7: 1.298055332647557785681171,
    1.5: 0.8862269254527580136490837,
    2.5: 1.329340388179137020473626,
    3.7: 4.170651783796603165393603,
    6.3: 201.813275184747503659999,
    9.9: 289867.7038401094067839862,
    12.6: 175523299.4685560494409049,
    20.0: 121645100408832000.0,
    0.01: 99.43258511915060371353299,
    -0.5: -3.544907701811032054596335,
    -1.5: 2.363271801207354703064223,
    -2.5: -0.9453087204829418812256893,
}
# Independent quadrature of t^(-1/2) (1-t)^(1/5) on (0,1), pinned at 1e-14.
BETA_05_12 = 1.791043749738867524164835
LGAMMA_GOLDEN = {50.5: 146.5192554907206272218913, 171.5: 709.1431630309282422723639}


def test_gamma_identities():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("x,expected", sorted(GAMMA_GOLDEN.items()))
def test_gamma_golden(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-13)


def test_gamma_accuracy_band():
    # spec bound: relative error <= 1e-13 on [0.1, 10]
    xs = np.linspace(0.1, 10.0, 997)
    ours = gamma(xs)
    reference = np.array([math.gamma(float(x)) for x in xs])
    rel = np.abs(ours - reference) / np.abs(reference)
    assert rel.max() < 1e-13


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_poles(x):
    with pytest.raises(GammaPoleError):
        gamma(x)


def test_gamma_nan_rejected():
    with pytest.raises(SpecialFunctionDomainError):
        gamma(float("nan"))


def test_gamma_recurrence():
    rng = np.random.default_rng(20260808)
    xs = rng.uniform(0.1, 20.0, size=1000)
    lhs = gamma(xs + 1.0)
    rhs = xs * gamma(xs)
    assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-12


def test_gamma_array_matches_scalar():
    xs = np.array([0.2, 0.9, 3.3, -0.7, 7.7])
    arr = gamma(xs)
    for x, v in zip(xs, arr):
        assert v == pytest.approx(gamma(float(x)), rel=1e-15)


@pytest.mark.parametrize("x", [150.0, 171.0, -150.5])
def test_gamma_is_finite_up_to_overflow(x):
    # the Lanczos power base**(x - 0.5) alone overflows from x ~ 142.5,
    # although Gamma stays finite to x ~ 171.62
    expected = math.gamma(x)
    assert gamma(x) == pytest.approx(expected, rel=1e-13, abs=0.0)
    assert gamma(np.array([x]))[0] == pytest.approx(expected, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("x,expected", [(1e300, math.inf), (171.7, math.inf)])
def test_gamma_overflow_is_a_value(x, expected):
    # past the double range the value is inf, not an OverflowError or nan
    assert gamma(x) == expected
    assert abs(gamma(np.array([x]))[0]) == expected


# The reflection reduces x by its nearest integer before sin(pi x), so the
# bound holds up to 1e-9 from a pole.
_OFF_POLES = st.floats(-20.0, 0.5, exclude_max=True).filter(lambda x: abs(x - round(x)) >= 1e-9)


@given(st.lists(st.one_of(st.floats(0.1, 171.6), _OFF_POLES), min_size=1, max_size=20))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_gamma_scalar_is_the_array_path(xs):
    arr = gamma(np.array(xs))
    for x, v in zip(xs, arr):
        s = gamma(x)
        assert type(s) is float
        assert s == v
        assert abs(s - math.gamma(x)) <= 1e-13 * abs(math.gamma(x))


@given(st.lists(st.floats(0.1, 171.6), min_size=1, max_size=20))
@settings(derandomize=True, max_examples=300, deadline=None)
def test_lgamma_scalar_is_the_array_path(xs):
    # log Gamma crosses zero at 1 and 2, so its error is measured absolutely
    # there: an absolute error in log Gamma is a relative error in Gamma
    arr = lgamma(np.array(xs))
    for x, v in zip(xs, arr):
        s = lgamma(x)
        assert type(s) is float
        assert s == v
        assert abs(s - math.lgamma(x)) <= 1e-13 * max(1.0, abs(math.lgamma(x)))


def test_beta_identities():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(0.5, 0.5) == pytest.approx(math.pi, rel=1e-13)


def test_beta_golden_quadrature_oracle():
    assert beta(0.5, 1.2) == pytest.approx(BETA_05_12, rel=1e-13)
    assert beta(2.5, 3.5) == pytest.approx(0.0368155389092553895132341, rel=1e-13)


def test_beta_large_arguments_no_overflow():
    v = beta(150.0, 180.0)
    assert 0.0 < v < 1.0


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, -0.5)])
def test_beta_domain(a, b):
    with pytest.raises(SpecialFunctionDomainError):
        beta(a, b)


@given(
    a=st.floats(min_value=0.01, max_value=50.0),
    b=st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=200, deadline=None)
def test_beta_symmetry(a, b):
    x, y = beta(a, b), beta(b, a)
    assert abs(x - y) <= 1e-13 * abs(x)


def test_beta_gamma_consistency():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a, b = rng.uniform(0.05, 12.0, size=2)
        lhs = beta(a, b) * gamma(a + b)
        rhs = gamma(a) * gamma(b)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


@pytest.mark.parametrize("x,expected", sorted(LGAMMA_GOLDEN.items()))
def test_lgamma_golden(x, expected):
    assert lgamma(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x", [0.0, -1.5, float("nan"), np.array([1.0, -1.0])])
def test_lgamma_domain(x):
    with pytest.raises(SpecialFunctionDomainError):
        lgamma(x)


def test_lgamma_small_argument_reflection():
    assert lgamma(0.3) == pytest.approx(math.lgamma(0.3), rel=1e-13)
