import math

import numpy as np
import pytest

from fracdual.caputo import FractionalOrder
from fracdual.profiles import get_profile


@pytest.mark.parametrize("name", ["tan", "sin", "cos", "exp", "const1"])
def test_named_profiles_exist(name):
    profile = get_profile(name)
    x = np.array([0.2, 0.4])
    assert profile.derivative(0, x).shape == (2,)


def test_unknown_profile():
    with pytest.raises(ValueError, match="unknown function profile"):
        get_profile("sinh")


@pytest.mark.parametrize("name,d", [("tan", 1), ("tan", 2), ("tan", 3), ("sin", 1), ("exp", 2)])
def test_derivatives_match_finite_differences(name, d):
    profile = get_profile(name)
    x = np.array([0.3, 0.7])
    h = 1e-5
    lower = profile.derivative(d - 1, x - h)
    upper = profile.derivative(d - 1, x + h)
    numeric = (upper - lower) / (2 * h)
    assert np.allclose(profile.derivative(d, x), numeric, rtol=1e-7, atol=1e-7)


def test_power_profile():
    profile = get_profile("x^1.2")
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(profile.derivative(0, x), x**1.2)
    d1 = profile.derivative(1, x)
    assert d1[0] == 0.0  # positive exponent limit at zero
    d2 = profile.derivative(2, x)
    assert math.isinf(d2[0])  # singular sample propagates as inf
    assert d2[1] == pytest.approx(1.2 * 0.2 * 0.25 ** (-0.8))


def test_power_profile_oracle_is_power_rule():
    profile = get_profile("x^1.2")
    ordr = FractionalOrder(0.5)
    assert profile.oracle(ordr, 0.5) == pytest.approx(0.7464341614606745, rel=1e-12)


def test_const1_oracle_zero():
    profile = get_profile("const1")
    assert profile.oracle(FractionalOrder(0.5), 0.7) == 0.0
    assert np.all(profile.derivative(1, np.array([0.1, 0.9])) == 0.0)


def test_tan_profile_oracle_matches_series_benchmark():
    profile = get_profile("tan")
    assert profile.oracle(FractionalOrder(0.4), 0.1) == pytest.approx(0.2824821555, abs=1e-9)
