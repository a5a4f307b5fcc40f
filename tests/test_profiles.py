import math

import numpy as np
import pytest

from fracdual.caputo import FractionalOrder, TaylorNonConvergence, caputo_taylor, tan_taylor_coeffs
from fracdual.profiles import get_profile


def derivative(profile, d, x):
    """The d-th derivative samples alone, from the profile's tuple call."""
    (samples,) = profile.derivative((d,), x)
    return samples


@pytest.mark.parametrize("name", ["tan", "sin", "cos", "exp", "const1"])
def test_named_profiles_exist(name):
    profile = get_profile(name)
    x = np.array([0.2, 0.4])
    assert derivative(profile, 0, x).shape == (2,)


def test_unknown_profile():
    with pytest.raises(ValueError, match="unknown function profile"):
        get_profile("sinh")


@pytest.mark.parametrize("name,d", [("tan", 1), ("tan", 2), ("tan", 3), ("sin", 1), ("exp", 2)])
def test_derivatives_match_finite_differences(name, d):
    profile = get_profile(name)
    x = np.array([0.3, 0.7])
    h = 1e-5
    lower = derivative(profile, d - 1, x - h)
    upper = derivative(profile, d - 1, x + h)
    numeric = (upper - lower) / (2 * h)
    assert np.allclose(derivative(profile, d, x), numeric, rtol=1e-7, atol=1e-7)


def test_power_profile():
    profile = get_profile("x^1.2")
    x = np.array([0.0, 0.25, 1.0])
    assert np.allclose(derivative(profile, 0, x), x**1.2)
    d1 = derivative(profile, 1, x)
    assert d1[0] == 0.0  # positive exponent limit at zero
    d2 = derivative(profile, 2, x)
    assert math.isinf(d2[0])  # singular sample propagates as inf
    assert d2[1] == pytest.approx(1.2 * 0.2 * 0.25 ** (-0.8))


def test_power_profile_oracle_is_power_rule():
    profile = get_profile("x^1.2")
    ordr = FractionalOrder(0.5)
    assert profile.oracle(ordr, 0.5) == pytest.approx(0.7464341614606745, rel=1e-12)


def test_const1_oracle_zero():
    profile = get_profile("const1")
    assert profile.oracle(FractionalOrder(0.5), 0.7) == 0.0
    assert np.all(derivative(profile, 1, np.array([0.1, 0.9])) == 0.0)


def test_tan_profile_oracle_matches_series_benchmark():
    profile = get_profile("tan")
    assert profile.oracle(FractionalOrder(0.4), 0.1) == pytest.approx(0.2824821555, abs=1e-9)


@pytest.mark.parametrize("name, x", [("tan", 0.8), ("sin", 10.0), ("cos", 10.0), ("exp", 20.0)])
def test_series_oracle_refuses_a_sum_whose_terms_ran_out(name, x):
    # the 49 terms run out before three of them fall below 1e-16 of the sum,
    # and the next nonzero term does not
    with pytest.raises(TaylorNonConvergence, match=f"^{name} series has not converged in 49 terms at x={x}: "):
        get_profile(name).oracle(FractionalOrder(0.4), x)


@pytest.mark.parametrize("alpha", [1.3, 1.7])
def test_series_oracle_keeps_a_sum_whose_next_term_is_below_the_stop_rule(alpha):
    # at x = 0.6 tan's 49 terms run out too, with the next one under 6e-18 of the sum
    order = FractionalOrder(alpha)
    got = get_profile("tan").oracle(order, 0.6)
    assert got == caputo_taylor(tan_taylor_coeffs(48), order, 0.6)
    assert tan_taylor_coeffs(49)[49] * 0.6 ** (49 - alpha) / math.gamma(50 - alpha) < 6e-18 * got


@pytest.mark.parametrize("name", ["tan", "sin", "cos", "exp", "const1", "x^1.2"])
def test_orders_asked_together_match_each_alone(name):
    profile = get_profile(name)
    x = np.array([0.0, 0.2, 0.45, 0.9])
    together = profile.derivative((1, 2), x)
    assert isinstance(together, tuple) and len(together) == 2
    for d, samples in zip((1, 2), together):
        (alone,) = profile.derivative((d,), x)
        assert samples.tobytes() == alone.tobytes()


@pytest.mark.parametrize("name", ["tan", "exp"])
def test_orders_asked_together_evaluate_f_once(monkeypatch, name):
    # a derivative row asks for f^(n) and f^(n+1) on one block of nodes
    calls = []
    original = getattr(np, name)
    monkeypatch.setattr(np, name, lambda x: calls.append(x) or original(x))
    profile = get_profile(name)
    calls.clear()
    profile.derivative((1, 2), np.linspace(0.1, 0.9, 5))
    assert len(calls) == 1
