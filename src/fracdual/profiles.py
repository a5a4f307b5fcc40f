"""Named function profiles for derivative benchmarks.

A profile supplies analytic derivative samples (isolating quadrature
error from reconstruction error) and an independent value for
D^alpha f: the truncated series for the named transcendentals, the
monomial rule for powers. Power profiles with beta - d < 0 are singular
at x = 0; their sample there follows the IEEE limit (inf) and
propagates honestly through whatever consumes it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caputo import FractionalOrder, caputo_power, caputo_taylor, tan_taylor_coeffs
from .special_functions import gamma

__all__ = ["DerivativeProfile", "get_profile", "PROFILE_NAMES"]

_SERIES_TERMS = 48


@dataclass(frozen=True)
class DerivativeProfile:
    """f with analytic derivatives and an independent fractional oracle."""

    name: str
    derivative: Callable[[int, np.ndarray], np.ndarray]  # d-th derivative samples, d >= 0
    oracle: Callable[[FractionalOrder, float], float]

    def value(self, x):
        return self.derivative(0, x)


def _tan_profile() -> DerivativeProfile:
    def deriv(d, x):
        t = np.tan(x)
        s = 1.0 + t * t
        if d == 0:
            return t
        if d == 1:
            return s
        if d == 2:
            return 2.0 * t * s
        if d == 3:
            return 2.0 * s * (1.0 + 3.0 * t * t)
        raise ValueError(f"tan profile supplies derivatives up to 3, asked for {d}")

    coeffs = tan_taylor_coeffs(_SERIES_TERMS)
    return DerivativeProfile(
        "tan", deriv, lambda ordr, x: caputo_taylor(coeffs, ordr, x)
    )


def _cycle_profile(name, fns, coeffs):
    def deriv(d, x):
        return fns[d % 4](x)

    return DerivativeProfile(name, deriv, lambda ordr, x: caputo_taylor(coeffs, ordr, x))


def _sin_profile():
    coeffs = [0.0, 1.0, 0.0, -1.0] * (_SERIES_TERMS // 4 + 1)
    return _cycle_profile("sin", (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x)), coeffs[: _SERIES_TERMS + 1])


def _cos_profile():
    coeffs = [1.0, 0.0, -1.0, 0.0] * (_SERIES_TERMS // 4 + 1)
    return _cycle_profile("cos", (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin), coeffs[: _SERIES_TERMS + 1])


def _exp_profile():
    coeffs = [1.0] * (_SERIES_TERMS + 1)

    def deriv(d, x):
        return np.exp(x)

    return DerivativeProfile("exp", deriv, lambda ordr, x: caputo_taylor(coeffs, ordr, x))


def _const1_profile():
    def deriv(d, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if d == 0 else np.zeros_like(x)

    return DerivativeProfile("const1", deriv, lambda ordr, x: 0.0)


def _power_profile(beta: float) -> DerivativeProfile:
    def deriv(d, x):
        x = np.asarray(x, dtype=float)
        coeff = 1.0
        for i in range(d):
            coeff *= beta - i
        expo = beta - d
        with np.errstate(divide="ignore"):
            out = coeff * np.where(x > 0.0, x, 1.0) ** expo
            if expo < 0.0:
                out = np.where(x == 0.0, np.inf * np.sign(coeff) if coeff != 0.0 else 0.0, out)
            elif expo == 0.0:
                out = np.full_like(x, coeff)
            else:
                out = np.where(x == 0.0, 0.0, out)
        return out

    return DerivativeProfile(
        f"x^{beta:g}", deriv, lambda ordr, x: caputo_power(beta, ordr, x)
    )


_NAMED = {
    "tan": _tan_profile,
    "sin": _sin_profile,
    "cos": _cos_profile,
    "exp": _exp_profile,
    "const1": _const1_profile,
}

PROFILE_NAMES = tuple(_NAMED) + ("x^<beta>",)

_POWER_RE = re.compile(r"^x\s*\^\s*([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)$")


def get_profile(name: str) -> DerivativeProfile:
    """Look up a named profile, or parse a monomial spec like ``x^1.2``."""
    key = name.strip()
    if key in _NAMED:
        return _NAMED[key]()
    match = _POWER_RE.match(key)
    if match:
        beta = float(match.group(1))
        if not math.isfinite(beta):
            raise ValueError(f"exponent of {name!r} must be finite, got {beta}")
        if not math.isfinite(gamma(beta + 1.0)):
            raise ValueError(f"exponent of {name!r} overflows the oracle's gamma(beta + 1), got {beta}")
        return _power_profile(beta)
    raise ValueError(
        f"unknown function profile {name!r}; choose one of {', '.join(PROFILE_NAMES)}"
    )
