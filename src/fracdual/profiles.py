"""Named function profiles for derivative benchmarks.

A profile supplies analytic derivative samples (isolating quadrature
error from reconstruction error), several orders per call so that they
may share f's transcendental, and an independent value for
D^alpha f: the truncated series for the named transcendentals (refused
where its terms run out before it converges), the monomial rule for
powers. Power profiles with beta - d < 0 are singular at x = 0; their
sample there follows the IEEE limit (inf) and propagates honestly
through whatever consumes it.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .caputo import FractionalOrder, TaylorNonConvergence, caputo_power, caputo_taylor, tan_taylor_coeffs
from .special_functions import gamma

__all__ = ["DerivativeProfile", "get_profile", "PROFILE_NAMES"]

# The series oracles sum f^(k)(0) for k <= _SERIES_TERMS; the profiles
# give them k up to _SERIES_TERMS + 2, where the first nonzero term past
# those lies for tan, sin, cos and exp.
_SERIES_TERMS = 48


@dataclass(frozen=True)
class DerivativeProfile:
    """f with analytic derivatives and an independent fractional oracle."""

    name: str
    # (orders, x) -> one array of d-th derivative samples per order d >= 0
    derivative: Callable[[tuple[int, ...], np.ndarray], tuple[np.ndarray, ...]]
    oracle: Callable[[FractionalOrder, float], float]


def _series_oracle(name: str, coeffs):
    """``caputo_taylor`` over f^(k)(0) = coeffs[k] for k <= _SERIES_TERMS.
    The sum stands only if the first nonzero term past those, from the rest
    of ``coeffs``, is within the stop rule's 1e-16 of it: else the terms
    ran out first, and the oracle raises TaylorNonConvergence."""
    kept = coeffs[: _SERIES_TERMS + 1]
    k = next(k for k in range(len(kept), len(coeffs)) if coeffs[k] != 0.0)

    def oracle(ordr: FractionalOrder, x: float) -> float:
        total, a = caputo_taylor(kept, ordr, x), ordr.effective
        with np.errstate(over="ignore"):  # a term past the double range fails the test as inf
            rest = coeffs[k] * np.float64(x) ** (k - a) / math.gamma(k + 1.0 - a)
        if abs(rest) > 1e-16 * abs(total):
            raise TaylorNonConvergence(
                f"{name} series has not converged in {len(kept)} terms at x={x}: "
                f"the next term is {rest:.3g} against the sum {total:.6g}"
            )
        return total

    return oracle


def _each_order(deriv):
    """``derivative`` from deriv(d, x), one order at a time."""
    return lambda orders, x: tuple(deriv(d, x) for d in orders)


def _tan_derivative(d, t, s):
    """The d-th derivative of tan from t = tan(x) and s = 1 + t^2."""
    if d == 0:
        return t
    if d == 1:
        return s
    if d == 2:
        return 2.0 * t * s
    if d == 3:
        return 2.0 * s * (1.0 + 3.0 * t * t)
    raise ValueError(f"tan profile supplies derivatives up to 3, asked for {d}")


def _tan_profile() -> DerivativeProfile:
    def samples(orders, x):
        t = np.tan(x)
        s = 1.0 + t * t
        return tuple(_tan_derivative(d, t, s) for d in orders)

    return DerivativeProfile("tan", samples, _series_oracle("tan", tan_taylor_coeffs(_SERIES_TERMS + 2)))


def _cycle_profile(name, fns):
    """f whose d-th derivative is fns[d % 4]; the series takes f^(k)(0) from them."""
    coeffs = [float(fns[k % 4](0.0)) for k in range(_SERIES_TERMS + 3)]

    def samples(orders, x):
        values = {f: f(x) for f in {fns[d % 4] for d in orders}}  # exp's orders share one np.exp
        return tuple(values[fns[d % 4]] for d in orders)

    return DerivativeProfile(name, samples, _series_oracle(name, coeffs))


def _const1_profile():
    def deriv(d, x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x) if d == 0 else np.zeros_like(x)

    return DerivativeProfile("const1", _each_order(deriv), lambda ordr, x: 0.0)


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
        f"x^{beta:g}", _each_order(deriv), lambda ordr, x: caputo_power(beta, ordr, x)
    )


_NAMED = {
    "tan": _tan_profile,
    "sin": lambda: _cycle_profile("sin", (np.sin, np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x))),
    "cos": lambda: _cycle_profile("cos", (np.cos, lambda x: -np.sin(x), lambda x: -np.cos(x), np.sin)),
    "exp": lambda: _cycle_profile("exp", (np.exp,) * 4),
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
