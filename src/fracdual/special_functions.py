"""Gamma and beta functions.

Every quadrature weight and manufactured solution in this package runs
through these two functions, so they are implemented locally (Lanczos
rational approximation, g = 607/128, 15 terms) rather than delegated,
and beta goes through log-gamma to stay finite for large arguments.
Accuracy is ~1e-14 relative on [0.1, 20], verified against pinned
high-precision values in the tests.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma", "lgamma", "beta", "GammaPoleError", "SpecialFunctionDomainError"]


class GammaPoleError(ValueError):
    """gamma evaluated at a non-positive integer."""


class SpecialFunctionDomainError(ValueError):
    """Argument outside the function's real domain (NaN, or beta with a <= 0)."""


# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's set, standard in
# GSL/Boost-class implementations; relative error < 1e-14 in double).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    3.3994649984811888699e-5,
    4.6523628927048575665e-5,
    -9.8374475304879564677e-5,
    1.5808870322491248884e-4,
    -2.1026444172410488319e-4,
    2.1743961811521264320e-4,
    -1.6431810653676389022e-4,
    8.4418223983852743293e-5,
    -2.6190838401581408670e-5,
    3.6899182659531622704e-6,
)
_SQRT_2PI = 2.5066282746310002
# Gamma(x) exceeds the largest double above this; past it the Lanczos
# form would give inf * 0 = nan.
_GAMMA_OVERFLOW = 171.6243769563027
_LOG_SQRT_2PI = 0.91893853320467274178


def _lanczos_sum(x):
    s = _LANCZOS_C[0]
    for i in range(1, 15):
        s = s + _LANCZOS_C[i] / (x - 1.0 + i)
    return s


def _gamma_positive(x):
    # valid for x >= 0.5
    base = x + _LANCZOS_G - 0.5
    return _SQRT_2PI * base ** (x - 0.5) * np.exp(-base) * _lanczos_sum(x)


def _lgamma_positive(x):
    base = x + _LANCZOS_G - 0.5
    return _LOG_SQRT_2PI + (x - 0.5) * np.log(base) - base + np.log(_lanczos_sum(x))


def _is_nonpositive_integer(x) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x):
    """Gamma function for real arguments (scalars or numpy arrays).

    Raises GammaPoleError at 0, -1, -2, ... and SpecialFunctionDomainError
    for NaN input.
    """
    if np.isscalar(x) or isinstance(x, (float, int)):
        xf = float(x)
        if math.isnan(xf):
            raise SpecialFunctionDomainError("gamma: NaN argument")
        if _is_nonpositive_integer(xf):
            raise GammaPoleError(f"gamma: pole at {xf}")
        try:
            if xf >= 0.5:
                return float(_gamma_positive(xf))
            # reflection: gamma(x) = pi / (sin(pi x) * gamma(1 - x)), 1-x >= 0.5
            return float(math.pi / (math.sin(math.pi * xf) * _gamma_positive(1.0 - xf)))
        except OverflowError:
            # the Lanczos power overflows from |x| ~ 142.5: give what the
            # array path gives, inf, or 0 through the reflection
            return math.inf if xf > 0.0 else 0.0

    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any():
        raise SpecialFunctionDomainError("gamma: NaN argument")
    pole = (arr <= 0.0) & (arr == np.floor(arr))
    if pole.any():
        raise GammaPoleError(f"gamma: pole at {arr[pole].flat[0]}")
    safe = np.where(arr >= 0.5, arr, 1.0 - arr)
    with np.errstate(all="ignore"):
        direct = np.where(safe > _GAMMA_OVERFLOW, np.inf, _gamma_positive(safe))
        out = np.where(arr >= 0.5, direct, np.pi / (np.sin(np.pi * arr) * direct))
    return out


def lgamma(x):
    """log|Gamma(x)| for real x > 0 (scalars or arrays)."""
    if np.isscalar(x) or isinstance(x, (float, int)):
        xf = float(x)
        if math.isnan(xf) or xf <= 0.0:
            raise SpecialFunctionDomainError(f"lgamma: argument must be positive, got {xf}")
        if xf >= 0.5:
            return float(_lgamma_positive(xf))
        return float(
            math.log(math.pi) - math.log(math.sin(math.pi * xf)) - _lgamma_positive(1.0 - xf)
        )
    arr = np.asarray(x, dtype=float)
    if np.isnan(arr).any() or (arr <= 0.0).any():
        raise SpecialFunctionDomainError("lgamma: arguments must be positive")
    safe = np.where(arr >= 0.5, arr, 1.0 - arr)
    with np.errstate(all="ignore"):
        direct = _lgamma_positive(safe)
        out = np.where(arr >= 0.5, direct, np.log(np.pi) - np.log(np.sin(np.pi * arr)) - direct)
    return out


def beta(a, b):
    """Euler beta B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b) for a, b > 0.

    Computed through log-gamma so large arguments do not overflow.
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.isnan(a_arr).any() or np.isnan(b_arr).any():
        raise SpecialFunctionDomainError("beta: NaN argument")
    if (a_arr <= 0.0).any() or (b_arr <= 0.0).any():
        raise SpecialFunctionDomainError("beta: arguments must be positive")
    out = np.exp(lgamma(a_arr) + lgamma(b_arr) - lgamma(a_arr + b_arr))
    if np.isscalar(a) and np.isscalar(b):
        return float(out)
    return out
