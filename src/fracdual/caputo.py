"""The two discrete Caputo-derivative representations and their oracles.

``caputo_substitution`` integrates trapezoidally after the singularity-
removing change of variables u = (t-x)^(n-alpha); ``caputo_byparts``
integrates by parts first and applies the trapezoid rule to the smooth
integrand (t-x)^(n-alpha) f^(n+1)(x). ``caputo_taylor`` (series) and
``caputo_power`` (monomial rule) are the independent checks.

Integer orders are handled by the tiny-deviation rule: alpha = n is
replaced by n - 1e-14, which leaves n - 1 <= effective_alpha < n.

Both rules scale the same power weights (i*h)^(n-alpha) by
1/Gamma(n+1-alpha), tabulated by ``power_weights``, which keeps no table.
Each rule's sum is written once, over a range of nodes, for the whole
0..t or for one block of a derivative row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .special_functions import gamma

__all__ = [
    "INTEGER_ORDER_DELTA",
    "MethodKind",
    "FractionalOrder",
    "GridFunction",
    "TaylorNonConvergence",
    "caputo_substitution",
    "caputo_byparts",
    "caputo_taylor",
    "caputo_power",
    "tan_taylor_coeffs",
    "power_weights",
]

INTEGER_ORDER_DELTA = 1e-14
# caputo_taylor gives up after this many series terms.
_MAX_TAYLOR_TERMS = 500


class MethodKind(Enum):
    """Which discrete representation of the fractional derivative to use."""

    SUBSTITUTION = "substitution"
    BYPARTS = "byparts"


class TaylorNonConvergence(ValueError):
    """Series evaluation overflowed, or hit the term cap without the stop rule firing."""


@dataclass(frozen=True)
class FractionalOrder:
    """A derivative order alpha > 0 with its effective (perturbed) value.

    ``effective`` equals alpha except at integers, where the tiny
    deviation alpha - 1e-14 is substituted; ``n`` is the integer with
    n - 1 <= effective < n, i.e. the number of initial conditions the
    order demands.
    """

    alpha: float
    effective: float = field(init=False)
    n: int = field(init=False)

    def __post_init__(self):
        a = float(self.alpha)
        if not math.isfinite(a) or a <= 0.0:
            raise ValueError(f"fractional order must be positive and finite, got {a}")
        eff = a - INTEGER_ORDER_DELTA if a == math.floor(a) else a
        object.__setattr__(self, "effective", eff)
        object.__setattr__(self, "n", int(math.floor(eff)) + 1)


@dataclass(frozen=True)
class GridFunction:
    """Real values on the uniform grid x_k = k*h, k = 0..m."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError(f"step must be positive and finite, got {self.h}")
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.isfinite(vals).all():
            raise ValueError("grid values must be finite")

    @property
    def m(self) -> int:
        return self.values.size - 1

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.values.size) * self.h

    def __eq__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.h == other.h and np.array_equal(self.values, other.values)


def step_powers(p: float, h: float, j: np.ndarray) -> np.ndarray:
    """(j*h)**p for float j >= 0 as exp(p*log(j*h)); with p > 0, j = 0 gives exactly 0."""
    with np.errstate(divide="ignore"):
        return np.exp(p * np.log(j * h))


def power_weights(p: float, h: float, m: int) -> np.ndarray:
    """w[i] = (i*h)**p for i = 0..m, with w[0] = 0 exactly."""
    return step_powers(p, h, np.arange(m + 1, dtype=float))


def substitution_sum(g: np.ndarray, u: np.ndarray) -> float:
    """Substitution sum between the nodes x_k0..x_k1 holding f^(n) in ``g``, (t-x)^(n-alpha) in ``u``.

    Over 0..t, divided by Gamma(n+1-alpha), it is the rule's value.
    """
    avg = 0.5 * (g[1:] + g[:-1])
    du = u[:-1] - u[1:]  # u_k - u_{k+1}
    return float(np.dot(avg, du))


def byparts_sum(gp: np.ndarray, u: np.ndarray, h: float, nth_deriv_at_0=None) -> float:
    """By-parts sum on the nodes x_k0..x_k1-1 holding f^(n+1) in ``gp``, (t-x)^(n-alpha) in ``u``.

    A range from x_0 passes f^(n)(0), which adds the boundary term and
    halves x_0's weight. Over 0..t-h, divided by Gamma(n+1-alpha), it is
    the rule's value.
    """
    boundary = s = 0.0
    if nth_deriv_at_0 is not None:
        boundary, s = nth_deriv_at_0 * u[0], u[0] * gp[0]
        gp, u = gp[1:], u[1:]
    if gp.size:
        s += 2.0 * float(np.dot(u, gp))
    return boundary + 0.5 * h * s


def caputo_substitution(nth_deriv: GridFunction, ord: FractionalOrder, t_index: int) -> float:
    """Substitution-rule value of D^alpha f at t = t_index*h.

    ``nth_deriv`` holds samples of f^(n) at x_0..x_m with m >= t_index.
    The node at x = t carries the weight (t-t)^(n-alpha) = 0 exactly.
    """
    m = int(t_index)
    if m < 1 or m > nth_deriv.m:
        raise IndexError(f"t_index {t_index} outside 1..{nth_deriv.m}")
    w = power_weights(ord.n - ord.effective, nth_deriv.h, m)
    s = substitution_sum(nth_deriv.values[: m + 1], w[::-1])  # u_k = (t - x_k)^p = w[m-k]
    return float(s / gamma(ord.n + 1 - ord.effective))


def caputo_byparts(
    nth_deriv_at_0: float,
    np1_deriv: GridFunction,
    ord: FractionalOrder,
    t_index: int,
) -> float:
    """By-parts value of D^alpha f at t = t_index*h.

    ``np1_deriv`` holds samples of f^(n+1) at x_0..x_{m-1} at least; the
    node at x = t never enters (zero weight). ``nth_deriv_at_0`` is
    f^(n)(0), the boundary term produced by the integration by parts.
    """
    m = int(t_index)
    if m < 1 or m - 1 > np1_deriv.m:
        raise IndexError(f"t_index {t_index} outside 1..{np1_deriv.m + 1}")
    h = np1_deriv.h
    w = power_weights(ord.n - ord.effective, h, m)
    s = byparts_sum(np1_deriv.values[:m], w[m:0:-1], h, nth_deriv_at_0)
    return float(s / gamma(ord.n + 1 - ord.effective))


def caputo_taylor(coeffs, ord: FractionalOrder, x: float) -> float:
    """Series value of D^alpha f at x from derivatives-at-zero f^(k)(0).

    Sums f^(k)(0) x^(k-alpha)/Gamma(k+1-alpha) over k > alpha.
    Truncates once the term magnitude stays below 1e-16 of the partial
    sum for three consecutive k; raises TaylorNonConvergence if
    ``_MAX_TAYLOR_TERMS`` terms pass without the rule firing.
    """
    if x < 0.0:
        raise ValueError(f"series oracle needs x >= 0, got {x}")
    coeffs = list(coeffs)
    a = ord.effective
    total = 0.0
    small_run = 0
    ks = range(ord.n, len(coeffs))
    gammas = gamma(np.array(ks) + 1.0 - a).tolist()  # one call for all k
    for count, (k, g) in enumerate(zip(ks, gammas)):
        if count >= _MAX_TAYLOR_TERMS:
            raise TaylorNonConvergence(f"no convergence after {_MAX_TAYLOR_TERMS} terms at x={x}")
        c = coeffs[k]
        if c == 0.0:
            continue
        try:
            term = c * x ** (k - a) / g
        except OverflowError as exc:
            raise TaylorNonConvergence(f"series term overflow at k={k}, x={x}") from exc
        if not math.isfinite(term):
            raise TaylorNonConvergence(f"series term overflow at k={k}, x={x}")
        total += term
        if abs(term) <= 1e-16 * abs(total):
            small_run += 1
            if small_run == 3:
                break
        else:
            small_run = 0
    return total


def caputo_power(beta: float, ord: FractionalOrder, x: float) -> float:
    """Analytic rule D^alpha x^beta = Gamma(beta+1)/Gamma(beta+1-alpha) x^(beta-alpha).

    Requires beta > n - 1 so the Caputo derivative of x^beta exists
    classically.
    """
    if beta <= ord.n - 1:
        raise ValueError(f"power rule needs beta > n-1 = {ord.n - 1}, got beta = {beta}")
    if x < 0.0:
        raise ValueError(f"power rule needs x >= 0, got {x}")
    a = ord.effective
    coeff = gamma(beta + 1.0) / gamma(beta + 1.0 - a)
    if x == 0.0:
        return 0.0
    return float(coeff * x ** (beta - a))


def tan_taylor_coeffs(K: int) -> list[float]:
    """Derivatives of tan at 0, f^(k)(0) for k = 0..K (K <= 60).

    They are the integers T_0 = 0, T_1 = 1 and, by Leibniz's rule on
    tan' = 1 + tan^2, T_(k+1) = sum_i C(k, i) T_i T_(k-i); each is rounded
    to a float once, at the end.
    """
    if not 0 <= K <= 60:
        raise ValueError(f"K must be in 0..60, got {K}")
    t = [0, 1][: K + 1]
    for k in range(1, K):
        t.append(sum(math.comb(k, i) * t[i] * t[k - i] for i in range(k + 1)))
    return [float(v) for v in t]
