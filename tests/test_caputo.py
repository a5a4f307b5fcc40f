import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import fracdual.bench
from fracdual.bench import _ROW_BLOCK, TABLE1, TABLE1_ALPHA, TABLE1_H, derivative_table
from fracdual.caputo import (
    FractionalOrder,
    GridFunction,
    TaylorNonConvergence,
    caputo_byparts,
    caputo_power,
    caputo_substitution,
    caputo_taylor,
    power_weights,
    tan_taylor_coeffs,
)
from fracdual.profiles import DerivativeProfile, get_profile
from fracdual.special_functions import gamma

SQRT_PI = math.sqrt(math.pi)
# benchmark values for D^0.4 tan at h = 1e-4 (10 printed digits)
TAN04_SERIES_01 = 0.2824821555
TAN04_SUBST_01 = 0.2824821407
TAN04_BYPARTS_01 = 0.2824821402
# analytic D^0.5 x^1.2 at x = 0.5, pinned from a 40-digit evaluation
D05_X12_AT_HALF = 0.7464341614606745183180238


def grid(h, m, fn):
    xs = np.arange(m + 1) * h
    return GridFunction(h, fn(xs))


class TestFractionalOrder:
    def test_fractional(self):
        o = FractionalOrder(0.5)
        assert o.n == 1 and o.effective == 0.5

    def test_between_one_and_two(self):
        o = FractionalOrder(1.3)
        assert o.n == 2 and o.effective == 1.3

    @pytest.mark.parametrize("a,n", [(1.0, 1), (2.0, 2)])
    def test_integer_perturbation(self, a, n):
        o = FractionalOrder(a)
        assert o.n == n
        assert o.effective == a - 1e-14
        assert o.n - 1 <= o.effective < o.n

    @pytest.mark.parametrize("a", [0.0, -0.5, float("inf"), float("nan")])
    def test_invalid(self, a):
        with pytest.raises(ValueError):
            FractionalOrder(a)

    def test_invariant_random(self):
        rng = np.random.default_rng(5)
        for a in rng.uniform(0.01, 2.99, size=200):
            o = FractionalOrder(float(a))
            assert o.n - 1 <= o.effective < o.n
            assert o.effective > 0


class TestGridFunction:
    def test_x_axis(self):
        g = GridFunction(0.5, np.array([0.0, 1.0, 2.0]))
        assert g.m == 2
        assert np.allclose(g.x, [0.0, 0.5, 1.0])

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            GridFunction(0.1, np.array([1.0]))
        with pytest.raises(ValueError):
            GridFunction(0.1, np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            GridFunction(-0.1, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_rejects_non_finite_step(self, h):
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {h}"):
            GridFunction(h, np.array([1.0, 2.0]))


class TestSubstitution:
    def test_zero_samples_give_exact_zero(self):
        g = grid(0.01, 50, lambda x: np.zeros_like(x))
        assert caputo_substitution(g, FractionalOrder(0.5), 50) == 0.0

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9, 1.3, 1.7])
    def test_telescoping_exactness_on_constant(self, alpha):
        # f = x^n/n! has constant n-th derivative: weights telescope to t^(n-alpha)
        o = FractionalOrder(alpha)
        h, m = 0.01, 73
        g = grid(h, m, lambda x: np.ones_like(x))
        t = m * h
        expected = t ** (o.n - o.effective) / gamma(o.n + 1 - o.effective)
        assert caputo_substitution(g, o, m) == pytest.approx(expected, rel=1e-13)

    def test_tan_benchmark_value(self):
        h, m = 1e-4, 1000
        g = grid(h, m, lambda x: 1 + np.tan(x) ** 2)
        v = caputo_substitution(g, FractionalOrder(0.4), m)
        assert v == pytest.approx(TAN04_SUBST_01, abs=5e-8)

    def test_t_index_out_of_range(self):
        g = grid(0.01, 10, np.sin)
        with pytest.raises(IndexError):
            caputo_substitution(g, FractionalOrder(0.5), 0)
        with pytest.raises(IndexError):
            caputo_substitution(g, FractionalOrder(0.5), 11)


class TestByParts:
    @pytest.mark.parametrize("alpha,c", [(0.5, 2.0), (1.7, -3.0)])
    def test_degree_n_polynomial_exact(self, alpha, c):
        # f of degree n: f^(n+1) vanishes, value is c * t^(n-alpha)/Gamma(n+1-alpha)
        o = FractionalOrder(alpha)
        h, m = 0.01, 64
        zero = grid(h, m, lambda x: np.zeros_like(x))
        t = m * h
        expected = c * t ** (o.n - o.effective) / gamma(o.n + 1 - o.effective)
        assert caputo_byparts(c, zero, o, m) == pytest.approx(expected, rel=1e-14)

    def test_tan_benchmark_value(self):
        h, m = 1e-4, 1000
        t = np.tan(np.arange(m + 1) * h)
        np1 = GridFunction(h, 2 * t * (1 + t**2))
        v = caputo_byparts(1.0, np1, FractionalOrder(0.4), m)
        assert v == pytest.approx(TAN04_BYPARTS_01, abs=5e-8)

    def test_singular_power_samples_rejected(self):
        # x^1.2 has f''(0) = +inf: the sample vector cannot be built, which
        # is the honest outcome for this representation on that function
        h, m = 1e-4, 5000
        xs = np.arange(m + 1) * h
        with np.errstate(divide="ignore"):
            f2 = 0.24 * np.where(xs > 0, xs, np.nan) ** (-0.8)
        f2[0] = np.inf
        with pytest.raises(ValueError):
            GridFunction(h, f2)

    def test_accepts_first_node(self):
        o = FractionalOrder(0.5)
        g = grid(0.01, 10, np.cos)
        v = caputo_byparts(1.0, g, o, 1)
        assert math.isfinite(v)


class TestSubstitutionOnPowers:
    def test_x12_against_analytic(self):
        # substitution handles x^1.2 (f' = 1.2 x^0.2 is finite); accuracy is
        # limited by the x^0.2 endpoint to roughly h^1.2
        o = FractionalOrder(0.5)
        h = 1e-4
        m = 5000
        g = grid(h, m, lambda x: 1.2 * x**0.2)
        v = caputo_substitution(g, o, m)
        assert v == pytest.approx(D05_X12_AT_HALF, abs=1e-4)


class TestTaylor:
    def test_linear_coefficients(self):
        o = FractionalOrder(0.5)
        for x in (0.04, 0.25, 0.81):
            assert caputo_taylor([0.0, 1.0], o, x) == pytest.approx(
                (2 / SQRT_PI) * math.sqrt(x), rel=1e-13
            )

    def test_tan_benchmark(self):
        v = caputo_taylor(tan_taylor_coeffs(40), FractionalOrder(0.4), 0.1)
        assert v == pytest.approx(TAN04_SERIES_01, abs=1e-9)

    def test_constant_is_zero(self):
        assert caputo_taylor([3.0], FractionalOrder(0.7), 0.5) == 0.0

    def test_non_convergence_flag(self):
        coeffs = [1.0] * 502
        with pytest.raises(TaylorNonConvergence):
            caputo_taylor(coeffs, FractionalOrder(0.5), 500.0)


class TestPowerRule:
    def test_beta_one(self):
        v = caputo_power(1.0, FractionalOrder(0.5), 0.25)
        assert v == pytest.approx(0.5641895835477562869480795, rel=1e-13)
        assert v == pytest.approx(caputo_taylor([0.0, 1.0], FractionalOrder(0.5), 0.25), rel=1e-13)

    def test_half_power_is_constant(self):
        o = FractionalOrder(0.5)
        for x in (0.2, 0.5, 0.9):
            assert caputo_power(0.5, o, x) == pytest.approx(gamma(1.5), rel=1e-13)

    def test_quadratic_at_one(self):
        v = caputo_power(2.0, FractionalOrder(0.3), 1.0)
        assert v == pytest.approx(2.0 / gamma(2.7), rel=1e-13)
        assert v == pytest.approx(200.0 / (119.0 * gamma(0.7)), rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            caputo_power(1.0, FractionalOrder(1.7), 0.5)  # beta <= n-1
        with pytest.raises(ValueError):
            caputo_power(1.5, FractionalOrder(0.5), -0.1)


class TestTanCoeffs:
    def test_small(self):
        assert tan_taylor_coeffs(1) == [0.0, 1.0]
        assert tan_taylor_coeffs(3)[3] == 2.0

    def test_seventh(self):
        coeffs = tan_taylor_coeffs(7)
        assert Fraction(coeffs[7]) / math.factorial(7) == Fraction(17, 315)

    def test_odd_only(self):
        coeffs = tan_taylor_coeffs(12)
        assert all(coeffs[k] == 0.0 for k in range(0, 13, 2))

    def test_limit(self):
        with pytest.raises(ValueError):
            tan_taylor_coeffs(61)

    def test_matches_exact_series(self):
        # power-series coefficients a_k of tan from tan' = 1 + tan^2 in
        # exact rationals; f^(k)(0) = k! a_k
        a = [Fraction(0), Fraction(1)]
        for j in range(1, 60):
            a.append(sum(a[i] * a[j - i] for i in range(j + 1)) / (j + 1))
        for K in range(61):
            assert tan_taylor_coeffs(K) == [float(a[k] * math.factorial(k)) for k in range(K + 1)]


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_derivative_table_memory_is_one_row():
    # 300 rows at x = 0.001..0.3, each with its own weight table; keeping
    # every table would hold about 150 times the largest one
    points = [round(0.001 * k, 3) for k in range(1, 301)]
    row = _traced_peak(lambda: derivative_table("exp", 0.4, 1e-5, points[-1:]))
    table = _traced_peak(lambda: derivative_table("exp", 0.4, 1e-5, points))
    assert table <= 2 * row


def test_derivative_row_memory_is_a_few_blocks():
    # m = x/h = 2*10^6: one array of the row's samples would take 16 MB
    peak = _traced_peak(lambda: derivative_table("exp", 0.4, 1e-6, [2.0]))
    assert peak < 2 * 2**20


_ROW_SIZES = [1, _ROW_BLOCK - 1, _ROW_BLOCK, _ROW_BLOCK + 1, 3 * _ROW_BLOCK + 7]


@pytest.mark.parametrize("m", _ROW_SIZES)
@pytest.mark.parametrize("alpha", [0.4, 1.3])
def test_derivative_row_blocks_match_whole_range_rules(alpha, m, name="tan"):
    # the whole-range samples are the profile's own, at each x; sin's and
    # cos's row shifts one per-row table to each block's start instead
    h = 1e-5
    o = FractionalOrder(alpha)
    xs = np.arange(m + 1) * h
    gn, gp = get_profile(name).derivative((o.n, o.n + 1), xs)
    sub = caputo_substitution(GridFunction(h, gn), o, m)
    byp = caputo_byparts(float(gn[0]), GridFunction(h, gp), o, m)
    (row,) = derivative_table(name, alpha, h, [m * h])
    assert abs(row[2] - sub) <= 1e-14 * abs(sub)
    assert abs(row[4] - byp) <= 1e-14 * abs(byp)


@pytest.mark.parametrize("m", _ROW_SIZES)
@pytest.mark.parametrize("alpha", [0.4, 1.3])
@pytest.mark.parametrize("name", ["sin", "cos", "exp"])
def test_derivative_row_blocks_match_whole_range_rules_of(name, alpha, m):
    test_derivative_row_blocks_match_whole_range_rules(alpha, m, name)


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_derivative_row_evaluates_sin_and_cos_once(monkeypatch, name):
    # the row takes sin and cos of its offset table once and shifts them to
    # each of its four blocks; gamma's scalar np.sin is not counted
    sizes = {"sin": [], "cos": []}
    for fn in sizes:
        original = getattr(np, fn)
        monkeypatch.setattr(np, fn, lambda x, fn=fn, original=original: sizes[fn].append(np.size(x)) or original(x))
    profile = get_profile(name)
    fracdual.bench._row_rules(profile, FractionalOrder(0.4), 1e-5, 3 * _ROW_BLOCK + 7)
    calls = {fn: [n for n in got if n > 1] for fn, got in sizes.items()}
    assert calls == {"sin": [_ROW_BLOCK + 1], "cos": [_ROW_BLOCK + 1]}


def test_refused_oracle_ends_the_table_before_its_rules(monkeypatch):
    # the series oracle of sin refuses x = 10, a row of m = 10^7 samples
    def rules(*args):
        raise AssertionError("the row's rules ran before its oracle")

    monkeypatch.setattr(fracdual.bench, "_row_rules", rules)
    with pytest.raises(TaylorNonConvergence):
        derivative_table("sin", 0.4, 1e-6, [10.0])


@pytest.mark.parametrize("extra,nan_columns", [(0, (2, 4)), (1, (4,))], ids=["nth", "n+1th"])
def test_non_finite_sample_past_the_first_block(monkeypatch, extra, nan_columns):
    # a non-finite f^(n+1) sample voids by-parts only; one of f^(n) both rules
    h, o = 1e-5, FractionalOrder(0.4)
    bad = (_ROW_BLOCK + 1) * h

    def deriv(orders, x):  # a row asks for f^(n) and f^(n+1) together
        return tuple(np.where(x == bad, np.inf, np.exp(x)) if d == o.n + extra else np.exp(x) for d in orders)

    profile = DerivativeProfile("spiked", deriv, lambda order, x: 0.0)
    monkeypatch.setattr(fracdual.bench, "get_profile", lambda name: profile)
    (row,) = derivative_table("spiked", 0.4, h, [(2 * _ROW_BLOCK + 5) * h])
    assert [c for c in (2, 4) if math.isnan(row[c])] == list(nan_columns)


def test_derivative_table_accepts_grid_points():
    # TABLE1's points, and the h = 1e-6 points of the benchmark's derivative rows
    assert len(derivative_table("tan", TABLE1_ALPHA, TABLE1_H, [row[0] for row in TABLE1])) == len(TABLE1)
    points = [round(0.05 * k, 2) for k in range(1, 13)]
    assert len(derivative_table("tan", 0.4, 1e-6, points)) == len(points)


class TestProperties:
    def test_linearity(self):
        rng = np.random.default_rng(42)
        o = FractionalOrder(0.7)
        h, m = 0.01, 60
        for _ in range(25):
            f = rng.normal(size=m + 1)
            g = rng.normal(size=m + 1)
            a, b = rng.normal(size=2)
            lin = caputo_substitution(GridFunction(h, a * f + b * g), o, m)
            sep = a * caputo_substitution(GridFunction(h, f), o, m) + b * caputo_substitution(
                GridFunction(h, g), o, m
            )
            scale = max(1.0, abs(lin))
            assert abs(lin - sep) <= 1e-13 * scale
            lin_b = caputo_byparts(a + b, GridFunction(h, a * f + b * g), o, m)
            sep_b = a * caputo_byparts(1.0, GridFunction(h, f), o, m) + b * caputo_byparts(
                1.0, GridFunction(h, g), o, m
            )
            assert abs(lin_b - sep_b) <= 1e-13 * max(1.0, abs(lin_b))

    def test_weight_monotonicity(self):
        # (t-x_{k-1})^(n-alpha) > (t-x_k)^(n-alpha)
        for alpha in (0.3, 0.9, 1.7):
            o = FractionalOrder(alpha)
            w = power_weights(o.n - o.effective, 0.01, 500)
            assert np.all(np.diff(w) > 0.0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7, 0.9, 1.3, 1.7])
    @pytest.mark.parametrize("name", ["x2", "x3", "sin", "exp"])
    def test_oracle_agreement_smooth(self, alpha, name):
        # quadratures converge to the series/power value; the halving ratio
        # follows the weight-endpoint rate 2^(n+1-alpha), so it lies in
        # [2 ** 1.05, 2 ** 1.8] across these orders
        o = FractionalOrder(alpha)
        x = 0.4
        derivs = {
            "x2": (lambda xs, d: {0: xs**2, 1: 2 * xs, 2: np.full_like(xs, 2.0), 3: np.zeros_like(xs)}[d]),
            "x3": (lambda xs, d: {0: xs**3, 1: 3 * xs**2, 2: 6 * xs, 3: np.full_like(xs, 6.0)}[d]),
            "sin": (lambda xs, d: np.sin(xs + d * math.pi / 2)),
            "exp": (lambda xs, d: np.exp(xs)),
        }[name]
        if name == "x2":
            oracle = caputo_power(2.0, o, x) if o.n <= 2 else None
        elif name == "x3":
            oracle = caputo_power(3.0, o, x)
        elif name == "sin":
            coeffs = [0.0, 1.0, 0.0, -1.0] * 12
            oracle = caputo_taylor(coeffs, o, x)
        else:
            oracle = caputo_taylor([1.0] * 48, o, x)
        errs_s, errs_b = [], []
        for h in (2e-3, 1e-3):
            m = round(x / h)
            xs = np.arange(m + 1) * h
            gn = GridFunction(h, derivs(xs, o.n))
            gp = GridFunction(h, derivs(xs, o.n + 1))
            errs_s.append(abs(caputo_substitution(gn, o, m) - oracle))
            errs_b.append(abs(caputo_byparts(float(derivs(xs, o.n)[0]), gp, o, m) - oracle))
        for errs in (errs_s, errs_b):
            if errs[0] < 1e-13:  # exact case (polynomial identities)
                assert errs[1] < 1e-12
                continue
            ratio = errs[0] / errs[1]
            assert 2.0 <= ratio <= 4.2, (alpha, name, errs)

    def test_integer_order_limit(self):
        # alpha = 1: the deviated-order quadratures reproduce the endpoint
        # average of f'; the deviation itself is accurate to round-off,
        # while the h-error is first order with constant f''(t)/2
        h, t = 1e-3, 0.5
        m = round(t / h)
        o = FractionalOrder(1.0)
        xs = np.arange(m + 1) * h
        limit = 0.5 * (math.cos(t) + math.cos(t - h))
        sub = caputo_substitution(GridFunction(h, np.cos(xs)), o, m)
        byp = caputo_byparts(1.0, GridFunction(h, -np.sin(xs)), o, m)
        assert sub == pytest.approx(limit, rel=1e-12)
        assert abs(sub - math.cos(t)) <= 0.51 * h * abs(math.sin(t)) + 10 * h * h
        assert abs(byp - math.cos(t)) <= 0.51 * h * abs(math.sin(t)) + 10 * h * h
        # exact for f = x whose second derivative vanishes
        sub_lin = caputo_substitution(GridFunction(h, np.ones(m + 1)), o, m)
        assert sub_lin == pytest.approx(1.0, abs=1e-12)
