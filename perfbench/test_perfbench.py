"""Checks of the benchmark itself: the correctness gate, tracing, output.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

REFERENCE = gate.load_reference()


def _fixture_op(name: str):
    (op,) = [op for op in workloads.build("fixtures").pool if op.key == f"fixtures/{name}"]
    return op


@pytest.fixture(scope="module")
def x12_observed():
    op = _fixture_op("linear_x12")
    return op.key, op.observe(op.run())


def test_reference_covers_every_pool_input():
    keys = {op.key for name in run.WORKLOADS for op in workloads.build(name).pool}
    assert keys == set(REFERENCE)


def test_gate_accepts_the_recorded_output(x12_observed):
    key, observed = x12_observed
    assert gate.check(observed, REFERENCE[key]) is None


def test_gate_rejects_a_wrong_verdict(x12_observed):
    key, observed = x12_observed
    wrong = dict(observed, verdict="Unreliable")
    assert "verdict" in gate.check(wrong, REFERENCE[key])


def test_gate_rejects_a_perturbed_u_and_allows_round_off(x12_observed):
    key, observed = x12_observed
    drifted = copy.deepcopy(observed)
    drifted["u_byparts"][5] *= 1.0 + 1e-5
    assert "u_byparts" in gate.check(drifted, REFERENCE[key])
    rounded = copy.deepcopy(observed)
    rounded["u_byparts"][5] *= 1.0 + 1e-8
    assert gate.check(rounded, REFERENCE[key]) is None


def test_gate_rejects_a_missing_reference(x12_observed):
    _key, observed = x12_observed
    assert gate.check(observed, None) is not None


def test_method_failed_is_the_expected_verdict_of_semilinear_unstable():
    expected = REFERENCE["fixtures/semilinear_unstable"]
    assert expected["verdict"].startswith("MethodFailed")
    assert gate.check(copy.deepcopy(expected), expected) is None
    reliable = dict(expected, verdict="Reliable")
    assert gate.check(reliable, expected) is not None


def test_gate_rejects_a_perturbed_derivative_row():
    key = "derivative/tan/0.4/0.3"
    expected = REFERENCE[key]
    assert gate.check(dict(expected), expected) is None
    assert "subst" in gate.check(dict(expected, subst=expected["subst"] * (1 + 1e-9)), expected)


def test_cache_clearers_find_the_operator_caches():
    import fracdual.operators

    clearers = workloads.cache_clearers()
    fracdual.operators.fractional_operator.cache_clear()
    _fixture_op("linear_sqrt").run()
    assert fracdual.operators.fractional_operator.cache_info().currsize > 0
    for clear in clearers:
        clear()
    assert fracdual.operators.fractional_operator.cache_info().currsize == 0


def test_traced_op_reports_layers_and_restores_the_library():
    import fracdual.solver

    original = np.linalg.solve
    op = _fixture_op("linear_x12")
    for clear in workloads.cache_clearers():
        clear()
    tracer = spans.Tracer()
    tracer.install()
    try:
        out = tracer.op(op.run)
    finally:
        tracer.uninstall()
    assert np.linalg.solve is original
    assert not hasattr(fracdual.solver.operator_for, "__wrapped__")
    assert gate.check(op.observe(out), REFERENCE[op.key]) is None
    layers = spans.layer_metrics(tracer.spans)
    assert layers["solver.solves"] == 2
    assert layers["linalg.solve_calls"] == layers["solver.newton_iters"] >= 2
    assert layers["operators.calls"] == 2
    assert layers["linalg.solve_gflop"] > 0
    # Cold: both operators A, their weights W and (c, P), S_n and D.
    dense = len(out.sol_subst.u.values) ** 2 * 8
    assert layers["operators.bytes_built"] >= 6 * dense
    assert 0.0 <= layers["trace.unattributed_frac"] < 0.05


def test_absent_hook_is_reported_not_fatal():
    tracer = spans.Tracer()
    hooks = (
        ("expr.evaluate", "fracdual.solver", "no_such_function", None),
        ("expr.evaluate", "fracdual.no_such_module", "evaluate", None),
    )
    tracer.install(hooks)
    tracer.uninstall()
    assert tracer.absent == ["fracdual.solver.no_such_function", "fracdual.no_such_module.evaluate"]


def test_self_times_subtract_direct_children():
    # op [0, 10] > dual [1, 9] > solver [2, 8] > linalg [3, 5]; parse outside ops.
    recorded = [
        ["problem_file.parse", 0.0, 0.5, -1, {}],
        ["op", 0.0, 10.0, -1, {}],
        ["dual.dual_solve", 1.0, 9.0, 1, {}],
        ["solver.solve", 2.0, 8.0, 2, {"newton_iters": 3}],
        ["linalg.solve", 3.0, 5.0, 3, {"n": 1000}],
    ]
    layers = spans.layer_metrics(recorded)
    assert layers["dual.self_s"] == 2.0
    assert layers["solver.self_s"] == 4.0
    assert layers["linalg.solve_s"] == 2.0
    assert layers["linalg.solve_gflop"] == pytest.approx(2.0 / 3.0)
    assert layers["solver.newton_iters"] == 3
    assert layers["problem_file.parse_s"] == 0.5
    assert layers["trace.unattributed_frac"] == pytest.approx(0.2)


def test_tail_needs_ten_samples_beyond_it():
    assert "tail" not in worker.timing_stats([1.0] * 10)
    stats = worker.timing_stats([float(i) for i in range(20)])
    assert stats["tail"] == 9.0
    assert stats["tail_percentile"] == 50.0


def test_traced_run_gives_every_per_layer_metric():
    # The worker adds the two trace.* figures that need more than spans.
    names = set(spans.layer_metrics([])) | {"trace.overhead_frac", "trace.hooks_absent"}
    assert names == set(run.PER_LAYER)


def test_without_the_library_it_exits_non_zero_silently(monkeypatch, capsys):
    monkeypatch.setattr(run, "PACKAGE", HERE / "no_such_package")
    code = run.main(["--workload", "fixtures", "--seed", "1", "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_rounds_permute_the_whole_pool():
    wl = workloads.Workload("w", tuple(range(7)), cold=False)
    first = wl.rounds(3)
    a, b = next(first), next(first)
    assert sorted(a) == sorted(b) == list(range(7))
    assert next(wl.rounds(3)) == a
