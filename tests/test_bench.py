"""The reproduction suite's specification: every check, in order, with what it expects.

Tolerances are literals here, so a check that is dropped, renamed or
loosened in ``fracdual.bench`` fails this test whether or not it passes.
"""

import pytest

from fracdual.bench import TABLE1, TABLE2, TABLE3, run_target

METHODS = ("byparts", "substitution")


def suite_specification():
    spec = []
    for x, _oracle, sub, _err_sub, byp, _err_byp in TABLE1:
        spec += [(f"table1 substitution x={x}", sub, 5e-8), (f"table1 byparts x={x}", byp, 5e-8)]
    for x, *refs in TABLE2:
        spec += [(f"table2 {m} x={x}", ref, 1e-5) for m, ref in zip(METHODS, refs)]
    spec += [(f"table2 {m} residual sup", 0.0, 1e-6) for m in METHODS]
    spec += [(f"table3 {m} sup error vs exact", 0.0, 5e-4) for m in METHODS]
    spec += [(f"table3 diff x={row[0]}", 0.0, 1e-6) for row in TABLE3]
    spec += [
        ("table3 verdict", "Reliable", None),
        ("figures linear_x12 verdict", "Reliable", None),
        ("figures linear_x12 subst error", 0.0, 2e-2),
        ("figures linear_x12 byparts error", 0.0, 2e-2),
        ("figures linear_sqrt verdict", "not Reliable", None),
        # ten default thresholds 2*h^(3/4) at the fixture's h = 0.01
        ("figures linear_sqrt separation (deviation / 10*threshold)", pytest.approx(20 * 0.01**0.75), None),
        ("figures linear_quarter verdict", "not Reliable", None),
        ("figures linear_quarter byparts error", 0.0, 2e-2),
        ("figures linear_quarter substitution invalid", 0.0, None),
        ("figures linear_hundredth verdict", "not Reliable", None),
        ("figures linear_hundredth substitution error", 0.0, 2e-2),
        ("figures linear_hundredth byparts invalid", 0.0, None),
    ]
    return spec


def test_reproduce_all_runs_the_specified_checks():
    spec = suite_specification()
    assert len(spec) == 58
    assert [(c.name, c.expected, c.tol) for c in run_target("all")] == spec
