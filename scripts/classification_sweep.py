#!/usr/bin/env python3
"""Run the dual-reliability protocol over every shipped fixture.

Prints one row per problem: verdict, scaled deviation, threshold,
per-method convergence, and (when the fixture carries an exact
solution) the sup-norm error of each method. This is the quickest way
to see the protocol separate trustworthy solves from divergent ones.

Usage:
    python scripts/classification_sweep.py [--fixtures name1,name2,...]
"""

import argparse
import time

from fracdual.bench import FIXTURES, load_fixture
from fracdual.dual import compare_to_exact, dual_solve


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fixtures", default=None, help="comma list (default: all)")
    args = parser.parse_args()
    names = args.fixtures.split(",") if args.fixtures else list(FIXTURES)

    header = f"{'fixture':<24} {'h':>7} {'verdict':<34} {'deviation':>11} {'threshold':>11} {'err_subst':>11} {'err_byparts':>11} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for name in names:
        problem = load_fixture(name)
        t0 = time.perf_counter()
        report = dual_solve(problem.equation, problem.config(), threshold=problem.threshold)
        elapsed = time.perf_counter() - t0
        if problem.exact is not None:
            err_s = f"{compare_to_exact(report.sol_subst, problem.exact).sup:11.3e}"
            err_b = f"{compare_to_exact(report.sol_byparts, problem.exact).sup:11.3e}"
        else:
            err_s = err_b = f"{'-':>11}"
        print(
            f"{name:<24} {problem.h:>7g} {str(report.verdict):<34} "
            f"{report.deviation:11.3e} {report.threshold:11.3e} {err_s} {err_b} {elapsed:6.1f}"
        )


if __name__ == "__main__":
    main()
