#!/usr/bin/env python3
"""Empirical convergence orders of the two fractional-derivative rules.

Sweeps step halving for a set of smooth functions and orders, printing
the observed order of each quadrature against its series/power check
value. The observed rate follows the weight-endpoint exponent
n + 1 - alpha rather than the nominal 2, which is exactly what the
agreement threshold of the dual protocol is calibrated against.

Usage:
    python scripts/order_study.py [--x 0.3] [--h-list 4e-4,2e-4,1e-4]

A function or order the rules cannot take ends the sweep after the rows
already printed, with a one-line error and exit status 2.
"""

import argparse
import math
import sys

from fracdual.bench import derivative_table
from fracdual.caputo import FractionalOrder
from fracdual.dual import convergence_study


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=float, default=0.3)
    parser.add_argument("--h-list", default="4e-4,2e-4,1e-4")
    parser.add_argument("--functions", default="tan,exp,sin")
    parser.add_argument("--alphas", default="0.4,0.9,1.3,1.7")
    args = parser.parse_args()
    h_list = [float(v) for v in args.h_list.split(",")]

    print(f"{'f':<6} {'alpha':>5} {'n+1-a':>6} {'order(subst)':>13} {'order(byparts)':>15}")
    for fname in args.functions.split(","):
        for alpha in (float(a) for a in args.alphas.split(",")):
            n = FractionalOrder(alpha).n
            table = {h: derivative_table(fname, alpha, h, [args.x])[0] for h in h_list}
            orders = {}
            for column, label in ((3, "subst"), (5, "byparts")):

                def err(h, idx=column):
                    v = table[h][idx]
                    return v if math.isfinite(v) else None

                rows = convergence_study(err, h_list)
                got = [r.observed_order for r in rows[1:] if r.observed_order is not None]
                orders[label] = sum(got) / len(got) if got else float("nan")
            print(
                f"{fname:<6} {alpha:>5.2f} {n + 1 - alpha:>6.2f} "
                f"{orders['subst']:>13.3f} {orders['byparts']:>15.3f}"
            )


if __name__ == "__main__":
    try:
        main()
    except ValueError as exc:  # a function or order the rules cannot take
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
