"""Command-line front end.

Subcommands: derivative (quadrature table for a named function), solve
(one problem file, either method or both), dual (alias for solve
--method dual), convergence (order study), reproduce (pinned benchmark
checks). Output is CSV with 17-significant-digit values and LF line
endings, byte-deterministic for identical inputs.

Exit codes: 0 success or analysis outcome (including Unreliable), 1
reproduction-check failure, 2 usage/parse/IO error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .bench import MAX_TABLE_POINTS, TARGETS, derivative_table, run_target
from .caputo import MethodKind
from .dual import compare_to_exact, convergence_study, dual_solve
from .expr import evaluate
from .problem_file import ProblemFileError, dump_problem, parse_problem
from .profiles import PROFILE_NAMES, get_profile
from .solver import SolverConfig, grid_size, solve

_FMT = "%.17g"
# --method name of each rule; the inverse tags the CSV columns and curve files
_METHODS = {"subst": MethodKind.SUBSTITUTION, "byparts": MethodKind.BYPARTS}
_TAGS = {kind: name for name, kind in _METHODS.items()}


def _fmt(v: float) -> str:
    return _FMT % (v,)


def _emit(lines: list[str], out_path: str | None):
    text = "\n".join(lines) + "\n"
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_points(spec: str) -> list[float]:
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"point range must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ValueError(f"bad point range {spec!r}")
        # the last point is at or before stop, up to a 1e-9 relative slack
        steps = (stop - start) / step * (1.0 + 1e-9)
        if not steps < MAX_TABLE_POINTS:
            raise ValueError(f"point range {spec!r} names {steps + 1:.6g} points, over {MAX_TABLE_POINTS}")
        return [start + i * step for i in range(math.floor(steps) + 1)]
    points = [float(p) for p in spec.split(",") if p.strip()]
    if not points:
        raise ValueError(f"point list {spec!r} names no points")
    return points


def _parse_h_list(spec: str) -> list[float]:
    return [float(p) for p in spec.split(",") if p.strip()]


def cmd_derivative(args) -> int:
    points = _parse_points(args.points)
    rows = derivative_table(args.f, args.alpha, args.h, points)
    lines = ["x,taylor_or_analytic,substitution,abs_err_subst,byparts,abs_err_byparts"]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _emit(lines, args.out)
    return 0


def cmd_solve(args) -> int:
    problem = parse_problem(args.problem)
    if args.dump_normalized is not None:
        _emit(dump_problem(problem).splitlines(), args.dump_normalized)
        return 0
    cfg = problem.config()
    if args.method == "dual":
        report = dual_solve(problem.equation, cfg, threshold=problem.threshold)
        sols = [report.sol_subst, report.sol_byparts]
        footer = (
            f"verdict={report.verdict} deviation={_fmt(report.deviation)} threshold={_fmt(report.threshold)}"
            f" iterations={report.sol_subst.newton_iters},{report.sol_byparts.newton_iters}"
        )
    else:
        sol = solve(problem.equation, cfg, method=_METHODS[args.method])
        sols = [sol]
        footer = f"converged={'true' if sol.converged else 'false'} iterations={sol.newton_iters}"
        if sol.failure is not None:
            footer += f" reason={sol.failure}"
    x = np.arange(grid_size(problem.equation.interval_end, cfg.h) + 1) * cfg.h
    # a method with no iterate prints nan in every column it feeds
    missing = np.full_like(x, np.nan)
    curves = {_TAGS[sol.method]: missing if sol.u is None else sol.u.values for sol in sols}
    cols = {"x": x, **{f"u_{tag}": u for tag, u in curves.items()}}
    if len(sols) == 2:
        cols["abs_diff"] = np.abs(curves["subst"] - curves["byparts"])
    cols.update((f"residual_{_TAGS[sol.method]}", missing if sol.u is None else sol.residual.values) for sol in sols)
    if problem.exact is not None:
        exact = evaluate(problem.exact, x, np.zeros_like(x))
        cols.update((f"error_{tag}", np.abs(u - exact)) for tag, u in curves.items())
        curves["exact"] = exact
    lines = [",".join(cols)]
    lines.extend(",".join(_fmt(float(c[k])) for c in cols.values()) for k in range(len(x)))
    lines.append(footer)
    _emit(lines, args.out)
    if args.plot_data:
        for name, values in curves.items():
            _emit([f"{_fmt(xv)} {_fmt(v)}" for xv, v in zip(x, values)], f"{args.plot_data}_{name}.dat")
    return 0


def cmd_convergence(args) -> int:
    h_list = _parse_h_list(args.h_list)
    method = _METHODS[args.method]
    if args.problem is not None:
        problem = parse_problem(args.problem)
        if problem.exact is None:
            raise ProblemFileError("convergence study needs an 'exact' entry in the problem file")

        def err_of_h(h):
            sol = solve(problem.equation, SolverConfig(h=h), method=method)
            if not sol.converged:
                return None
            return compare_to_exact(sol, problem.exact).sup

    else:
        if args.f is None or args.alpha is None or args.x is None:
            raise ValueError("derivative mode needs --f, --alpha and --x")
        get_profile(args.f)  # fail fast on unknown profiles

        def err_of_h(h):
            rows = derivative_table(args.f, args.alpha, h, [args.x])
            _, _oracle, _sub, err_s, _byp, err_b = rows[0]
            return err_s if method is MethodKind.SUBSTITUTION else err_b
    rows = convergence_study(err_of_h, h_list)
    lines = ["h,error,observed_order"]
    for row in rows:
        err = "" if row.error is None else _fmt(row.error)
        if row.saturated:
            order = "saturated"
        elif row.observed_order is None:
            order = ""
        else:
            order = _fmt(row.observed_order)
        lines.append(f"{_fmt(row.h)},{err},{order}")
    _emit(lines, args.out)
    return 0


def cmd_reproduce(args) -> int:
    checks = run_target(args.target)
    lines = [check.line() for check in checks]
    passed = sum(1 for c in checks if c.ok)
    lines.append(f"summary: {passed}/{len(checks)} checks passed")
    _emit(lines, args.out)
    return 0 if passed == len(checks) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracdual",
        description=(
            "Solve fractional differential equations with two independent "
            "discretizations and trust the result only when they agree."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derivative", help="tabulate a fractional derivative by both quadratures")
    p.add_argument("--f", required=True, help=f"function profile: {'|'.join(PROFILE_NAMES)}")
    p.add_argument("--alpha", type=float, required=True, help="derivative order > 0")
    p.add_argument("--h", type=float, required=True, help="grid step")
    p.add_argument("--points", required=True, help="evaluation points: start:stop:step or comma list")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=cmd_derivative)

    for name, forced_method in (("solve", None), ("dual", "dual")):
        p = sub.add_parser(
            name,
            help="solve a problem file" if name == "solve" else "solve with both methods and report the verdict",
        )
        p.add_argument("--problem", required=True, help="problem file path")
        if forced_method is None:
            p.add_argument("--method", choices=(*_METHODS, "dual"), default="dual")
        p.add_argument("--out", default=None)
        p.add_argument("--plot-data", default=None, help="prefix for two-column curve files")
        p.add_argument("--dump-normalized", default=None, help="write the normalized problem file and exit")
        p.set_defaults(func=cmd_solve, **({"method": forced_method} if forced_method else {}))

    p = sub.add_parser("convergence", help="empirical-order study under step halving")
    p.add_argument("--problem", default=None, help="problem file with an 'exact' entry")
    p.add_argument("--f", default=None, help="derivative mode: function profile")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--x", type=float, default=None, help="derivative mode: evaluation point")
    p.add_argument("--h-list", required=True, help="comma list of halving steps, e.g. 4e-4,2e-4,1e-4")
    p.add_argument("--method", choices=tuple(_METHODS), default=_TAGS[MethodKind.SUBSTITUTION])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_convergence)

    p = sub.add_parser("reproduce", help="run the pinned benchmark reproduction suite")
    p.add_argument("target", choices=(*TARGETS, "all"))
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProblemFileError as exc:
        print(f"error: problem-file: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
