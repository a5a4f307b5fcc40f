"""fracdual benchmark: time and memory to a dual verdict, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs are fixed pools; the seed orders them):

* ``fixtures``: the ten shipped fixtures at their own h, caches cleared
  before every op, as each ``fracdual dual`` run pays in a fresh process.
* ``large_m``: quasilinear_tan and twoterm_sine at m = 2000, cold; the
  dense O(m^2) memory and O(m^3) time dominate here.
* ``warm_sweep``: quasilinear_tan's operator at h = 1e-3 with forcing
  c*sin(x), c in {k/8 : k = 1..31}; set-up primes the operator caches,
  so ops time Newton alone.
* ``derivative``: one ``derivative_table`` row at h = 1e-6 per op over
  profiles tan/exp/sin, orders 0.4/0.9/1.3/1.7, x in 0.05..0.60, cold.
  It never reaches operators, solver or linalg.

An operation is one ``dual_solve`` to a verdict, or one derivative row.
A run is whole rounds (one seeded permutation of the pool each) until
``--seconds`` have passed, with one closed-loop client in one worker
process whose BLAS is pinned to ``BLAS_THREADS`` (at most nproc). Every
output is checked against ``reference.json`` (see ``gate.py``).

``--trace 0`` prints the end-to-end metrics: ``ops_per_s`` (ops per
second of wall time), ``op_s.p50`` (median op time), ``peak_rss_mb``
(peak resident memory of the worker) and ``setup_s`` (process start to
the first timed op: interpreter, numpy and fracdual imports, problem
parsing, warm_sweep's cache priming; median of ``SETUP_SAMPLES``
processes). ``op_s.tail`` (highest percentile with ten samples beyond
it) and ``ops_failed_frac`` are printed on the lines above the JSON
result; the tail is omitted where a run has ten ops or fewer.

``--trace 1`` alternates untraced and traced rounds and prints the
per-layer metrics of ``spans.layer_metrics``, per op: layer times, the
counts ``solver.newton_iters``, ``linalg.solve_calls``,
``operators.calls`` (exact, since every round does the same work), the
computed sizes ``linalg.solve_gflop`` (2/3 n^3 per LAPACK solve) and
``operators.bytes_built`` (nbytes of what the cached operator, weight
and stencil builders return on a miss), the share of op time no layer
span covers, and the tracing overhead.

The last stdout line is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without ``src/fracdual``
beside this directory the benchmark exits with status 2 and no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "fracdual"
WORKER = HERE / "worker.py"

# Workload names and metric units come from the spec beside this directory.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# One thread: a single closed-loop client on a small shared machine, where
# a second BLAS thread competes with neighbours and widens the spread.
BLAS_THREADS = 1
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0

COMPUTED = ("linalg.solve_gflop", "operators.bytes_built")


class WorkerError(RuntimeError):
    pass


def _worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process; its result and the monotonic time it started."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, nproc))
    cmd = [
        sys.executable, str(WORKER),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker exceeded the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no fracdual package at {PACKAGE}; run from a source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready, started = _worker(args, ["--setup-only"], deadline)
                setups.append(ready["ready"] - started)
        result, started = _worker(args, [], deadline)
        setups.append(result["ready"] - started)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1

    env = dict(result["env"], seed=args.seed, commit=_commit())
    print(f"fracdual benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    attempted, failed = result["attempted"], result["failed"]
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    print(f"ops_failed_frac {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")

    if args.trace:
        if result["hooks_absent"]:
            print("hooks absent: " + ", ".join(result["hooks_absent"]))
        print("computed from sizes, not measured: " + ", ".join(COMPUTED))
        values, units = result["layers"], PER_LAYER
    else:
        op = result["op_s"]
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_s.p50": op["p50"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
        if "tail" in op:
            print(f"op_s.tail {op['tail']:.6g} s (p{op['tail_percentile']:.1f} of {op['n']} ops, "
                  f"10 beyond it)")
        else:
            print(f"op_s.tail omitted: {op['n']} ops, a tail needs more than 10")
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
