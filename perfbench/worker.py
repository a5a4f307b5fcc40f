"""Workload process: set up one workload, time its operations, check them.

Started by ``run.py`` with the BLAS thread count already pinned in its
environment. Prints one JSON object on its last stdout line.

* ``--setup-only``: set up, report the monotonic time it became ready,
  exit. ``run.py`` repeats this to take the median set-up time.
* otherwise: after set-up, run whole rounds of the workload until
  ``--seconds`` have passed, closed loop with one client. With
  ``--trace 1`` untraced and traced rounds alternate, and the traced
  ones give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import gate


def _blas_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, if it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def timing_stats(times: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"p50": statistics.median(times), "n": len(times)}
    beyond = 10
    if len(times) > beyond:
        ordered = sorted(times)
        k = len(ordered) - beyond - 1  # ordered[k] has exactly ten samples above it
        out["tail"] = ordered[k]
        out["tail_percentile"] = 100.0 * (k + 1) / len(ordered)
    return out


class Loop:
    """Closed-loop runner: one op at a time, outputs checked after timing."""

    def __init__(self, workload, reference: dict, clearers):
        self.workload = workload
        self.reference = reference
        self.clearers = clearers
        self.attempted = 0
        self.failures: list[str] = []

    def run_round(self, ops, call=None) -> list[float]:
        times = []
        for op in ops:
            if self.workload.cold:
                for clear in self.clearers:
                    clear()
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                out = call(op.run) if call is not None else op.run()
                reason = None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                reason = f"raised {exc!r}"
            times.append(time.perf_counter() - t0)
            if reason is None:
                reason = self._check(op, out)
            if reason is not None:
                self.failures.append(f"{op.key}: {reason}")
        return times

    def _check(self, op, out) -> Optional[str]:
        try:
            observed = op.observe(out)
        except Exception as exc:  # output of another shape: a failed op
            return f"output not readable: {exc!r}"
        return gate.check(observed, self.reference.get(op.key))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    import fracdual

    if not Path(fracdual.__file__).resolve().is_relative_to(src):
        print(f"fracdual imported from {fracdual.__file__}, not from {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    # Collected before any wrapper replaces a cached function.
    clearers = workloads.cache_clearers()
    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    workload = workloads.build(args.workload)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if tracer is not None:
        tracer.uninstall()
    loop = Loop(workload, gate.load_reference(), clearers)
    rounds = workload.rounds(args.seed)
    times: list[float] = []
    traced: list[float] = []
    untraced_wall = 0.0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        times += loop.run_round(next(rounds))
        untraced_wall += time.perf_counter() - round_start
        if tracer is not None:
            tracer.install()
            traced += loop.run_round(next(rounds), call=tracer.op)
            tracer.uninstall()
        if time.perf_counter() - start >= args.seconds:
            break

    result = {
        "ready": ready,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "failures": loop.failures[:20],
        "ops_per_s": len(times) / untraced_wall,
        "op_s": timing_stats(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(times) - 1.0
        layers["trace.hooks_absent"] = len(tracer.absent)
        result["layers"] = layers
        result["hooks_absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
