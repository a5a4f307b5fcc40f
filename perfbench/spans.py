"""Traced runs: spans recorded around the calls into each library layer.

Wrappers are installed from the benchmark's side at the names callers
look up at call time; the library itself is not changed. Each span is a
list ``[name, start, end, parent, extra]`` kept in memory until the run
ends. A span name is ``<layer>.<what>``; the layers are the package
modules plus ``linalg``, the numpy/LAPACK boundary the solver calls.
The benchmark opens one ``op`` span around each timed operation.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

OP = "op"


def _note_nbytes(tracer, args, result, extra):
    """Size of the returned array, or the sum over a returned tuple."""
    arrays = result if isinstance(result, tuple) else (result,)
    extra["bytes"] = sum(int(getattr(a, "nbytes", 0)) for a in arrays)
    return result


def _note_linalg(tracer, args, result, extra):
    extra["n"] = int(args[0].shape[0])
    return result


def _note_solve(tracer, args, result, extra):
    extra["newton_iters"] = int(getattr(result, "newton_iters", 0))
    return result


def _note_profile(tracer, args, result, extra):
    """Wrap the returned profile's derivative samples and series oracle."""
    try:
        return dataclasses.replace(
            result,
            derivative=tracer.wrap("profiles.derivative", result.derivative),
            oracle=tracer.wrap("caputo.oracle", result.oracle),
        )
    except (TypeError, AttributeError):
        return result


# (span name, module, attribute, note). Each name is the one its caller
# looks up at call time: the solver's operator_for and evaluate, the
# operators module's weight and stencil builders, the reproduction suite's
# quadratures and profile lookup. A note adds counts to the span.
HOOKS = (
    ("dual.dual_solve", "fracdual.dual", "dual_solve", None),
    ("solver.solve", "fracdual.dual", "solve", _note_solve),
    ("operators.lookup", "fracdual.solver", "operator_for", None),
    ("expr.evaluate", "fracdual.solver", "evaluate", None),
    ("operators.build", "fracdual.operators", "fractional_operator", _note_nbytes),
    ("operators.weights", "fracdual.operators", "substitution_weight_matrix", _note_nbytes),
    ("operators.weights", "fracdual.operators", "byparts_weight_parts", _note_nbytes),
    ("stencils.matrix", "fracdual.operators", "differentiation_matrix", _note_nbytes),
    ("stencils.matrix", "fracdual.operators", "difference_matrix_3pt", _note_nbytes),
    ("linalg.solve", "numpy.linalg", "solve", _note_linalg),
    ("caputo.quadrature", "fracdual.bench", "caputo_substitution", None),
    ("caputo.quadrature", "fracdual.bench", "caputo_byparts", None),
    ("caputo.weights", "fracdual.caputo", "power_weights", None),
    ("profiles.lookup", "fracdual.bench", "get_profile", _note_profile),
    ("problem_file.parse", "fracdual.problem_file", "parse_problem_text", None),
)


class Tracer:
    """Records nested spans; ``install`` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span; a cached ``fn`` also records cache hits."""
        cache_info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            hits = cache_info().hits if cache_info is not None else None
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if hits is not None:
                rec[4]["hit"] = cache_info().hits > hits
            if note is not None:
                result = note(self, args, result, rec[4])
            return result

        return traced

    def op(self, fn: Callable):
        """Run ``fn`` inside an ``op`` span and return its result."""
        rec = self._open(OP)
        try:
            return fn()
        finally:
            self._close(rec)

    def install(self, hooks=HOOKS) -> None:
        """Wrap every hook target; a missing target is listed in ``absent``."""
        for name, module_name, attr, note in hooks:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                target = f"{module_name}.{attr}"
                if target not in self.absent:
                    self.absent.append(target)
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, note))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-operation layer times and counts from the spans of traced ops.

    Times are means per op in seconds; a layer's time counts its
    outermost spans only, its self time subtracts direct children.
    ``problem_file.parse_s`` is the total parse time outside any op
    (set-up). ``trace.unattributed_frac`` is the share of op time that
    no layer span covers.
    """
    n = len(spans)
    child = [0.0] * n
    root = [0] * n
    for i, (name, start, end, parent, _extra) in enumerate(spans):
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            child[parent] += end - start

    inclusive: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    extra_sum: dict[str, float] = defaultdict(float)
    parse_s = op_s = op_uncovered = 0.0
    ops = 0
    for i, (name, start, end, parent, extra) in enumerate(spans):
        dur = end - start
        if spans[root[i]][0] != OP:
            if name == "problem_file.parse":
                parse_s += dur
            continue
        if name == OP:
            ops += 1
            op_s += dur
            op_uncovered += dur - child[i]
            continue
        layer = _layer(name)
        if _layer(spans[parent][0]) != layer:
            inclusive[layer] += dur
        self_time[layer] += dur - child[i]
        total[name] += dur
        count[name] += 1
        if name == "linalg.solve":
            extra_sum["gflop"] += 2.0 / 3.0 * extra["n"] ** 3 / 1e9
        if not extra.get("hit", False):
            extra_sum["bytes_built"] += extra.get("bytes", 0)
        if extra.get("hit"):
            extra_sum[f"{name}.hits"] += 1
        extra_sum["newton_iters"] += extra.get("newton_iters", 0)

    per = 1.0 / max(ops, 1)
    builds = count["operators.build"]
    return {
        "operators.assemble_s": inclusive["operators"] * per,
        "operators.bytes_built": extra_sum["bytes_built"] * per,
        "operators.calls": count["operators.lookup"] * per,
        "operators.cache_hit_ratio": extra_sum["operators.build.hits"] / builds if builds else 0.0,
        "stencils.matrix_s": inclusive["stencils"] * per,
        "linalg.solve_s": inclusive["linalg"] * per,
        "linalg.solve_calls": count["linalg.solve"] * per,
        "linalg.solve_gflop": extra_sum["gflop"] * per,
        "solver.self_s": self_time["solver"] * per,
        "solver.newton_iters": extra_sum["newton_iters"] * per,
        "solver.solves": count["solver.solve"] * per,
        "expr.evaluate_s": inclusive["expr"] * per,
        "expr.evaluate_calls": count["expr.evaluate"] * per,
        "dual.self_s": self_time["dual"] * per,
        "caputo.quadrature_s": total["caputo.quadrature"] * per,
        "caputo.weights_s": total["caputo.weights"] * per,
        "caputo.oracle_s": total["caputo.oracle"] * per,
        "profiles.derivative_s": total["profiles.derivative"] * per,
        "problem_file.parse_s": parse_s,
        "trace.unattributed_frac": op_uncovered / op_s if op_s > 0 else 0.0,
    }
