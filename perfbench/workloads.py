"""Workload inputs and the one operation each input stands for.

Every workload has a fixed pool of inputs. The seed only orders the pool:
a run is a sequence of rounds, each round one seeded permutation of the
whole pool, so every round does the same work and per-operation means of
counts repeat exactly from run to run.

Inputs reach the library the way a user's do: problem files (text) are
parsed by ``fracdual.problem_file`` and solved with a ``SolverConfig``
built directly from the parsed step.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Iterator

import fracdual.bench
import fracdual.dual
import fracdual.problem_file
from fracdual.solver import SolverConfig

import gate

FIXTURES = (
    "linear_x12",
    "linear_sqrt",
    "linear_quarter",
    "linear_hundredth",
    "quasilinear_tan",
    "quasilinear_tan_exact",
    "twoterm_sine",
    "semilinear_unstable",
    "semilinear_stable",
    "semilinear_cubic",
)
LARGE_M = 2000
LARGE_M_PROBLEMS = ("quasilinear_tan", "twoterm_sine")
WARM_BASE = "quasilinear_tan"
WARM_POOL = tuple(range(1, 32))  # forcing c*sin(x) with c = k/8
DERIVATIVE_H = 1e-6
DERIVATIVE_PROFILES = ("tan", "exp", "sin")
DERIVATIVE_ALPHAS = (0.4, 0.9, 1.3, 1.7)
DERIVATIVE_POINTS = tuple(round(0.05 * k, 2) for k in range(1, 13))


@dataclass(frozen=True)
class Op:
    """One timed call into the library and how to reduce its output."""

    key: str
    run: Callable[[], object]
    observe: Callable[[object], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    pool: tuple[Op, ...]
    cold: bool  # clear every fracdual cache before each op

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.sample(self.pool, len(self.pool))


def fixture_text(name: str) -> str:
    return resources.files("fracdual.fixtures").joinpath(f"{name}.prob").read_text("utf-8")


def _set_key(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    out, count = pattern.subn(f"{key} = {value}", text)
    if count != 1:
        raise ValueError(f"fixture has no single {key!r} line")
    return out


def _solve_op(key: str, text: str) -> Op:
    # Built from the parsed step rather than through ProblemFile.config(),
    # so a change to that helper cannot change what is timed.
    problem = fracdual.problem_file.parse_problem_text(text)
    cfg = SolverConfig(h=problem.h)

    def run():
        # Looked up at call time so a traced run sees its wrapper.
        return fracdual.dual.dual_solve(problem.equation, cfg, threshold=problem.threshold)

    return Op(key, run, lambda report: gate.observe_report(report, problem.h))


def _derivative_op(profile: str, alpha: float, x: float) -> Op:
    def run():
        return fracdual.bench.derivative_table(profile, alpha, DERIVATIVE_H, [x])

    return Op(f"derivative/{profile}/{alpha}/{x}", run, gate.observe_row)


def solve_inputs(name: str) -> list[tuple[str, str]]:
    """(reference key, problem text) for every input of a solve workload."""
    if name == "fixtures":
        return [(f"fixtures/{f}", fixture_text(f)) for f in FIXTURES]
    if name == "large_m":
        return [
            (f"large_m/{f}", _set_key(fixture_text(f), "h", repr(1.0 / LARGE_M)))
            for f in LARGE_M_PROBLEMS
        ]
    if name == "warm_sweep":
        base = fixture_text(WARM_BASE)
        return [
            (f"warm_sweep/c={k}/8", _set_key(base, "forcing", f'"{k / 8!r}*sin(x)"'))
            for k in WARM_POOL
        ]
    raise ValueError(f"{name!r} is not a solve workload")


def build(name: str) -> Workload:
    """Parse every input of the workload; warm_sweep also primes the caches."""
    if name == "derivative":
        pool = tuple(
            _derivative_op(p, a, x)
            for p in DERIVATIVE_PROFILES
            for a in DERIVATIVE_ALPHAS
            for x in DERIVATIVE_POINTS
        )
        return Workload(name, pool, cold=True)
    pool = tuple(_solve_op(key, text) for key, text in solve_inputs(name))
    if name == "warm_sweep":
        # One solve of the unmodified fixture fills every operator cache
        # the pool will look up (same orders, same h).
        base = fracdual.problem_file.parse_problem_text(fixture_text(WARM_BASE))
        fracdual.dual.dual_solve(base.equation, SolverConfig(h=base.h))
        return Workload(name, pool, cold=False)
    return Workload(name, pool, cold=True)


def cache_clearers() -> list[Callable[[], None]]:
    """``cache_clear`` of every cached callable found on a fracdual module.

    Found by introspection, so caches that are added, renamed or removed
    later are picked up without editing the benchmark.
    """
    seen: dict[int, Callable[[], None]] = {}
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "fracdual" or mod_name.startswith("fracdual.")):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                seen.setdefault(id(value), clear)
    return list(seen.values())
