"""Problem-file format: flat UTF-8 ``key = value`` lines.

Keys: term.<i>.coeff, term.<i>.alpha, forcing, rhs, T, h, ic.u0,
ic.du0 (optional), exact (optional), threshold (optional). Expression
values are double-quoted strings in the expression grammar; ``#``
starts a comment; unknown keys are rejected (anti-typo), and so is a
term index with a leading zero, a second name for an index. A file
emitted by dump_problem reparses to an identical specification.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

from .caputo import FractionalOrder
from .expr import ExpressionTree, ParseError, parse_expression, to_string
from .solver import EquationSpec, SolverConfig, TermSpec, grid_size

__all__ = ["ProblemFile", "ProblemFileError", "parse_problem", "parse_problem_text", "dump_problem"]

_SCALAR_KEYS = {"T", "h", "ic.u0", "ic.du0", "threshold"}
_EXPR_KEYS = {"forcing", "rhs", "exact"}
_TERM_RE = re.compile(r"^term\.(0|[1-9][0-9]*)\.(coeff|alpha)$")
_REQUIRED = ("forcing", "rhs", "T", "h", "ic.u0")


class ProblemFileError(ValueError):
    """Malformed problem file; message carries the line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")
        self.line = line


@dataclass(frozen=True)
class ProblemFile:
    equation: EquationSpec
    h: float
    exact: Optional[ExpressionTree] = None
    threshold: Optional[float] = None

    def config(self, h: Optional[float] = None) -> SolverConfig:
        """Solver settings at the file's step, or at ``h`` when given."""
        return SolverConfig(self.h if h is None else h)


def _parse_expr(value: str, key: str, lineno: int) -> ExpressionTree:
    if not (len(value) >= 2 and value[0] == '"' and value[-1] == '"'):
        raise ProblemFileError(f"expression values must be double-quoted, got {value!r}", lineno)
    try:
        return parse_expression(value[1:-1])
    except ParseError as exc:
        raise ProblemFileError(f"bad expression for {key}: {exc}", lineno) from None


def _parse_float(value: str, key: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ProblemFileError(f"key {key!r} needs a number, got {value!r}", lineno) from None


def parse_problem_text(text: str) -> ProblemFile:
    scalars: dict[str, float] = {}
    exprs: dict[str, ExpressionTree] = {}
    term_coeff: dict[int, ExpressionTree] = {}
    term_alpha: dict[int, float] = {}
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ProblemFileError("expected 'key = value'", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            raise ProblemFileError(f"duplicate key {key!r}", lineno)
        seen.add(key)
        term_match = _TERM_RE.match(key)
        if term_match:
            index = int(term_match.group(1))
            if term_match.group(2) == "coeff":
                term_coeff[index] = _parse_expr(value, key, lineno)
            else:
                term_alpha[index] = _parse_float(value, key, lineno)
        elif key in _EXPR_KEYS:
            exprs[key] = _parse_expr(value, key, lineno)
        elif key in _SCALAR_KEYS:
            scalars[key] = _parse_float(value, key, lineno)
        else:
            raise ProblemFileError(f"unknown key {key!r}", lineno)

    for key in _REQUIRED:
        if key not in scalars and key not in exprs:
            raise ProblemFileError(f"missing required key {key!r}")
    if not term_coeff:
        raise ProblemFileError("no terms given (need term.0.coeff and term.0.alpha)")
    if sorted(term_coeff) != list(range(len(term_coeff))) or sorted(term_alpha) != sorted(term_coeff):
        raise ProblemFileError("term indices must be 0..N-1 with matching coeff and alpha keys")

    terms = tuple(
        TermSpec(coeff=term_coeff[i], order=FractionalOrder(term_alpha[i]))
        for i in range(len(term_coeff))
    )
    try:
        equation = EquationSpec(
            terms=terms,
            forcing=exprs["forcing"],
            rhs=exprs["rhs"],
            interval_end=scalars["T"],
            ic_u0=scalars["ic.u0"],
            ic_du0=scalars.get("ic.du0"),
        )
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    h = scalars["h"]
    try:
        grid_size(equation.interval_end, h)
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    threshold = scalars.get("threshold")
    if threshold is not None and not (math.isfinite(threshold) and threshold > 0.0):
        raise ProblemFileError(f"threshold must be positive and finite, got {threshold}")
    return ProblemFile(equation=equation, h=h, exact=exprs.get("exact"), threshold=threshold)


def parse_problem(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_problem_text(text)
    except ProblemFileError as exc:
        raise ProblemFileError(f"{path}: {exc}") from exc


def dump_problem(problem: ProblemFile) -> str:
    """Normalized text form; reparses to an identical ProblemFile."""
    eq = problem.equation
    lines = []
    for i, term in enumerate(eq.terms):
        lines.append(f'term.{i}.coeff = "{to_string(term.coeff)}"')
        lines.append(f"term.{i}.alpha = {term.order.alpha!r}")
    lines.append(f'forcing = "{to_string(eq.forcing)}"')
    lines.append(f'rhs = "{to_string(eq.rhs)}"')
    lines.append(f"T = {eq.interval_end!r}")
    lines.append(f"h = {problem.h!r}")
    lines.append(f"ic.u0 = {eq.ic_u0!r}")
    if eq.ic_du0 is not None:
        lines.append(f"ic.du0 = {eq.ic_du0!r}")
    if problem.exact is not None:
        lines.append(f'exact = "{to_string(problem.exact)}"')
    if problem.threshold is not None:
        lines.append(f"threshold = {problem.threshold!r}")
    return "\n".join(lines) + "\n"
