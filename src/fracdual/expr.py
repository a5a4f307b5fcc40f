"""Parser and evaluator for the equation mini-language.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := ("-")? power
    power  := atom ("^" factor)?
    atom   := number | "x" | "u" | "pi" | "e" | name "(" expr ")" | "(" expr ")"

where name is a key of ``_FUNCTIONS`` (name -> numpy op and domain guard),
and the binary operators are the keys of ``_OPERATORS`` (symbol ->
precedence and evaluator): the tokenizer, parser, evaluator and printer
read both tables. "^" is right-associative and binds tighter than unary
minus. Numbers are ASCII decimal digits with an optional fraction and
exponent (1, 2.5, 1e-3) and must be finite; names are ASCII; any other
character is a ParseError at its offset. Trees are immutable after
parsing; evaluation is pure and accepts floats or numpy arrays for x and u.
Domain violations (tan near a pole, ln of a non-positive, sqrt of a
negative, division by zero, fractional powers of negatives, gamma at a
pole) raise EvalDomainError instead of propagating NaN.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .special_functions import SpecialFunctionDomainError, gamma

__all__ = [
    "ExpressionTree",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "ParseError",
    "UnknownIdentifierError",
    "EvalDomainError",
    "parse_expression",
    "evaluate",
    "to_string",
]

_CONSTANTS = {"pi": math.pi, "e": math.e}
_TAN_COS_GUARD = 1e-12
# Most levels of parentheses, calls and "^" right operands open at once.
# A level costs the parser up to seven stack frames, so this keeps a parse
# well inside Python's default recursion limit of 1000.
MAX_NESTING = 100


class ParseError(ValueError):
    """Syntax error; carries the offset (string index) of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ParseError):
    """Identifier is not a function, constant, or variable of the grammar."""


class EvalDomainError(ValueError):
    """Evaluation left a function's real domain.

    ``reason`` says how; ``index`` is the position of the first offending
    entry when the evaluation was vectorized, else None.
    """

    def __init__(self, reason: str, index=None):
        where = f" (array index {index})" if index is not None else ""
        super().__init__(f"{reason}{where}")
        self.reason = reason
        self.index = index


@dataclass(frozen=True)
class Const:
    """A number the grammar spells: finite, not negative and not -0.0.
    A minus sign is a ``Unary`` node, so ``to_string`` reprints every tree."""

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.copysign(1.0, self.value) > 0.0):
            raise ValueError(f"a constant is finite and not negative, got {self.value!r}")


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "u"


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    operand: "ExpressionTree"


@dataclass(frozen=True)
class Binary:
    op: str  # a key of _OPERATORS
    left: "ExpressionTree"
    right: "ExpressionTree"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "ExpressionTree"


ExpressionTree = Union[Const, Var, Unary, Binary, Call]


# --- evaluation ---------------------------------------------------------------


def _check(mask, message):
    if np.any(mask):
        raise EvalDomainError(message, index=int(np.flatnonzero(mask)[0]) if np.ndim(mask) else None)


def _gamma(arg):
    try:
        return gamma(arg)
    except SpecialFunctionDomainError as exc:
        raise EvalDomainError(str(exc), exc.index) from exc


def _pow(base, expo):
    base = np.asarray(base, dtype=float)
    expo = np.asarray(expo, dtype=float)
    if np.all(base > 0.0):
        with np.errstate(over="ignore"):
            return np.power(base, expo)
    neg = base < 0.0
    zero = base == 0.0
    _check(neg & (expo != np.floor(expo)), "fractional power of a negative base")
    _check(zero & (expo < 0.0), "zero raised to a negative power")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mag = np.power(np.abs(base), expo)
        sign = np.where(neg & (np.mod(expo, 2.0) == 1.0), -1.0, 1.0)
        out = np.where(zero, np.where(expo == 0.0, 1.0, 0.0), sign * mag)
    return out


def _divide(num, den):
    _check(np.asarray(den) == 0.0, "division by zero")
    return num / den


# The grammar's functions: name -> (numpy op, guard), a guard being None or
# the (bad-argument mask, message) checked before the op runs.
_FUNCTIONS = {
    "sin": (np.sin, None),
    "cos": (np.cos, None),
    "tan": (np.tan, (lambda a: np.abs(np.cos(a)) < _TAN_COS_GUARD, "tan evaluated at a pole")),
    "exp": (np.exp, None),
    "ln": (np.log, (lambda a: np.asarray(a) <= 0.0, "ln of a non-positive value")),
    "sqrt": (np.sqrt, (lambda a: np.asarray(a) < 0.0, "sqrt of a negative value")),
    "abs": (np.abs, None),
    "gamma": (_gamma, None),
}
# The grammar's binary operators, a precedence level a line: symbol -> (precedence, evaluator).
_OPERATORS = {
    "+": (1, operator.add), "-": (1, operator.sub),
    "*": (2, operator.mul), "/": (2, _divide),
    "^": (4, _pow),
}
_NEG = 3  # precedence of unary minus


def _eval(node: ExpressionTree, x, u):
    chain = []  # a left-deep chain "a + b + ..." runs in a loop: MAX_NESTING bounds the calls
    while isinstance(node, Binary):
        chain.append(node)
        node = node.left
    if isinstance(node, Const):
        value = node.value
    elif isinstance(node, Var):
        value = x if node.name == "x" else u
    elif isinstance(node, Unary):
        value = -_eval(node.operand, x, u)
    else:  # Call
        value = _eval(node.arg, x, u)
        func, guard = _FUNCTIONS[node.func]
        if guard is not None:
            _check(guard[0](value), guard[1])
        value = func(value)
    for node in reversed(chain):
        value = _OPERATORS[node.op][1](value, _eval(node.right, x, u))
    return value


def evaluate(tree: ExpressionTree, x=0.0, u=0.0):
    """Evaluate ``tree`` at (x, u).

    Scalars in, float out; numpy arrays in, array out (broadcasting the
    scalar argument when only one is an array), also when the tree reads
    no array (``"2.5"``, or ``"u"`` with a scalar u). Overflow gives inf
    and inf - inf gives nan, silently: callers check finiteness themselves.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        result = _eval(tree, x, u)
    if np.isscalar(x) and np.isscalar(u):
        return float(result)
    if np.ndim(result) == 0:
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(u)), result)
    return result


# --- tokenizer --------------------------------------------------------------

# An ASCII number (exponent only when digits follow), an ASCII name, or an
# operator; whitespace matches nothing and is skipped, and any other
# character is "bad".
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[()" + re.escape("".join(_OPERATORS)) + "])"
    r"|(?P<bad>\S)"
)


def _tokenize(text: str):
    tokens = []  # (kind, value, offset)
    for match in _TOKEN.finditer(text):
        kind, value, offset = match.lastgroup, match.group(), match.start()
        if kind == "bad":
            raise ParseError(f"unexpected character {value!r}", offset)
        tokens.append((kind, value, offset))
    tokens.append(("eof", "", len(text)))
    return tokens


# --- recursive-descent parser ------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", offset)
        return self.advance()

    def nested(self, rule, offset: int) -> ExpressionTree:
        """``rule()`` one level deeper, for the "(", call or "^" at ``offset``."""
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", offset)
        self.depth += 1
        node = rule()
        self.depth -= 1
        return node

    def parse(self) -> ExpressionTree:
        tree = self.expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ParseError(f"unexpected trailing input {value!r}", offset)
        return tree

    def expr(self, min_prec: int = 1) -> ExpressionTree:
        """Factors joined left to right by operators of precedence ``min_prec`` or more."""
        node = self.factor()
        while True:
            kind, value, _ = self.peek()
            prec = _OPERATORS[value][0] if kind == "op" and value in _OPERATORS else 0
            if prec < min_prec:
                return node
            self.advance()
            node = Binary(value, node, self.expr(prec + 1))

    def factor(self) -> ExpressionTree:
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Unary("-", self.power())
        return self.power()

    def power(self) -> ExpressionTree:
        base = self.atom()
        kind, value, offset = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return Binary("^", base, self.nested(self.factor, offset))
        return base

    def atom(self) -> ExpressionTree:
        kind, value, offset = self.advance()
        if kind == "number":
            if not math.isfinite(float(value)):
                raise ParseError(f"number {value!r} is not finite", offset)
            return Const(float(value))
        if kind == "name":
            if value in ("x", "u"):
                return Var(value)
            if value in _CONSTANTS:
                return Const(_CONSTANTS[value])
            if value in _FUNCTIONS:
                paren = self.expect_op("(")[2]
                arg = self.nested(self.expr, paren)
                self.expect_op(")")
                return Call(value, arg)
            raise UnknownIdentifierError(f"unknown identifier {value!r}", offset)
        if kind == "op" and value == "(":
            node = self.nested(self.expr, offset)
            self.expect_op(")")
            return node
        raise ParseError(f"expected a value, got {value!r}" if value else "unexpected end of input", offset)


def parse_expression(text: str) -> ExpressionTree:
    """Parse ``text`` into an immutable ExpressionTree."""
    return _Parser(text).parse()


# --- printing -----------------------------------------------------------------


def _fmt_number(v: float) -> str:
    return next((name for name, value in _CONSTANTS.items() if v == value), repr(v))


def _print(node: ExpressionTree) -> tuple[str, int]:
    chain = []  # a left-deep chain of binary operators, walked as in _eval
    while isinstance(node, Binary):
        chain.append(node)
        node = node.left
    if isinstance(node, Const):
        text, prec = _fmt_number(node.value), 5
    elif isinstance(node, Var):
        text, prec = node.name, 5
    elif isinstance(node, Call):
        text, prec = f"{node.func}({_print(node.arg)[0]})", 5
    else:
        text, prec = _print(node.operand)
        # grammar admits a single leading minus per factor, so nested
        # negations must be parenthesized
        if prec < _NEG or isinstance(node.operand, Unary):
            text = f"({text})"
        text, prec = f"-{text}", _NEG
    for node in reversed(chain):
        left, lp = text, prec
        right, rp = _print(node.right)
        prec = _OPERATORS[node.op][0]
        # the left side of ^ is an atom and its right side a factor; + - * /
        # associate left, so an equal-precedence right operand is wrapped for
        # the reparse to rebuild the identical tree
        left_min, right_min = (prec + 1, _NEG) if node.op == "^" else (prec, prec + 1)
        if lp < left_min:
            left = f"({left})"
        if rp < right_min:
            right = f"({right})"
        text = f"{left}{node.op}{right}"
    return text, prec


def to_string(tree: ExpressionTree) -> str:
    """Canonical text form; parse_expression(to_string(t)) == t."""
    return _print(tree)[0]
