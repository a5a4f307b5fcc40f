import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracdual.expr import (
    _FUNCTIONS,
    _OPERATORS,
    MAX_NESTING,
    Binary,
    Call,
    Const,
    EvalDomainError,
    ParseError,
    Unary,
    UnknownIdentifierError,
    Var,
    _pow,
    evaluate,
    parse_expression,
    to_string,
)

# value of u^2 + tan(u) at u = -0.2778991084, pinned from a 40-digit evaluation
U2_PLUS_TAN_REF = -0.2080531722045243557860992


def ev(text, x=0.0, u=0.0):
    return evaluate(parse_expression(text), x, u)


def test_basic_arithmetic():
    assert ev("x^2 + 1/100", x=0.1) == pytest.approx(0.02, rel=1e-12)
    assert ev("cos(u)", u=0.0) == 1.0
    assert ev("sin(x)", x=0.0) == 0.0
    assert ev("x^2*u", x=2.0, u=3.0) == pytest.approx(12.0, rel=1e-15)


def test_precedence():
    assert ev("2+3*4^2") == 50.0
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("2^-1") == 0.5
    assert ev("-x^2", x=3.0) == -9.0  # minus applies to the whole power
    assert ev("3 - -2") == 5.0
    assert ev("6/3/2") == 1.0


def test_constants():
    assert ev("pi") == math.pi
    assert ev("e") == math.e
    assert ev("gamma(0.5)") == pytest.approx(math.sqrt(math.pi), rel=1e-13)


def test_rhs_oracle_value():
    # cross-checked against an independent high-precision calculator
    assert ev("u^2 + tan(u)", u=-0.2778991084) == pytest.approx(U2_PLUS_TAN_REF, abs=1e-12)


def test_scientific_notation():
    assert ev("1e-3 + 2.5E2") == pytest.approx(250.001)


@pytest.mark.parametrize(
    "bad",
    [
        "", "1 +", "(x", "x )", "foo(x)", "y + 1", "1..2", "x x", "sin x", "--x",
        "\u00b2", "x*\u00b2", "\u0663", "1e999", "2*1e400",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expression(bad)


def test_unknown_identifier_offset():
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("1 + foo(x)")
    assert err.value.offset == 4


def test_readme_lists_every_function():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"the functions\s+`([^`]*)`", readme).group(1).split()
    assert listed == list(_FUNCTIONS)


def test_readme_lists_every_operator():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"The expression grammar:\s+`([^`]*)`", readme).group(1).split()
    assert listed == list(_OPERATORS)


@pytest.mark.parametrize(
    "text,kwargs",
    [
        ("tan(x)", dict(x=math.pi / 2)),
        ("ln(x)", dict(x=0.0)),
        ("ln(x)", dict(x=-1.0)),
        ("sqrt(u)", dict(u=-4.0)),
        ("1/x", dict(x=0.0)),
        ("x^u", dict(x=-2.0, u=0.5)),
        ("x^u", dict(x=0.0, u=-1.0)),
        ("gamma(x)", dict(x=-2.0)),
    ],
)
def test_domain_errors(text, kwargs):
    with pytest.raises(EvalDomainError):
        ev(text, **kwargs)


def test_domain_error_carries_array_index():
    x = np.array([1.0, 2.0, -3.0, 4.0])
    for text, reason in (("ln(x)", "ln of a non-positive value"), ("gamma(x)", "gamma: pole at -3.0")):
        with pytest.raises(EvalDomainError) as err:
            evaluate(parse_expression(text), x, 0.0)
        assert (err.value.reason, err.value.index) == (reason, 2)
        assert str(err.value) == f"{reason} (array index 2)"


@pytest.mark.parametrize(
    "nest, offset",
    [
        (lambda n: "(" * n + "x" + ")" * n, MAX_NESTING),
        (lambda n: "sin(" * n + "x" + ")" * n, 4 * MAX_NESTING + 3),
        (lambda n: "x^" * n + "x", 2 * MAX_NESTING + 1),
        # the deepest parser stack a level can take: both binary levels, then "("
        (lambda n: "x+x*(" * n + "x" + ")" * n, 5 * MAX_NESTING + 4),
    ],
    ids=["parentheses", "calls", "powers", "operators"],
)
def test_nesting_is_capped(nest, offset):
    # offset: the "(" or "^" that opens level MAX_NESTING + 1
    tree = parse_expression(nest(MAX_NESTING))
    assert parse_expression(to_string(tree)) == tree
    assert math.isfinite(evaluate(tree, 0.5, 0.5))
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING} levels") as err:
        parse_expression(nest(MAX_NESTING + 1))
    assert err.value.offset == offset


def test_long_flat_sum_round_trips():
    # a flat chain parses in a loop into a left-deep tree 1,999 operators
    # deep; printing and evaluating it must not recurse once per operator.
    # Trees are compared as text: the dataclass == recurses too
    text = to_string(parse_expression("+".join(["x"] * 2000)))
    assert to_string(parse_expression(text)) == text
    assert evaluate(parse_expression(text), 1.5, 0.0) == 3000.0


def test_vectorized_matches_scalar():
    tree = parse_expression("x^1.2 - 1.2*gamma(0.5)*gamma(1.2)/gamma(1.7)*x^0.7/sqrt(pi)")
    xs = np.linspace(0.01, 1.0, 37)
    vec = evaluate(tree, xs, np.zeros_like(xs))
    for x, v in zip(xs, vec):
        assert v == evaluate(tree, float(x), 0.0)


@pytest.mark.parametrize("text", ["2.5", "u", "sin(1) + pi"])
def test_array_in_array_out_when_no_array_is_read(text):
    tree = parse_expression(text)
    for x in (np.linspace(0.1, 1.0, 5), np.zeros((2, 3))):
        out = evaluate(tree, x, 0.5)
        assert isinstance(out, np.ndarray) and out.shape == x.shape
        assert np.all(out == evaluate(tree, 0.5, 0.5))


def test_negative_base_integer_exponent():
    assert ev("u^3", u=-2.0) == -8.0
    assert ev("u^2", u=-2.0) == 4.0


def test_pow_fast_path_matches_general_path():
    # _pow skips its sign and zero masks when every base is positive; an
    # appended (-1)^2 forces the general path, which must give the same bits
    rng = np.random.default_rng(7)
    base = np.r_[rng.uniform(1e-3, 2.0, 500), 10.0 ** rng.uniform(-300.0, 300.0, 500)]
    expo = np.r_[rng.uniform(-3.0, 3.0, 500), rng.uniform(-1.5, 1.5, 500)]
    general = _pow(np.r_[base, -1.0], np.r_[expo, 2.0])
    assert general[-1] == 1.0
    assert _pow(base, expo).tobytes() == general[:-1].tobytes()


# --- round trip ----------------------------------------------------------------

_SAMPLES = [
    "x^2 + 1/100",
    "5*u + tan(u)",
    "x^1.2 - 1.2*gamma(0.5)*gamma(1.2)/gamma(1.7)*x^0.7/sqrt(pi)",
    "x^4 - tan(x^2) + 200/(119*gamma(0.7))*x^1.7 + 200/(39*gamma(0.3))*x^2.3 + cos(x^2)*200/(11*gamma(0.1))*x^1.1",
    "-40*x^4",
    "sqrt(x) - sqrt(pi)/2",
    "(1/4 + x^2)*abs(u) - exp(-x)",
    "2^3^2 - -x",
]


@pytest.mark.parametrize("text", _SAMPLES)
def test_round_trip_samples(text):
    tree = parse_expression(text)
    printed = to_string(tree)
    again = parse_expression(printed)
    assert again == tree
    rng = np.random.default_rng(11)
    for _ in range(100):
        x, u = rng.uniform(0.05, 0.95, size=2)
        assert evaluate(again, x, u) == evaluate(tree, x, u)


def _leaves():
    return st.one_of(
        st.builds(Const, st.floats(min_value=0.001, max_value=100.0)),
        st.sampled_from([Var("x"), Var("u")]),
    )


def _trees():
    return st.recursive(
        _leaves(),
        lambda children: st.one_of(
            st.builds(Unary, st.just("-"), children),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/", "^"]), children, children),
            st.builds(Call, st.sampled_from(list(_FUNCTIONS)), children),
        ),
        max_leaves=24,
    )


@given(tree=_trees())
@settings(max_examples=300, deadline=None)
def test_print_parse_is_identity(tree):
    assert parse_expression(to_string(tree)) == tree


@pytest.mark.parametrize("value", [-1.0, -0.0, math.inf, -math.inf, math.nan])
def test_const_rejects_values_the_grammar_cannot_spell(value):
    # a parsed tree never holds one, so every tree reprints to itself
    with pytest.raises(ValueError, match="finite and not negative"):
        Const(value)


@given(
    # overflow-free subset: +,-,* over bounded values cannot reach inf-inf,
    # so any NaN here would be a genuine silent domain failure; gamma
    # overflows (gamma(gamma(100)) is inf), while tan stays below 1e12
    tree=_trees().filter(
        lambda t: not any(tok in to_string(t) for tok in ("exp", "sqrt", "gamma", "/", "^"))
    ),
    x=st.floats(min_value=-10.0, max_value=10.0),
    u=st.floats(min_value=-10.0, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_evaluation_never_silently_nan(tree, x, u):
    try:
        result = evaluate(tree, x, u)
    except EvalDomainError:
        return
    assert not math.isnan(float(np.asarray(result)))


# --- random token strings -------------------------------------------------------

_FUNCTION_NAMES = tuple(_FUNCTIONS)
_OPERANDS = ("x", "u", "pi", "e", "0", "1", "2.5", "1e300", "1e-300", ".5")
_TOKENS = (
    *_FUNCTION_NAMES,
    *_OPERANDS,
    *("+", "-", "*", "/", "^", "(", ")"),
    *("foo", ",", "1..2", "e5", "$", "sinx", "2x", "\u00b2"),  # stray tokens
)


def _grammar_tokens():
    return st.recursive(
        st.sampled_from(_OPERANDS).map(lambda a: [a]),
        lambda inner: st.one_of(
            st.tuples(st.sampled_from(_FUNCTION_NAMES), inner).map(lambda t: [t[0], "(", *t[1], ")"]),
            st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: [*t[0], t[1], *t[2]]),
            inner.map(lambda t: ["-", *t]),
        ),
        max_leaves=8,
    )


def _spliced(tokens_and_edits):
    tokens, edits = tokens_and_edits
    tokens = list(tokens)
    for where, tok in edits:
        tokens.insert(where % (len(tokens) + 1), tok)
    return tokens


@given(
    # uniform strings mostly fail to parse; grammar strings with up to two
    # tokens spliced in mostly parse, and reach evaluation
    tokens=st.one_of(
        st.lists(st.sampled_from(_TOKENS), max_size=16),
        st.tuples(
            _grammar_tokens(), st.lists(st.tuples(st.integers(0, 63), st.sampled_from(_TOKENS)), max_size=2)
        ).map(_spliced),
    ),
    sep=st.sampled_from(["", " "]),
    x=st.sampled_from([0.0, -1.0, 0.5, 1e300, -1e-300, np.array([-2.0, 0.0, 0.3, 1e200])]),
    u=st.sampled_from([0.0, -3.0, 0.7, -1e300, np.array([1e-300, -0.5, 2.0, -1e200])]),
)
@example(tokens=["gamma", "(", "-", "u", ")"], sep="", x=0.0, u=-1e300)
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_random_token_strings_raise_only_expression_errors(tokens, sep, x, u):
    # any other exception escaping parse or evaluate is a bug
    try:
        tree = parse_expression(sep.join(tokens))
    except ParseError:
        return
    try:
        evaluate(tree, x, u)
    except EvalDomainError:
        pass
