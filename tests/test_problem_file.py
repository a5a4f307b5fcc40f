import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracdual.bench import FIXTURES, load_fixture
from fracdual.caputo import FractionalOrder
from fracdual.dual import compare_to_exact, dual_solve
from fracdual.expr import parse_expression
from fracdual.problem_file import (
    ProblemFile,
    ProblemFileError,
    dump_problem,
    parse_problem,
    parse_problem_text,
)
from fracdual.solver import EquationSpec, TermSpec

MINIMAL = """
# comment line
term.0.coeff = "1"
term.0.alpha = 0.5
forcing = "sin(x)"
rhs = "u"
T = 1.0
h = 0.1
ic.u0 = 0.0
"""


def test_parse_minimal():
    problem = parse_problem_text(MINIMAL)
    assert problem.h == 0.1
    assert problem.exact is None and problem.threshold is None
    eq = problem.equation
    assert len(eq.terms) == 1
    assert eq.terms[0].order.alpha == 0.5
    assert eq.ic_du0 is None


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_parse(name):
    problem = load_fixture(name)
    assert problem.equation.interval_end == 1.0


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_round_trip(name):
    problem = load_fixture(name)
    again = parse_problem_text(dump_problem(problem))
    assert again.equation == problem.equation
    assert again.h == problem.h
    assert again.exact == problem.exact
    assert again.threshold == problem.threshold


def test_unknown_key_rejected():
    with pytest.raises(ProblemFileError, match="unknown key"):
        parse_problem_text(MINIMAL + "forcign = \"0\"\n")


@pytest.mark.parametrize("key", ["term.00.coeff", "term.01.alpha"])
def test_non_canonical_term_index_rejected(key):
    # a second spelling of index 0 must not override term.0 silently
    with pytest.raises(ProblemFileError, match=f"unknown key '{re.escape(key)}'"):
        parse_problem_text(MINIMAL + f'{key} = "2"\n')


def test_duplicate_key_rejected():
    with pytest.raises(ProblemFileError, match="duplicate"):
        parse_problem_text(MINIMAL + "h = 0.1\n")


def test_missing_required():
    with pytest.raises(ProblemFileError, match="missing required"):
        parse_problem_text('term.0.coeff = "1"\nterm.0.alpha = 0.5\nforcing = "0"\nrhs = "u"\nT = 1.0\nh = 0.1\n')


def test_unquoted_expression_rejected():
    bad = MINIMAL.replace('forcing = "sin(x)"', "forcing = sin(x)")
    with pytest.raises(ProblemFileError, match="double-quoted"):
        parse_problem_text(bad)


def test_unquoted_coefficient_has_one_line_prefix():
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text("term.0.coeff = 1\n")
    assert str(err.value) == "line 1: expression values must be double-quoted, got '1'"


def test_bad_expression_names_key_and_line():
    bad = MINIMAL.replace('forcing = "sin(x)"', 'forcing = "x*\u00b2"')
    with pytest.raises(ProblemFileError) as err:
        parse_problem_text(bad)
    assert str(err.value) == "line 5: bad expression for forcing: unexpected character '\u00b2' (offset 2)"


def test_term_indices_must_be_contiguous():
    bad = MINIMAL.replace("term.0.coeff", "term.1.coeff").replace("term.0.alpha", "term.1.alpha")
    with pytest.raises(ProblemFileError, match="term indices"):
        parse_problem_text(bad)


def test_grid_divisibility_checked():
    with pytest.raises(ProblemFileError, match="does not divide"):
        parse_problem_text(MINIMAL.replace("h = 0.1", "h = 0.03"))


def test_grid_cap_checked():
    # rejected at parse time, before a solve could allocate m + 1 = 10^9 floats
    with pytest.raises(ProblemFileError, match=r"grid too fine: T/h = 1e\+09, over 1000000 steps"):
        parse_problem_text(MINIMAL.replace("h = 0.1", "h = 1e-9"))


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("h = 0.1", "h = nan", "positive finite step, got T=1.0, h=nan"),
        ("h = 0.1", "h = 0", "positive finite step, got T=1.0, h=0.0"),
        ("T = 1.0", "T = nan", "interval_end must be finite, got nan"),
        ("T = 1.0", "T = inf", "interval_end must be finite, got inf"),
        ("ic.u0 = 0.0", "ic.u0 = nan", "ic_u0 must be finite, got nan"),
        ("term.0.alpha = 0.5", "term.0.alpha = 1.5\nic.du0 = -inf", "ic_du0 must be finite, got -inf"),
    ],
)
def test_non_finite_values_rejected(old, new, message):
    with pytest.raises(ProblemFileError, match=message):
        parse_problem_text(MINIMAL.replace(old, new))


def test_ic_mismatch_reported():
    bad = MINIMAL.replace("term.0.alpha = 0.5", "term.0.alpha = 1.5")
    with pytest.raises(ProblemFileError, match="initial condition"):
        parse_problem_text(bad)


def test_syntax_error_carries_line_number():
    with pytest.raises(ProblemFileError, match="line 2"):
        parse_problem_text('term.0.coeff = "1"\nbogus line without equals\n')


def test_threshold_and_exact_optional_keys():
    text = MINIMAL + 'exact = "x^2"\nthreshold = 0.5\n'
    problem = parse_problem_text(text)
    assert problem.threshold == 0.5
    assert problem.exact is not None


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.0", "-1"])
def test_threshold_must_be_positive_and_finite(value):
    with pytest.raises(ProblemFileError, match=f"threshold must be positive and finite, got {float(value)}"):
        parse_problem_text(MINIMAL + f"threshold = {value}\n")


def test_parse_problem_from_path(tmp_path):
    path = tmp_path / "p.prob"
    path.write_text(MINIMAL, encoding="utf-8")
    problem = parse_problem(path)
    assert problem.h == 0.1


def test_parse_problem_bad_path_message(tmp_path):
    path = tmp_path / "bad.prob"
    path.write_text("junk = 1\n", encoding="utf-8")
    with pytest.raises(ProblemFileError, match="bad.prob"):
        parse_problem(path)


def test_config_override_resolves_fixture_at_another_step(solved_fixture):
    problem, base = solved_fixture("linear_x12")
    cfg = problem.config(h=2 * problem.h)
    assert cfg.h == 0.02
    assert problem.config().h == problem.h
    with pytest.raises(TypeError):
        problem.config(newton_tol=1e-11)
    report = dual_solve(problem.equation, cfg, threshold=problem.threshold)
    assert report.sol_subst.u.m == 50
    assert report.verdict.reliable
    # the coarser grid is the less accurate one
    coarse = compare_to_exact(report.sol_subst, problem.exact).sup
    fine = compare_to_exact(base.sol_subst, problem.exact).sup
    assert coarse > fine


_EXPRESSIONS = ("0", "1", "x", "u", "-u", "x*u + 1", "sin(x) - u^2", "exp(-x)", "2.5e-3*x^1.2", "ln(1 + x^2)/sqrt(pi)")
_SCALARS = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def _problems(draw):
    expr = st.sampled_from(_EXPRESSIONS).map(parse_expression)
    alphas = draw(st.lists(st.sampled_from((0.3, 0.5, 1.0, 1.2, 1.5, 2.0)), min_size=1, max_size=2))
    h = draw(st.sampled_from((0.1, 0.05, 0.01, 1 / 16)))
    equation = EquationSpec(
        terms=tuple(TermSpec(draw(expr), FractionalOrder(a)) for a in alphas),
        forcing=draw(expr),
        rhs=draw(expr),
        interval_end=draw(st.integers(8, 200)) * h,
        ic_u0=draw(_SCALARS),
        ic_du0=draw(_SCALARS) if max(alphas) > 1.0 else None,
    )
    exact = draw(st.none() | expr)
    threshold = draw(st.none() | st.floats(min_value=1e-12, max_value=1e3))
    return ProblemFile(equation=equation, h=h, exact=exact, threshold=threshold)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_problems())
def test_dump_parse_round_trip(problem):
    assert parse_problem_text(dump_problem(problem)) == problem
