"""CLI surface tests: run main() in-process and inspect output files."""

import math
import re
import warnings
from importlib import resources

import numpy as np
import pytest

from fracdual.cli import _parse_points, main
from fracdual.expr import evaluate, parse_expression

TINY_PROBLEM = """
term.0.coeff = "1"
term.0.alpha = 0.5
forcing = "x^1.2 - 1.2*gamma(0.5)*gamma(1.2)/gamma(1.7)*x^0.7/sqrt(pi)"
rhs = "u"
T = 1.0
h = 0.05
ic.u0 = 0.0
exact = "x^1.2"
"""


@pytest.fixture
def tiny_problem(tmp_path):
    path = tmp_path / "tiny.prob"
    path.write_text(TINY_PROBLEM, encoding="utf-8")
    return path


def run(args, out_path):
    code = main(list(args) + ["--out", str(out_path)])
    return code, out_path.read_text(encoding="utf-8")


def test_derivative_table_benchmark_row(tmp_path):
    code, text = run(
        ["derivative", "--f", "tan", "--alpha", "0.4", "--h", "0.0001", "--points", "0.1:0.6:0.1"],
        tmp_path / "d.csv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "x,taylor_or_analytic,substitution,abs_err_subst,byparts,abs_err_byparts"
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["x"]) == 0.2
    assert float(row["taylor_or_analytic"]) == pytest.approx(0.4344599870, abs=1e-9)
    assert float(row["substitution"]) == pytest.approx(0.4344599557, abs=5e-8)
    assert float(row["byparts"]) == pytest.approx(0.4344599549, abs=5e-8)
    assert float(row["abs_err_subst"]) == pytest.approx(3.1e-8, abs=2e-8)


def test_derivative_const1_zero(tmp_path):
    code, text = run(
        ["derivative", "--f", "const1", "--alpha", "0.5", "--h", "0.01", "--points", "0.1,0.2"],
        tmp_path / "c.csv",
    )
    assert code == 0
    for line in text.strip().split("\n")[1:]:
        x, oracle, sub, es, byp, eb = (float(v) for v in line.split(","))
        assert oracle == 0.0 and sub == 0.0 and byp == 0.0


def test_derivative_power_profile(tmp_path):
    # substitution handles x^1.2; the by-parts column is nan because the
    # second-derivative sample at 0 is singular
    code, text = run(
        ["derivative", "--f", "x^1.2", "--alpha", "0.5", "--h", "1e-4", "--points", "0.5"],
        tmp_path / "p.csv",
    )
    assert code == 0
    row = text.strip().split("\n")[1].split(",")
    assert float(row[1]) == pytest.approx(0.7464341614606745, rel=1e-12)
    assert float(row[2]) == pytest.approx(0.7464341614606745, abs=1e-4)
    assert math.isnan(float(row[4]))


def test_solve_dual_verdict_line(tiny_problem, tmp_path):
    code, text = run(["solve", "--problem", str(tiny_problem), "--method", "dual"], tmp_path / "s.csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "x,u_subst,u_byparts,abs_diff,residual_subst,residual_byparts,error_subst,error_byparts"
    assert lines[-1].startswith("verdict=")
    assert "deviation=" in lines[-1] and "threshold=" in lines[-1]
    assert len(lines) == 1 + 21 + 1  # header, 21 nodes, verdict


def test_dual_verdict_line_counts_both_methods_newton_steps(tmp_path):
    # by-parts starts from the converged substitution answer
    fixture = resources.files("fracdual.fixtures").joinpath("quasilinear_tan.prob").read_text("utf-8")
    path = tmp_path / "tan.prob"
    path.write_text(fixture, encoding="utf-8")
    code, text = run(["solve", "--problem", str(path), "--method", "dual"], tmp_path / "q.csv")
    assert code == 0
    footer = text.strip().split("\n")[-1]
    assert footer.startswith("verdict=Reliable deviation=")
    assert footer.endswith(" iterations=4,2")


def test_dual_verdict_line_domain_failure(tmp_path):
    path = tmp_path / "undefined.prob"
    path.write_text(TINY_PROBLEM.replace('forcing = "x^1.2', 'forcing = "ln(x - 2) + x^1.2'), encoding="utf-8")
    code, text = run(["dual", "--problem", str(path)], tmp_path / "f.csv")
    assert code == 0
    verdict = text.strip().split("\n")[-1]
    assert verdict.startswith("verdict=MethodFailed(substitution,byparts) deviation=nan threshold=")


def test_overflowing_forcing_is_a_failure_not_an_error(tmp_path):
    # exp(1000*x) overflows from x = 0.71 on: node 15 at h = 0.05
    path = tmp_path / "overflow.prob"
    path.write_text(TINY_PROBLEM.replace('forcing = "x^1.2', 'forcing = "exp(1000*x) + x^1.2'), encoding="utf-8")
    code, text = run(["dual", "--problem", str(path)], tmp_path / "d.csv")
    assert code == 0
    assert text.strip().split("\n")[-1].startswith("verdict=MethodFailed(substitution,byparts) deviation=nan ")
    code, text = run(["solve", "--problem", str(path), "--method", "subst"], tmp_path / "s.csv")
    assert code == 0
    assert text.split("\n")[-2] == "converged=false iterations=0 reason=non-finite starting residual at node 15"


@pytest.mark.parametrize(
    "args, tags",
    [(["dual"], ["subst", "byparts"]), (["solve", "--method", "subst"], ["subst"])],
    ids=["dual", "subst"],
)
def test_failed_method_prints_nan(tmp_path, args, tags):
    # ln(x - 2) is undefined on the whole grid: no method has an iterate,
    # so every cell a method feeds reads nan; x and the exact curve do not
    path = tmp_path / "undefined.prob"
    path.write_text(TINY_PROBLEM.replace('forcing = "x^1.2', 'forcing = "ln(x - 2) + x^1.2'), encoding="utf-8")
    code, text = run(args + ["--problem", str(path), "--plot-data", str(tmp_path / "curves")], tmp_path / "f.csv")
    assert code == 0
    lines = text.split("\n")[:-1]
    header = lines[0].split(",")
    fed = [f"u_{t}" for t in tags] + ["abs_diff"] * (len(tags) == 2)
    fed += [f"{col}_{t}" for col in ("residual", "error") for t in tags]
    assert header == ["x"] + fed
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == 21
    assert all(row[1:] == ["nan"] * len(fed) for row in rows)
    if len(tags) == 2:
        assert lines[-1].startswith("verdict=MethodFailed(substitution,byparts) deviation=nan threshold=")
    else:
        assert re.fullmatch(r"converged=false iterations=0 reason=ln.* at node 1", lines[-1])
    for tag in tags:
        data = (tmp_path / f"curves_{tag}.dat").read_text(encoding="utf-8").split("\n")[:-1]
        assert data == [f"{row[0]} nan" for row in rows]
    exact = (tmp_path / "curves_exact.dat").read_text(encoding="utf-8")
    assert "nan" not in exact and len(exact.split("\n")) == 22


def test_jacobian_probe_domain_error_is_a_failure_not_an_error(tmp_path):
    # sqrt(1 - u) is defined at the start u = 1 but not at the Jacobian's
    # probe just above it: both methods fail, keeping the start
    path = tmp_path / "probe.prob"
    text = TINY_PROBLEM.replace('forcing = "x^1.2', 'forcing = "sqrt(1 - u) + x^1.2').replace("ic.u0 = 0.0", "ic.u0 = 1.0")
    path.write_text(text, encoding="utf-8")
    code, text = run(["dual", "--problem", str(path)], tmp_path / "d.csv")
    assert code == 0
    assert text.split("\n")[-2].startswith("verdict=MethodFailed(substitution,byparts) deviation=0 ")
    code, text = run(["solve", "--problem", str(path), "--method", "byparts"], tmp_path / "s.csv")
    assert code == 0
    reason = "Jacobian probe: sqrt of a negative value at node 1"
    assert text.split("\n")[-2] == f"converged=false iterations=0 reason={reason}"


def test_single_method_solve(tiny_problem, tmp_path):
    code, text = run(["solve", "--problem", str(tiny_problem), "--method", "subst"], tmp_path / "s1.csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "x,u_subst,residual_subst,error_subst"
    assert lines[-1].startswith("converged=true iterations=")


def test_dual_subcommand_alias(tiny_problem, tmp_path):
    code_a, text_a = run(["dual", "--problem", str(tiny_problem)], tmp_path / "a.csv")
    code_b, text_b = run(["solve", "--problem", str(tiny_problem), "--method", "dual"], tmp_path / "b.csv")
    assert code_a == code_b == 0
    assert text_a == text_b


def test_csv_byte_determinism(tiny_problem, tmp_path):
    _, text1 = run(["solve", "--problem", str(tiny_problem), "--method", "dual"], tmp_path / "r1.csv")
    _, text2 = run(["solve", "--problem", str(tiny_problem), "--method", "dual"], tmp_path / "r2.csv")
    assert text1 == text2
    assert "\r" not in text1  # LF endings only


def test_dump_normalized_round_trip(tiny_problem, tmp_path):
    from fracdual.problem_file import parse_problem

    out = tmp_path / "normalized.prob"
    code = main(["solve", "--problem", str(tiny_problem), "--dump-normalized", str(out)])
    assert code == 0
    original = parse_problem(tiny_problem)
    again = parse_problem(out)
    assert again.equation == original.equation
    assert again.h == original.h
    assert again.exact == original.exact


@pytest.mark.parametrize("exact", ["x^1.2", "2.5"], ids=["power", "constant"])
@pytest.mark.parametrize(
    "args, tags",
    [
        (["solve", "--method", "subst"], ["subst"]),
        (["solve", "--method", "byparts"], ["byparts"]),
        (["solve", "--method", "dual"], ["subst", "byparts"]),
        (["dual"], ["subst", "byparts"]),
    ],
    ids=["subst", "byparts", "solve_dual", "dual"],
)
def test_plot_data_files(tmp_path, args, tags, exact):
    path = tmp_path / "p.prob"
    path.write_text(TINY_PROBLEM.replace('exact = "x^1.2"', f'exact = "{exact}"'), encoding="utf-8")
    code, text = run(args + ["--problem", str(path), "--plot-data", str(tmp_path / "curves")], tmp_path / "out.csv")
    assert code == 0
    assert sorted(p.name for p in tmp_path.glob("*.dat")) == sorted(f"curves_{t}.dat" for t in tags + ["exact"])
    lines = text.strip().split("\n")
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:-1]]
    assert len(rows) == 21
    x = [row["x"] for row in rows]
    exact_vals = evaluate(parse_expression(exact), np.array([float(v) for v in x]), 0.0)
    expected = {tag: [row[f"u_{tag}"] for row in rows] for tag in tags}
    expected["exact"] = ["%.17g" % v for v in exact_vals]
    for tag, values in expected.items():
        data = (tmp_path / f"curves_{tag}.dat").read_text(encoding="utf-8")
        assert data.split("\n")[:-1] == [f"{a} {b}" for a, b in zip(x, values)]


def test_convergence_csv(tmp_path):
    code, text = run(
        [
            "convergence",
            "--f",
            "tan",
            "--alpha",
            "0.4",
            "--x",
            "0.3",
            "--h-list",
            "4e-4,2e-4,1e-4",
            "--method",
            "subst",
        ],
        tmp_path / "conv.csv",
    )
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "h,error,observed_order"
    assert lines[1].endswith(",")  # no order for the first step
    last_order = float(lines[3].split(",")[2])
    assert 1.5 <= last_order <= 2.5


def test_convergence_of_a_problem_file(tmp_path):
    # solve mode: the sup error against the file's exact -x^2 at each step,
    # whose order is 1 + n - alpha = 1.1 for the highest order 0.9
    path = resources.files("fracdual.fixtures").joinpath("quasilinear_tan_exact.prob")
    code, text = run(["convergence", "--problem", str(path), "--h-list", "4e-3,2e-3,1e-3"], tmp_path / "conv.csv")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "h,error,observed_order"
    rows = [line.split(",") for line in lines[1:]]
    assert [float(row[0]) for row in rows] == [4e-3, 2e-3, 1e-3]
    assert rows[0][2] == ""  # no order for the first step
    errors = [float(row[1]) for row in rows]
    assert errors[0] > errors[1] > errors[2] > 0.0
    assert all(1.05 <= float(row[2]) <= 1.2 for row in rows[1:])


def test_convergence_of_a_problem_file_needs_exact(capsys):
    path = resources.files("fracdual.fixtures").joinpath("quasilinear_tan.prob")
    code = main(["convergence", "--problem", str(path), "--h-list", "4e-3,2e-3,1e-3"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: problem-file: convergence study needs an 'exact' entry in the problem file\n"
    )


def test_bad_problem_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.prob"
    bad.write_text("nonsense = 3\n", encoding="utf-8")
    code = main(["solve", "--problem", str(bad), "--method", "dual"])
    assert code == 2
    assert "error: problem-file:" in capsys.readouterr().err


def test_deep_nesting_exits_2(tmp_path, capsys):
    # 200 nested parentheses would overflow the parser's stack; the cap stops the parse at level 101
    fixture = resources.files("fracdual.fixtures").joinpath("linear_x12.prob").read_text("utf-8")
    text = re.sub(r'^forcing = "(.*)"$', lambda m: f'forcing = "{"(" * 200}{m[1]}{")" * 200}"', fixture, flags=re.M)
    path = tmp_path / "deep.prob"
    path.write_text(text, encoding="utf-8")
    code = main(["solve", "--problem", str(path), "--method", "dual", "--out", str(tmp_path / "s.csv")])
    assert code == 2
    message = "line 5: bad expression for forcing: nesting deeper than 100 levels (offset 100)"
    assert capsys.readouterr().err == f"error: problem-file: {path}: {message}\n"
    assert not (tmp_path / "s.csv").exists()


def test_overflowing_literal_exits_2(tmp_path, capsys):
    # 1e999 would parse to inf and be written back as "inf", a name the grammar rejects
    path = tmp_path / "overflow.prob"
    forcing = 'forcing = "1e999*x - 1e999*x + sin(x)"'
    path.write_text(re.sub(r"^forcing = .*$", forcing, TINY_PROBLEM, flags=re.M), encoding="utf-8")
    out = tmp_path / "normalized.prob"
    code = main(["solve", "--problem", str(path), "--dump-normalized", str(out)])
    assert code == 2
    message = "line 4: bad expression for forcing: number '1e999' is not finite (offset 0)"
    assert capsys.readouterr().err == f"error: problem-file: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_bad_threshold_exits_2(tmp_path, capsys, value):
    path = tmp_path / "threshold.prob"
    path.write_text(TINY_PROBLEM + f"threshold = {value}\n", encoding="utf-8")
    code = main(["dual", "--problem", str(path), "--out", str(tmp_path / "d.csv")])
    assert code == 2
    assert f"threshold must be positive and finite, got {float(value)}" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


def test_overflow_in_both_sides_warns_nothing(tmp_path, capsys):
    # f - g is inf - inf at the overflowing nodes, and x*1e300*1e300
    # overflows inside the expression: a MethodFailed verdict, and nothing
    # from numpy on stderr
    fixture = resources.files("fracdual.fixtures").joinpath("linear_x12.prob").read_text("utf-8")
    for sides in ({"forcing": "exp(1000*x)", "rhs": "exp(1000*x)"}, {"forcing": "x*1e300*1e300"}):
        text = fixture
        for key, value in sides.items():
            text = re.sub(rf"^{key} = .*$", f'{key} = "{value}"', text, flags=re.MULTILINE)
        path = tmp_path / "overflow.prob"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dual", "--problem", str(path)])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("verdict=MethodFailed(substitution,byparts) deviation=nan ")
        assert err == ""


@pytest.mark.parametrize(
    "args,message",
    [
        ("derivative --f tan --alpha 0.4 --h 0 --points 0.1", "step must be positive and finite, got 0.0"),
        ("derivative --f tan --alpha 0.4 --h 0.01 --points 0.1,inf", "point must be finite, got inf"),
        ("derivative --f tan --alpha 0.4 --h 0.01 --points ,", "point list ',' names no points"),
        ("convergence --f tan --alpha 0.4 --x 0.1 --h-list 0,0,0", "step must be positive and finite, got 0.0"),
        # rejected before any sample is allocated
        (
            "convergence --f tan --alpha 0.4 --x 0.1 --h-list 1e-300,5e-301,2.5e-301",
            "point 0.1 at step 1e-300 needs m = x/h = 1e+299 samples, over 10000000",
        ),
        (
            "derivative --f tan --alpha 0.4 --h 1e-320 --points 1",
            "point 1.0 at step 1e-320 needs m = x/h = inf samples, over 10000000",
        ),
        ("derivative --f tan --alpha 0.4 --h 0.01 --points 0", "point 0.0 is below the step 0.01: the rules need x >= h"),
        # 0.4 steps off the grid; the rules would run at 0.3 and the oracle at 0.3000004
        ("derivative --f tan --alpha 0.4 --h 1e-6 --points 0.3000004", "point 0.3000004 is not on the step-1e-06 grid"),
        # rejected before the point list is built
        (
            "derivative --f tan --alpha 0.4 --h 0.01 --points 0:1:1e-320",
            "point range '0:1:1e-320' names inf points, over 100000",
        ),
        (
            "derivative --f tan --alpha 0.4 --h 0.01 --points 0:1:1e-9",
            "point range '0:1:1e-9' names 1e+09 points, over 100000",
        ),
        ("derivative --f x^1e400 --alpha 0.4 --h 0.01 --points 0.1", "exponent of 'x^1e400' must be finite, got inf"),
        # Gamma(beta + 1) of the oracle overflows from beta ~ 170.62 on
        (
            "derivative --f x^400 --alpha 0.4 --h 0.01 --points 0.5",
            "exponent of 'x^400' overflows the oracle's gamma(beta + 1), got 400.0",
        ),
        (
            "derivative --f x^1e300 --alpha 0.4 --h 0.01 --points 0.5",
            "exponent of 'x^1e300' overflows the oracle's gamma(beta + 1), got 1e+300",
        ),
        # the samples overflow to inf, and the series oracle's terms overflow
        (
            "derivative --f exp --alpha 0.4 --h 100000 --points 1e10",
            "series term overflow at k=32, x=10000000000.0",
        ),
    ],
    ids=[
        "zero_step",
        "infinite_point",
        "empty_points",
        "zero_steps",
        "tiny_steps",
        "subnormal_step",
        "point_zero",
        "off_grid_point",
        "subnormal_range_step",
        "huge_range",
        "infinite_exponent",
        "overflowing_exponent",
        "huge_exponent",
        "series_overflow",
    ],
)
def test_bad_numeric_input_exits_2(tmp_path, capsys, args, message):
    code = main(args.split() + ["--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o.csv").exists()


def test_point_range_stops_at_stop():
    assert _parse_points("0.1:1:0.35") == pytest.approx([0.1, 0.45, 0.8])
    assert _parse_points("0.1:0.6:0.1") == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert _parse_points("0.5:0.5:0.1") == [0.5]


def test_missing_file_exits_2(tmp_path, capsys):
    code = main(["solve", "--problem", str(tmp_path / "nope.prob"), "--method", "dual"])
    assert code == 2


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])  # missing --problem
    assert exc.value.code == 2


def test_reproduce_table1_passes(tmp_path):
    code, text = run(["reproduce", "table1"], tmp_path / "rep.txt")
    assert code == 0
    lines = text.strip().split("\n")
    assert len(lines) == 13  # 12 checks + summary
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1] == "summary: 12/12 checks passed"
