import argparse
import csv
import json
import math
from pathlib import Path

import pytest

from akrvoro import SERIES_KINDS, apply, build_node_table, cli, lookup
from akrvoro.cli import build_parser, main


# the remainder sum's series, which does not depend on f
_LEMMA_SUM = ["residual", "--kind", "lemma-sum"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = []
    summary = {}
    header = None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            summary[key.strip()] = value
            continue
        if header is None:
            header = next(csv.reader([line]))
            continue
        rows.append(dict(zip(header, next(csv.reader([line])))))
    return rows, summary


def test_nodes_emits_expected_table(capsys, monkeypatch):
    tables = []

    def spy(*args):
        tables.append(build_node_table(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "build_node_table", spy)
    code, out, _ = run_cli(capsys, ["nodes", "--n", "4", "--j", "2"])
    assert code == 0
    # the command prints the full table, so row k is node k
    assert [t.shape for t in tables] == [(5,)]
    rows, _ = parse_csv(out)
    assert [int(r["k"]) for r in rows] == [0, 1, 2, 3, 4]
    values = [float(r["t"]) for r in rows]
    assert values[0] == 0.0 and values[1] == 0.0 and values[4] == 1.0
    assert values[2] == pytest.approx(0.4082483, abs=1e-7)
    assert values[3] == pytest.approx(math.sqrt(0.5), rel=1e-15)
    for k in range(5):
        assert values[k] == build_node_table(4, 2)[k]


def test_dry_run_round_trips_the_config(capsys):
    argv = [
        "residual",
        "--kind",
        "akr-2d",
        "--fn",
        "exp-sum",
        "--point",
        "0.5",
        "0.5",
        "--n0",
        "64",
        "--doublings",
        "7",
        "--format",
        "json",
        "--dry-run",
    ]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    cfg = json.loads(out)
    assert cfg["command"] == "residual"
    assert cfg["kind"] == "akr-2d"
    assert cfg["fn_name"] == "exp-sum"
    assert cfg["point"] == [0.5, 0.5]
    assert cfg["n0"] == 64
    assert cfg["doublings"] == 7
    assert cfg["j"] == 2
    assert cfg["format"] == "json"
    assert cfg["tolerance"] == 0.01
    assert cfg["dry_run"] is True


def test_integer_flags_follow_the_library_integral_rule(capsys):
    # 8.0 is the degree 8, in the table and in the printed config
    outputs = [
        run_cli(capsys, ["nodes", "--n", n, *extra])
        for extra in ([], ["--dry-run", "--format", "json"])
        for n in ("8", "8.0", "8e0")
    ]
    assert all(code == 0 for code, _, _ in outputs)
    assert len({out for _, out, _ in outputs[:3]}) == 1
    assert len({out for _, out, _ in outputs[3:]}) == 1
    assert json.loads(outputs[3][1])["n"] == 8
    # the text is read as an int first, so a large integer keeps every digit
    big = "123456789012345678901234567890"
    code, out, _ = run_cli(
        capsys, [*_LEMMA_SUM, "--point", "0.5", "--n0", big, "--dry-run"]
    )
    assert code == 0 and json.loads(out)["n0"] == int(big)


def test_verify_takes_an_integral_float_criterion(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--criteria", "1.0,8"])
    assert code == 0
    rows, _ = parse_csv(out)
    assert [r["criterion"] for r in rows] == ["1", "8"]


def test_lemma_at_one_passes_with_zero_series(capsys):
    code, out, _ = run_cli(
        capsys, [*_LEMMA_SUM, "--point", "1.0", "--n0", "64", "--doublings", "4"]
    )
    assert code == 0
    rows, summary = parse_csv(out)
    assert all(float(r["value"]) == 0.0 for r in rows)
    assert summary["verdict"] == "PASS"


def test_lemma_interior_point_passes(capsys):
    code, out, _ = run_cli(
        capsys, [*_LEMMA_SUM, "--point", "0.5", "--n0", "64", "--doublings", "5"]
    )
    assert code == 0
    rows, summary = parse_csv(out)
    assert len(rows) == 6
    assert float(summary["limit_estimate"]) == pytest.approx(0.0, abs=1e-2)
    assert all(float(r["value"]) >= -1e-13 for r in rows)


def test_csv_and_json_payloads_match(capsys):
    base = [*_LEMMA_SUM, "--point", "0.25", "--n0", "32", "--doublings", "4"]
    code_csv, out_csv, _ = run_cli(capsys, base)
    code_json, out_json, _ = run_cli(capsys, base + ["--format", "json"])
    assert code_csv == code_json == 0
    rows_csv, summary_csv = parse_csv(out_csv)
    payload = json.loads(out_json)
    assert payload["command"] == "residual"
    assert len(payload["rows"]) == len(rows_csv)
    for row_c, row_j in zip(rows_csv, payload["rows"]):
        assert int(row_c["n"]) == row_j["n"]
        assert float(row_c["value"]) == row_j["value"]
        if row_c["diff"] == "":
            assert row_j["diff"] is None
        else:
            assert float(row_c["diff"]) == row_j["diff"]
        if row_c["rate_estimate"] == "":
            assert row_j["rate_estimate"] is None
        else:
            assert float(row_c["rate_estimate"]) == row_j["rate_estimate"]
    for key in ("limit_estimate", "residual_tail", "target"):
        assert float(summary_csv[key]) == payload["summary"][key]
    assert summary_csv["verdict"] == payload["summary"]["verdict"]


def test_eval_values(capsys):
    code, out, _ = run_cli(
        capsys,
        ["eval", "--fn", "e2", "--n", "16", "--point", "0.4"],
    )
    assert code == 0
    rows, summary = parse_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(0.16, abs=1e-12)

    code, out, _ = run_cli(
        capsys,
        [
            "eval",
            "--j",
            "1",
            "--fn",
            "monomial(1,1)",
            "--n",
            "8",
            "--point",
            "0.4",
            "0.6",
        ],
    )
    assert code == 0
    rows, _ = parse_csv(out)
    assert float(rows[0]["value"]) == pytest.approx(0.24, abs=1e-13)


def test_eval_rejects_wrong_arity(capsys):
    code, _, err = run_cli(
        capsys,
        ["eval", "--fn", "exp-sum", "--n", "16", "--point", "0.4"],
    )
    assert code == 2
    assert "arity" in err


@pytest.mark.parametrize("j", ["1", "2", "5"])
def test_eval_takes_its_order_from_j_alone(j, capsys):
    # j = 1 is the Bernstein operator; --j 0 is refused (the bad-input matrix)
    code, out, _ = run_cli(
        capsys, ["eval", "--fn", "e3", "--n", "64", "--point", "0.3", "--j", j]
    )
    assert code == 0
    rows, summary = parse_csv(out)
    value = apply(lookup("e3").function, 64, int(j), 0.3)
    assert float(rows[0]["value"]) == float(summary["value"]) == value


def test_residual_verdict_passes_for_known_limit(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "residual",
            "--kind",
            "akr-1d",
            "--fn",
            "e1",
            "--point",
            "0.5",
            "--n0",
            "64",
            "--doublings",
            "5",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["verdict"] == "PASS"
    assert payload["summary"]["target"] == pytest.approx(-0.25)
    assert payload["summary"]["limit_estimate"] == pytest.approx(-0.25, rel=1e-3)
    assert payload["rows"][0]["n"] == 64
    assert len(payload["rows"]) == 6


def test_residual_fail_verdict_gives_exit_one(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "residual",
            "--kind",
            "akr-1d",
            "--fn",
            "e1",
            "--point",
            "0.5",
            "--n0",
            "8",
            "--doublings",
            "3",
            "--tolerance",
            "1e-12",
        ],
    )
    assert code == 1
    _, summary = parse_csv(out)
    assert summary["verdict"] == "FAIL"


def test_residual_of_the_fixed_point_passes_at_a_subnormal_point(capsys):
    code, out, _ = run_cli(
        capsys,
        ["residual", "--kind", "akr-1d", "--fn", "e2", "--point", "5e-324",
         "--n0", "64", "--doublings", "3"],
    )
    rows, summary = parse_csv(out)
    assert [row["value"] for row in rows] == ["0"] * 4
    assert (summary["target"], summary["verdict"], code) == ("0", "PASS", 0)


@pytest.mark.parametrize(
    "kind, point",
    [
        ("akr-1d", ["0.5"]),
        ("akr-2d", ["0.5", "0.5"]),
        ("akr-minus-bernstein-2d", ["0.7", "0.3"]),
    ],
    ids=["akr-1d", "akr-2d", "drift"],
)
@pytest.mark.parametrize("j", ["3", "4"])
def test_residual_with_general_order_reports_target_and_verdict(kind, point, j, capsys):
    fn = "e1" if kind == "akr-1d" else "exp-sum"
    code, out, err = run_cli(
        capsys,
        ["residual", "--kind", kind, "--fn", fn, "--point", *point,
         "--n0", "64", "--doublings", "5", "--j", j, "--format", "json"],
    )
    assert code == 0, err
    summary = json.loads(out)["summary"]
    assert summary["target"] is not None
    assert summary["verdict"] == "PASS"
    if kind == "akr-1d":
        # -(j-1)(1-x)/2 at x = 1/2
        assert summary["target"] == -(int(j) - 1) / 4.0


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_order_one_residual_accepts_n0_two(capsys):
    code, out, err = run_cli(
        capsys,
        ["residual", "--kind", "akr-1d", "--fn", "e3", "--point", "0.3",
         "--n0", "2", "--doublings", "4", "--j", "1", "--format", "json"],
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["rows"][0]["n"] == 2
    assert payload["summary"]["target"] == pytest.approx(0.189, rel=1e-12)
    assert payload["summary"]["verdict"] == "PASS"


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("residual_bernstein_1d_e3.csv",
         ["--kind", "akr-1d", "--fn", "e3", "--point", "0.3"]),
        ("residual_bernstein_2d_runge.csv",
         ["--kind", "akr-2d", "--fn", "runge-2d", "--point", "0.3", "0.7"]),
    ],
)
def test_akr_residual_at_order_one_is_the_bernstein_residual(golden, argv, capsys):
    # the order-1 nodes are k/n bit for bit, so the rows, limit and verdict
    # are the Bernstein kind's byte for byte
    code, out, _ = run_cli(
        capsys, ["residual", *argv, "--n0", "16", "--doublings", "4", "--j", "1"]
    )
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_akr_eval_and_nodes_at_order_one_are_bernstein(capsys):
    argv = ["eval", "--fn", "e3", "--n", "64", "--point", "0.3"]
    code, out, _ = run_cli(capsys, [*argv, "--j", "1"])
    assert code == 0
    assert out == (GOLDEN / "eval_bernstein_1d.csv").read_text()
    code, out, _ = run_cli(capsys, ["nodes", "--n", "8", "--j", "1"])
    assert code == 0
    rows, _ = parse_csv(out)
    assert [float(r["t"]) for r in rows] == [k / 8 for k in range(9)]


def test_drift_series_at_order_one_is_zero_and_passes(capsys):
    code, out, _ = run_cli(
        capsys,
        ["residual", "--kind", "akr-minus-bernstein-2d", "--fn", "exp-sum",
         "--point", "0.3", "0.7", "--n0", "16", "--doublings", "4", "--j", "1"],
    )
    assert code == 0
    rows, summary = parse_csv(out)
    assert [float(r["value"]) for r in rows] == [0.0] * 5
    assert (float(summary["target"]), summary["verdict"]) == (0.0, "PASS")


def test_unknown_function_is_a_usage_error_with_json_error_object(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "eval",
            "--fn",
            "nope",
            "--n",
            "4",
            "--point",
            "0.5",
            "--format",
            "json",
        ],
    )
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UnknownFunctionError"
    assert "nope" in error["message"]


def test_positivity_requirement_is_enforced(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "residual",
            "--kind",
            "akr-2d",
            "--fn",
            "exp-sum",
            "--point",
            "0.0",
            "0.5",
            "--n0",
            "4",
            "--doublings",
            "3",
        ],
    )
    assert code == 2
    assert "positive" in err


def test_kind_choices_come_from_series_kinds():
    # eval takes its order from --j and its arity from --point alone
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    kinds = {
        command: [a.choices for a in parser._actions if a.dest == "kind"]
        for command, parser in sub.choices.items()
    }
    assert kinds == {"nodes": [], "eval": [], "residual": [SERIES_KINDS],
                     "decompose": [], "verify": []}


def assert_structured_error(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["type"] == "DomainError"


_HUGE = "1000000000000000"


@pytest.mark.parametrize(
    "argv",
    [
        ["nodes", "--n", _HUGE],
        ["eval", "--fn", "e1", "--n", _HUGE, "--point", "0.5"],
        ["eval", "--j", "1", "--fn", "runge-2d", "--n", _HUGE, "--point", "0.5", "0.5"],
        ["residual", "--kind", "akr-2d", "--fn", "runge-2d", "--point", "0.5", "0.5",
         "--doublings", "40"],
        [*_LEMMA_SUM, "--point", "0.5", "--doublings", "40"],
        # the first rows are cheap; the last degree, 64 * 2^20, is refused first
        ["decompose", "--fn", "exp-sum", "--point", "0.5", "0.5", "--doublings", "20"],
    ],
)
def test_degree_past_the_cap_is_a_structured_error(argv, capsys):
    assert_structured_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--fn", "exp-sum", "--point", "0.5", "0.5", "--doublings", "-1"],
    ]
    + [
        ["residual", "--kind", "akr-1d", "--fn", "e1", "--point", "0.5",
         "--n0", "16", "--doublings", "4", "--tolerance", tol]
        for tol in ("-1", "nan", "inf")
    ]
    + [[*_LEMMA_SUM, "--point", "0.5", "--tolerance", tol] for tol in ("-1", "nan", "inf")],
)
def test_bad_doublings_and_tolerance_are_structured_errors(argv, capsys):
    assert_structured_error(capsys, argv)


def test_decompose_rows_and_bound_column(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "decompose",
            "--fn",
            "exp-sum",
            "--point",
            "0.5",
            "0.5",
            "--n0",
            "16",
            "--doublings",
            "2",
        ],
    )
    assert code == 0
    rows, _ = parse_csv(out)
    assert [int(r["n"]) for r in rows] == [16, 32, 64]
    for r in rows:
        total = float(r["total"])
        parts = float(r["e_term"]) + float(r["f_term"]) + float(r["g_residual"])
        assert parts == pytest.approx(total, abs=1e-12)
        assert abs(float(r["g_residual"])) <= float(r["g_bound"])


def test_decompose_bounds_the_rounding_residue_of_a_zero_taylor_constant(capsys):
    # f = x is linear, so its Taylor constant is 0 and G is rounding alone:
    # the bound is the rounding allowance, positive and far below 1e-9
    code, out, _ = run_cli(
        capsys,
        ["decompose", "--fn", "monomial(1,0)", "--point", "0.5", "0.5",
         "--n0", "64", "--doublings", "3"],
    )
    assert code == 0
    rows, _ = parse_csv(out)
    assert len(rows) == 4
    assert any(float(r["g_residual"]) != 0.0 for r in rows)
    for r in rows:
        assert abs(float(r["g_residual"])) <= float(r["g_bound"]) < 1e-9


def test_output_file_writing(tmp_path, capsys):
    out_path = tmp_path / "nodes.csv"
    code, out, _ = run_cli(
        capsys, ["nodes", "--n", "4", "--j", "3", "--out", str(out_path)]
    )
    assert code == 0
    assert out == ""
    rows, _ = parse_csv(out_path.read_text())
    assert [float(r["t"]) for r in rows][:3] == [0.0, 0.0, 0.0]


def test_verify_subset_runs_fast_criteria(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--criteria", "1,8"])
    assert code == 0
    rows, summary = parse_csv(out)
    assert [int(r["criterion"]) for r in rows] == [1, 8]
    assert all(r["status"] == "PASS" for r in rows)
    assert summary["verdict"] == "PASS"


def test_verify_json_summary_counts_are_python_ints(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--criteria", "1,8", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["passed"] == 2
    assert type(payload["summary"]["passed"]) is int
    assert payload["summary"]["verdict"] == "PASS"
    assert [row["status"] for row in payload["rows"]] == ["PASS", "PASS"]


# a repeated number is refused too: "8,8" ran criterion 8 twice
@pytest.mark.parametrize("criteria", ["9", "a", "1,9", "8,8"])
def test_verify_rejects_unknown_criteria_before_running(criteria, capsys, monkeypatch):
    def no_run(number):
        raise AssertionError(f"criterion {number} ran")

    monkeypatch.setattr("akrvoro.acceptance.run_criterion", no_run)
    code, out, err = run_cli(capsys, ["verify", "--criteria", criteria])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and criteria.split(",")[-1] in err
    code, out, err = run_cli(
        capsys, ["verify", "--criteria", criteria, "--format", "json"]
    )
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["type"] == "DomainError"
    assert criteria.split(",")[-1] in error["message"]


# --------------------------------------------------------------------------
# Bad input: every subcommand against every rule it takes
# --------------------------------------------------------------------------

_EVAL = ["eval", "--fn", "e3", "--n", "8"]
_EVAL_2D = ["eval", "--fn", "runge-2d", "--n", "8"]
_RESIDUAL = ["residual", "--kind", "akr-1d", "--fn", "e1", "--n0", "8"]
_RESIDUAL_2D = ["residual", "--kind", "akr-2d", "--fn", "exp-sum", "--n0", "8"]
_DRIFT = ["residual", "--kind", "akr-minus-bernstein-2d", "--fn", "exp-sum"]
_LEMMA = [*_LEMMA_SUM, "--n0", "8"]
_DECOMPOSE = ["decompose", "--fn", "exp-sum", "--n0", "8", "--doublings", "1"]

# (argv, a fragment of the one error message); MISSING and DIRECTORY stand
# for an --out under a directory that does not exist and for a directory
_BAD_INPUT = {
    "nodes: non-integral degree": (
        ["nodes", "--n", "8.5"], "--n must be integral, got 8.5"),
    "nodes: non-integral order": (["nodes", "--n", "8", "--j", "2.5"], "got 2.5"),
    "nodes: order below 1": (
        ["nodes", "--n", "8", "--j", "0"], "order j must be >= 1, got 0"),
    "nodes: degree below the order": (["nodes", "--n", "1"], "degree must be >= 2"),
    "nodes: order past the cap": (
        ["nodes", "--n", "1048576", "--j", "1048576"],
        "order j must be <= 1024, got 1048576"),
    "eval: non-numeric point": ([*_EVAL, "--point", "a"], "invalid float value: 'a'"),
    "eval: point above 1": ([*_EVAL, "--point", "1.5"], "point must lie in [0, 1]"),
    "eval: point below 0": ([*_EVAL, "--point", "-0.1"], "point must lie in [0, 1]"),
    "eval: nan point": ([*_EVAL, "--point", "nan"], "point must lie in [0, 1]"),
    "eval: point of the square": (
        [*_EVAL_2D, "--point", "1.5", "0.5"], "point must lie in [0, 1]^2"),
    "eval: point of the wrong arity": (
        [*_EVAL_2D, "--point", "0.3"], "f has arity 2, but the point has 1 coordinate(s)"),
    **{
        f"eval: monomial exponent {axis} of {digits} digits": (
            ["eval", "--fn", fn, "--n", "8", "--point", "0.5", "0.5"],
            f"monomial exponent {axis} must be")
        for axis, digits, fn in (
            ("p", 400, f"monomial({'9' * 400},1)"),
            ("q", 5000, f"monomial(1,{'9' * 5000})"),
        )
    },
    "eval: non-integral degree": (
        ["eval", "--fn", "e3", "--n", "8.5", "--point", "0.3"],
        "--n must be integral, got 8.5"),
    "eval: non-integral order": ([*_EVAL, "--j", "2.5", "--point", "0.3"], "got 2.5"),
    "eval: order below 1": (
        [*_EVAL, "--j", "0", "--point", "0.3"], "order j must be >= 1, got 0"),
    "eval: order below 1 on the square": (
        [*_EVAL_2D, "--j", "0", "--point", "0.3", "0.7"], "order j must be >= 1, got 0"),
    "residual: non-numeric point": ([*_RESIDUAL, "--point", "a"], "'a'"),
    "residual: point above 1": (
        [*_RESIDUAL, "--point", "1.5"], "point must lie in [0, 1]"),
    "residual: zero coordinate in 1-d": (
        [*_RESIDUAL, "--point", "0"], "order j >= 2 needs positive coordinates"),
    "residual: zero coordinate in 2-d": (
        [*_RESIDUAL_2D, "--point", "0.5", "0"], "needs positive coordinates"),
    "residual: zero coordinate of the drift": (
        [*_DRIFT, "--point", "0", "0.5"], "needs positive coordinates"),
    "residual: zero coordinate at order 3": (
        [*_RESIDUAL, "--j", "3", "--point", "0"], "needs positive coordinates"),
    "residual: non-integral n0": (
        [*_RESIDUAL, "--point", "0.5", "--n0", "8.5"],
        "--n0 must be integral, got 8.5"),
    "residual: non-integral doublings": (
        [*_RESIDUAL, "--point", "0.5", "--doublings", "3.5"], "got 3.5"),
    "residual: non-integral order": (
        [*_RESIDUAL, "--point", "0.5", "--j", "2.5"], "--j must be integral, got 2.5"),
    "residual: order below 1": (
        [*_RESIDUAL, "--point", "0.3", "--j", "0"], "order j must be >= 1, got 0"),
    "residual: short schedule": (
        [*_RESIDUAL, "--point", "0.5", "--doublings", "2"],
        "extrapolation needs at least 4 series entries (doublings >= 3), got 3"),
    "residual: unknown kind": (
        ["residual", "--kind", "bogus-kind", "--fn", "e1", "--point", "0.5"],
        "invalid choice: 'bogus-kind'"),
    "residual: no --fn for a series of f": (
        ["residual", "--kind", "akr-1d", "--point", "0.3"],
        "f must be a Function, got NoneType"),
    "lemma: non-numeric point": ([*_LEMMA, "--point", "a"], "invalid float value: 'a'"),
    "lemma: point above 1": ([*_LEMMA, "--point", "1.5"], "point must lie in [0, 1]"),
    "lemma: zero coordinate": ([*_LEMMA, "--point", "0"], "needs positive coordinates"),
    "lemma: non-integral n0": ([*_LEMMA, "--point", "0.5", "--n0", "8.5"], "got 8.5"),
    "lemma: short schedule": (
        [*_LEMMA, "--point", "0.5", "--doublings", "0"], "at least 4 series entries"),
    "decompose: non-numeric point": ([*_DECOMPOSE, "--point", "a", "0.5"], "'a'"),
    "decompose: point above 1": (
        [*_DECOMPOSE, "--point", "0.5", "1.5"], "point must lie in [0, 1]^2"),
    "decompose: one coordinate": (
        [*_DECOMPOSE, "--point", "0.5"], "point must have 2 numeric coordinate(s)"),
    "decompose: non-integral n0": (
        [*_DECOMPOSE, "--point", "0.5", "0.5", "--n0", "8.5"], "got 8.5"),
    "decompose: negative n0": (
        [*_DECOMPOSE, "--point", "0.5", "0.5", "--n0", "-1"],
        "n0 must be >= 2, got -1"),
    "decompose: negative doublings": (
        [*_DECOMPOSE, "--point", "0.5", "0.5", "--doublings", "-1"],
        "doublings must be >= 0, got -1"),
    **{
        f"{command}: {doublings} doublings": (
            [*argv, "--doublings", doublings],
            f"schedule's last degree must be <= 1048576, got n0 * 2^doublings with "
            f"n0 = 8, doublings = {shown}")
        for command, argv in (
            ("residual", [*_RESIDUAL, "--point", "0.5"]),
            ("lemma", [*_LEMMA, "--point", "0.5"]),
            ("decompose", [*_DECOMPOSE, "--point", "0.5", "0.5"]),
        )
        for doublings, shown in (("20000", "20000"), ("1e300", "10^300.0"))
    },
    **{
        f"{argv[0]}: --fn of the other arity, {argv[2]}": (argv, "arity")
        for argv in (
            ["eval", "--fn", "exp-sum", "--n", "8", "--point", "0.4"],
            ["eval", "--fn", "e3", "--j", "1", "--n", "8", "--point", "0.4", "0.6"],
            ["residual", "--kind", "akr-1d", "--fn", "runge-2d", "--point", "0.4"],
            ["residual", "--kind", "akr-2d", "--fn", "e3", "--point", "0.4", "0.6"],
            ["residual", "--kind", "akr-minus-bernstein-2d", "--fn", "e3",
             "--point", "0.4", "0.6"],
            ["decompose", "--fn", "e3", "--point", "0.4", "0.6"],
        )
    },
    "nodes: degree of 301 digits": (
        ["nodes", "--n", "1e300"], "degree must be <= 1048576, got 10^300.0"),
    "residual: nan tolerance": (
        [*_RESIDUAL, "--point", "0.5", "--tolerance", "nan"],
        "tolerance must be finite and >= 0, got nan"),
    "verify: non-integral criterion": (
        ["verify", "--criteria", "1.5"], "--criteria must be integral, got 1.5"),
    "verify: unknown criterion": (
        ["verify", "--criteria", "9"], "no criterion numbered 9"),
    "verify: no criterion": (["verify", "--criteria", ","], "no criterion selected"),
    "verify: repeated criterion": (
        ["verify", "--criteria", "8,8"], "criterion 8 selected more than once"),
    "no subcommand": ([], "command"),
    **{
        f"{command}{dry}: --out {kind}": (
            [*argv, "--out", kind, *dry.split()], kind)
        for command, argv in (
            ("nodes", ["nodes", "--n", "4"]),
            ("eval", [*_EVAL, "--point", "0.3"]),
            ("residual", [*_RESIDUAL, "--point", "0.5", "--doublings", "3"]),
            ("lemma", [*_LEMMA, "--point", "0.5", "--doublings", "3"]),
            ("decompose", [*_DECOMPOSE, "--point", "0.5", "0.5"]),
            ("verify", ["verify", "--criteria", "8"]),
        )
        for dry in ("", " --dry-run")
        for kind in ("MISSING", "DIRECTORY")
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(_BAD_INPUT))
def test_bad_input_exits_2_with_one_structured_error(case, fmt, capsys, tmp_path):
    argv, fragment = _BAD_INPUT[case]
    paths = {"MISSING": str(tmp_path / "missing" / "out"), "DIRECTORY": str(tmp_path)}
    # csv is the default format, so it is not asked for
    argv = [paths.get(a, a) for a in argv] + (["--format", "json"] * (fmt == "json"))
    fragment = paths.get(fragment, fragment)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "Traceback" not in err and err.count("\n") == 1
    if fmt == "json":
        (error,) = json.loads(err).values()
        assert set(error) == {"type", "message"}
        message = error["message"]
    else:
        assert err.startswith("error: ")
        message = err[len("error: "):]
    assert fragment in message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        [*_RESIDUAL, "--point", "0.5", "--doublings", "2"],
        [*_RESIDUAL_2D, "--point", "0.5", "0.5", "--doublings", "0"],
        [*_LEMMA, "--point", "0.5", "--doublings", "2"],
    ],
)
def test_short_schedule_is_refused_before_the_series_runs(argv, capsys, monkeypatch):
    def no_series(*args, **kwargs):
        raise AssertionError("residual_series ran")

    monkeypatch.setattr("akrvoro.acceptance.residual_series", no_series)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "at least 4 series entries" in err


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
@pytest.mark.parametrize(
    "command, argv",
    [("verify", ["verify"]), ("residual", [*_RESIDUAL, "--point", "0.5"])],
)
def test_unwritable_out_is_refused_before_the_command_computes(
    command, argv, kind, fmt, capsys, monkeypatch, tmp_path
):
    def no_run(args):
        raise AssertionError(f"{command} computed")

    monkeypatch.setattr(cli, f"_cmd_{command}", no_run)
    path = tmp_path / "missing" / "out" if kind == "missing" else tmp_path
    code, out, err = run_cli(capsys, [*argv, "--out", str(path), "--format", fmt])
    assert (code, out) == (2, "")
    reason = ("[Errno 2] No such file or directory" if kind == "missing"
              else "[Errno 21] Is a directory")
    assert f"{reason}: {str(path)!r}" in err
    assert list(tmp_path.iterdir()) == []


def test_a_failing_command_leaves_an_existing_out_file_as_it_was(capsys, tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("kept\n")
    argv = [*_RESIDUAL, "--point", "0.5", "--tolerance", "nan", "--out", str(path)]
    code, out, _ = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert path.read_text() == "kept\n"
