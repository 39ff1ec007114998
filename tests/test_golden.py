"""Byte-for-byte CLI output against a golden set.

Each file under ``tests/golden/`` holds the exact stdout of one command,
captured before the kernels were reduced to a single numpy path (the three
Bernstein and runge-2d drift ``residual`` runs and the ``verify`` columns
before Bernstein became the order-1 node set; the ``dry_run_*`` configs
while the CLI still built them from a dataclass).  The JSON configs and the
remainder-sum summary were captured again when the ``lemma`` subcommand
became ``residual --kind lemma-sum``; its rows kept every byte.  A change
that moves any printed digit fails here.
"""

import csv
import io
from pathlib import Path

import pytest

from akrvoro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name -> (argv, exit code)
CASES = {
    "nodes_n16.csv": (["nodes", "--n", "16"], 0),
    # j = 1 is the Bernstein operator
    "eval_bernstein_1d.csv": (
        ["eval", "--j", "1", "--fn", "e3", "--n", "64", "--point", "0.3"],
        0,
    ),
    "eval_akr_1d.csv": (
        ["eval", "--fn", "e3", "--n", "64", "--point", "0.3"],
        0,
    ),
    "eval_bernstein_2d.csv": (
        ["eval", "--j", "1", "--fn", "runge-2d", "--n", "64", "--point", "0.3", "0.7"],
        0,
    ),
    "eval_akr_2d.csv": (
        ["eval", "--fn", "sinpix-cospiy", "--n", "64", "--point", "0.3", "0.7"],
        0,
    ),
    "residual_akr_1d_e2.csv": (
        ["residual", "--kind", "akr-1d", "--fn", "e2", "--point", "0.3",
         "--n0", "16", "--doublings", "4"],
        0,
    ),
    "residual_akr_2d_runge.csv": (
        ["residual", "--kind", "akr-2d", "--fn", "runge-2d", "--point", "0.5", "0.5",
         "--n0", "16", "--doublings", "4"],
        1,
    ),
    "residual_drift_exp_sum.csv": (
        ["residual", "--kind", "akr-minus-bernstein-2d", "--fn", "exp-sum",
         "--point", "0.7", "0.3", "--n0", "16", "--doublings", "4"],
        0,
    ),
    "residual_lemma_sum_x0.3.csv": (
        ["residual", "--kind", "lemma-sum", "--point", "0.3", "--n0", "16",
         "--doublings", "4"],
        0,
    ),
    "decompose_exp_sum.csv": (
        ["decompose", "--fn", "exp-sum", "--point", "0.5", "0.5",
         "--n0", "16", "--doublings", "3"],
        0,
    ),
    "residual_bernstein_1d_e3.csv": (
        ["residual", "--kind", "akr-1d", "--fn", "e3", "--point", "0.3",
         "--n0", "16", "--doublings", "4", "--j", "1"],
        0,
    ),
    "residual_bernstein_2d_runge.csv": (
        ["residual", "--kind", "akr-2d", "--fn", "runge-2d", "--point", "0.3",
         "0.7", "--n0", "16", "--doublings", "4", "--j", "1"],
        0,
    ),
    "residual_drift_runge.csv": (
        ["residual", "--kind", "akr-minus-bernstein-2d", "--fn", "runge-2d",
         "--point", "0.7", "0.3", "--n0", "16", "--doublings", "4"],
        0,
    ),
    "residual_akr_2d_exp_sum.json": (
        ["residual", "--kind", "akr-2d", "--fn", "exp-sum", "--point", "0.5", "0.5",
         "--n0", "16", "--doublings", "4", "--format", "json"],
        0,
    ),
    # order 3: e3 is the fixed point, so its target is exactly 0
    "residual_akr_1d_e3_j3.csv": (
        ["residual", "--kind", "akr-1d", "--fn", "e3", "--point", "0.7",
         "--n0", "64", "--doublings", "7", "--j", "3"],
        0,
    ),
    "residual_akr_2d_runge_j3.csv": (
        ["residual", "--kind", "akr-2d", "--fn", "runge-2d", "--point", "0.7", "0.3",
         "--n0", "16", "--doublings", "4", "--j", "3"],
        1,
    ),
    # the JSON config of every subcommand, as --dry-run echoes it: every key
    # in a fixed order, null where the subcommand has no such flag
    **{
        f"dry_run_{argv[0]}.json": ([*argv, "--dry-run", "--format", "json"], 0)
        for argv in (
            ["nodes", "--n", "4", "--j", "2"],
            ["eval", "--fn", "e2", "--n", "16", "--point", "0.4"],
            ["residual", "--kind", "akr-2d", "--fn", "exp-sum", "--point", "0.5",
             "0.5", "--n0", "64", "--doublings", "7"],
            ["decompose", "--fn", "exp-sum", "--point", "0.5", "0.5", "--n0", "64",
             "--doublings", "4"],
            ["verify", "--criteria", "1,8"],
        )
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == expected_code
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


# the verify columns that do not depend on timing
VERIFY_GOLDEN = "verify_columns.csv"
VERIFY_COLUMNS = ("criterion", "status", "detail")


def verify_columns(out):
    """The VERIFY_COLUMNS of ``verify``'s CSV rows, as CSV text."""
    rows = csv.DictReader(line for line in out.splitlines() if not line.startswith("#"))
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(VERIFY_COLUMNS)
    for row in rows:
        writer.writerow([row[c] for c in VERIFY_COLUMNS])
    return text.getvalue()


def test_verify_columns_match_golden_bytes(capsys):
    code = main(["verify"])
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == 0
    expected = (GOLDEN / VERIFY_GOLDEN).read_bytes()
    assert verify_columns(captured.out).encode("utf-8") == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted([*CASES, VERIFY_GOLDEN])
