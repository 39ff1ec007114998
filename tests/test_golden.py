"""Byte-for-byte CLI output against a golden set.

Each file under ``tests/golden/`` holds the exact stdout of one command,
captured before the kernels were reduced to a single numpy path.  A change
that moves any printed digit fails here.
"""

from pathlib import Path

import pytest

from akrvoro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name -> (argv, exit code)
CASES = {
    "nodes_n16.csv": (["nodes", "--n", "16"], 0),
    "eval_bernstein_1d.csv": (
        ["eval", "--kind", "bernstein-1d", "--fn", "e3", "--n", "64", "--point", "0.3"],
        0,
    ),
    "eval_akr_1d.csv": (
        ["eval", "--kind", "akr-1d", "--fn", "e3", "--n", "64", "--point", "0.3"],
        0,
    ),
    "eval_bernstein_2d.csv": (
        ["eval", "--kind", "bernstein-2d", "--fn", "runge-2d", "--n", "64",
         "--point", "0.3", "0.7"],
        0,
    ),
    "eval_akr_2d.csv": (
        ["eval", "--kind", "akr-2d", "--fn", "sinpix-cospiy", "--n", "64",
         "--point", "0.3", "0.7"],
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
    "lemma_x0.3.csv": (
        ["lemma", "--x", "0.3", "--n0", "16", "--doublings", "4"],
        0,
    ),
    "decompose_exp_sum.csv": (
        ["decompose", "--fn", "exp-sum", "--point", "0.5", "0.5",
         "--n0", "16", "--doublings", "3"],
        0,
    ),
    "residual_akr_2d_exp_sum.json": (
        ["residual", "--kind", "akr-2d", "--fn", "exp-sum", "--point", "0.5", "0.5",
         "--n0", "16", "--doublings", "4", "--format", "json"],
        0,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, capsys):
    argv, expected_code = CASES[name]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    assert code == expected_code
    assert captured.out.encode("utf-8") == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)
