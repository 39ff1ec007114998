"""Acceptance gate: every numbered criterion at its pinned tolerance.

Each test prints one pass/fail line; run with -s (or check the failure
message) to see the per-criterion details.
"""

import math

import numpy as np
import pytest

from akrvoro import (
    DomainError,
    acceptance,
    akr,
    build_node_table,
    cli,
    extrapolate,
    lookup,
    remainder,
    residual_series,
)
from akrvoro._kernels import CACHE_BLOCK_ELEMENTS
from akrvoro.acceptance import (
    CRITERIA, check_limit, relative_ok, run_all, run_criterion,
)
from akrvoro.asymptotics import KINDS


@pytest.mark.parametrize("number", [num for num, *_ in CRITERIA])
def test_acceptance_criterion(number):
    result = run_criterion(number)
    print(result.line())
    assert result.passed, result.line()


# --------------------------------------------------------------------------
# Criterion 2's blocked sweep.
# --------------------------------------------------------------------------


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_sweep_rows_equal_the_public_functions_bit_for_bit():
    degrees = []
    for first, n, k, ratio, r, nodes in acceptance._remainder_sweep(4096):
        rows = n.shape[0]
        assert ratio.shape == r.shape == nodes.shape == (rows, k.shape[0])
        _assert_same_bits(ratio, k / n)
        assert rows == 1 or r.size <= CACHE_BLOCK_ELEMENTS
        for degree in range(first, first + rows):
            cells = slice(0, degree + 1)
            row = degree - first
            _assert_same_bits(r[row, cells], remainder(degree, np.arange(degree + 1)))
            _assert_same_bits(nodes[row, cells], build_node_table(degree, 2).nodes)
            degrees.append(degree)
    assert degrees == list(range(2, 4097))


# the wrong formulas pass the sweep's buffers on and return a new array
def _scaled_nodes(formula):
    return lambda k, n, j, **buffers: formula(k, n, j, **buffers) * (1.0 + 1e-12)


def _shifted_remainder(formula):
    return lambda k, n, **buffers: formula(k, n, **buffers) - 1e-14


@pytest.mark.parametrize(
    "name, wrong",
    [("_node_formula", _scaled_nodes), ("_remainder_formula", _shifted_remainder)],
)
def test_criterion_2_fails_on_a_wrong_formula(monkeypatch, name, wrong):
    # the sweep and the public functions share the wrong formula, so the
    # properties, not the bit comparison, must catch it
    bad = wrong(getattr(akr, name))
    monkeypatch.setattr(akr, name, bad)
    monkeypatch.setattr(acceptance, name, bad)
    passed, detail = acceptance.criterion_2()
    assert not passed
    assert "differs" not in detail


def test_criterion_2_fails_when_the_sweep_and_the_public_functions_differ(monkeypatch):
    # one ulp in the function the sweep is checked against, no property broken
    exact = acceptance.remainder
    monkeypatch.setattr(
        acceptance, "remainder", lambda n, k: np.nextafter(exact(n, k), np.inf)
    )
    passed, detail = acceptance.criterion_2()
    assert not passed
    assert detail.endswith("; sweep differs from remainder/nodes at n = 2, 2048, 4096")


# --------------------------------------------------------------------------
# The one limit verdict.
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, name, point, j",
    [
        ("akr-1d", "e1", 0.3, 2),
        ("akr-2d", "runge-2d", (0.7, 0.3), 3),
        ("akr-minus-bernstein-2d", "exp-sum", (0.5, 0.5), 2),
        ("bernstein-2d", "exp-sum", (0.7, 0.3), 4),
        ("lemma-sum", None, 0.25, 2),
    ],
)
def test_check_limit_is_the_series_extrapolation_and_relative_ok(kind, name, point, j):
    f = lookup(name).function if name else None
    check = check_limit(kind, f, point, 1e-3, n0=16, doublings=4, j=j)
    series = residual_series(kind, f, point, n0=16, doublings=4, j=j)
    result = extrapolate(series)
    target = KINDS[kind].limit(f, point, j)
    assert (check.series, check.result, check.target) == (series, result, target)
    assert (check.passed, check.error) == relative_ok(
        result.limit_estimate, target, 1e-3
    )


def test_every_limit_verdict_goes_through_relative_ok(monkeypatch, capsys):
    monkeypatch.setattr(
        acceptance, "relative_ok", lambda limit, target, tol: (False, 0.0)
    )
    for number in (3, 4, 5, 6):
        assert run_criterion(number).status == "FAIL", number
    for argv in (
        ["residual", "--kind", "akr-1d", "--fn", "e1", "--point", "0.5"],
        ["lemma", "--x", "0.5"],
    ):
        assert cli.main(argv) == 1, argv
        assert "# verdict=FAIL\n" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf])
def test_check_limit_refuses_a_bad_tolerance_before_the_series_runs(
    tolerance, monkeypatch
):
    def no_series(*args, **kwargs):
        raise AssertionError("residual_series ran")

    monkeypatch.setattr(acceptance, "residual_series", no_series)
    with pytest.raises(DomainError, match="tolerance must be finite and >= 0"):
        check_limit("lemma-sum", None, 0.5, tolerance)


def test_criterion_numbers_follow_the_integral_rule(monkeypatch):
    monkeypatch.setattr(
        acceptance, "CRITERIA", ((1, "stub", lambda: (True, "ok"), 1.0), *CRITERIA[1:])
    )
    (result,) = run_all([1.0])
    assert (result.number, result.detail) == (1, "ok")
    assert [r.number for r in run_all([np.int64(1)])] == [1]
    for numbers, message in (
        (["1"], "criterion number must be integral, got '1'"),
        ([1.5], "criterion number must be integral, got 1.5"),
        ([9], "no criterion numbered 9"),
        # an empty selection is refused; None selects every criterion
        ([], "no criterion selected"),
    ):
        with pytest.raises(DomainError, match=message):
            run_all(numbers)
