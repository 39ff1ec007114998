"""Acceptance gate: every numbered criterion at its pinned tolerance.

Each test prints one pass/fail line; run with -s (or check the failure
message) to see the per-criterion details.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from akrvoro import (
    DomainError,
    acceptance,
    akr,
    apply,
    build_node_table,
    cli,
    extrapolate,
    lookup,
    remainder,
    residual_series,
    tensor,
)
from akrvoro._kernels import CACHE_BLOCK_ELEMENTS, small_ufunc_buffer
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
    for first, n, k, drift, r, nodes in acceptance._remainder_sweep(4096):
        rows = n.shape[0]
        assert drift.shape == r.shape == nodes.shape == (rows, k.shape[0])
        _assert_same_bits(drift, k / n - nodes)
        assert rows == 1 or r.size <= CACHE_BLOCK_ELEMENTS
        for degree in range(first, first + rows):
            cells = slice(0, degree + 1)
            row = degree - first
            _assert_same_bits(r[row, cells], remainder(degree, np.arange(degree + 1)))
            _assert_same_bits(nodes[row, cells], build_node_table(degree, 2))
            degrees.append(degree)
    assert degrees == list(range(2, 4097))


def test_max_excess_is_the_full_block_maximum_bit_for_bit():
    # each row's largest drift less 1/n is the largest drift - 1/n over
    # the block's cells
    with small_ufunc_buffer():
        for first, n, k, drift, _, _ in acceptance._remainder_sweep(4096):
            tail = k[first + 1 :] <= n
            full = acceptance._reduce_valid(np.maximum, drift - 1.0 / n, tail)
            assert acceptance._max_excess(drift, n, tail).hex() == full.hex()


# the wrong node formula writes into ``out``, as the sweep's nodes are the
# remainder formula's root buffer; each wrong formula passes the sweep's
# buffers and kept factors on, and the wrong remainder formula returns a
# new array
def _scaled_nodes(formula):
    def wrong(k, n, j, out=None, **kept):
        return np.multiply(formula(k, n, j, out=out, **kept), 1.0 + 1e-12, out=out)

    return wrong


def _shifted_remainder(formula):
    return lambda k, n, **kept: formula(k, n, **kept) - 1e-14


@pytest.mark.parametrize(
    "name, wrong",
    [("_node_formula", _scaled_nodes), ("_remainder_formula", _shifted_remainder)],
)
def test_criterion_2_fails_on_a_wrong_formula(monkeypatch, name, wrong):
    # the sweep and the public functions share the wrong formula, so the
    # properties, not the bit comparison, must catch it.  The sweep imports
    # the remainder formula, and reaches the node formula only through it.
    bad = wrong(getattr(akr, name))
    monkeypatch.setattr(akr, name, bad)
    if name == "_remainder_formula":
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
# Criterion 7 and the runtime limit.
# --------------------------------------------------------------------------


def test_criterion_7_reports_every_degree_and_point():
    passed, detail = acceptance.criterion_7()
    assert passed
    assert [entry.split(":")[0] for entry in detail.split("; ")] == [
        f"n={n} @ {p}" for n in (64, 256, 1024) for p in ((0.5, 0.5), (0.7, 0.3))
    ]


@pytest.mark.parametrize(
    "wrong",
    [
        lambda d: replace(d, g_bound=abs(d.g_residual) / 2.0),
        lambda d: replace(d, g_residual=d.g_residual + 1e-9),
    ],
    ids=["G-above-its-bound", "E+F+G-off-the-total"],
)
def test_criterion_7_fails_on_a_broken_decomposition(monkeypatch, wrong):
    exact = acceptance.decomposition
    monkeypatch.setattr(acceptance, "decomposition", lambda *a: wrong(exact(*a)))
    passed, _ = acceptance.criterion_7()
    assert not passed


def test_a_criterion_over_its_runtime_limit_fails(monkeypatch):
    no_time = tuple((num, name, fn, 0.0) for num, name, fn, _ in CRITERIA)
    monkeypatch.setattr(acceptance, "CRITERIA", no_time)
    result = run_criterion(8)
    assert not result.passed
    assert result.detail.endswith("exceeded 0s")


# --------------------------------------------------------------------------
# The one limit verdict.
# --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, name, point, j",
    [
        ("akr-1d", "e1", 0.3, 2),
        ("akr-2d", "runge-2d", (0.7, 0.3), 3),
        ("akr-minus-bernstein-2d", "exp-sum", (0.5, 0.5), 2),
        ("akr-2d", "exp-sum", (0.7, 0.3), 1),
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
        ["residual", "--kind", "lemma-sum", "--point", "0.5"],
    ):
        assert cli.main(argv) == 1, argv
        assert "# verdict=FAIL\n" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", [-1.0, math.nan, math.inf, "0.1", None, [0.1]])
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
        # 1.0 is criterion 1
        ([1, 8, 1.0], "criterion 1 selected more than once"),
    ):
        with pytest.raises(DomainError, match=message):
            run_all(numbers)


def test_a_repeated_criterion_is_refused_before_any_criterion_runs(monkeypatch):
    def no_run(number):
        raise AssertionError(f"criterion {number} ran")

    monkeypatch.setattr(acceptance, "run_criterion", no_run)
    with pytest.raises(DomainError, match="^criterion 8 selected more than once$"):
        run_all([8, 8])
    with pytest.raises(DomainError, match="^criterion 2, 8 selected more than once$"):
        run_all([8, 2, 8, 2])


# --------------------------------------------------------------------------
# One run shares weights and operator values across criteria.
# --------------------------------------------------------------------------


def test_run_all_rows_equal_each_criterion_run_alone():
    together = run_all()
    alone = [run_criterion(num) for num, *_ in CRITERIA]
    assert [replace(r, elapsed=0.0) for r in together] == [
        replace(r, elapsed=0.0) for r in alone
    ]


def test_one_run_computes_each_weight_window_once(tensor_log_weights_calls):
    calls = tensor_log_weights_calls
    run_all()
    assert calls and max(calls.values()) == 1


def test_each_run_pays_for_its_own_work_and_leaves_no_memo_open(
    tensor_log_weights_calls, monkeypatch
):
    calls = tensor_log_weights_calls
    counts = []
    for _ in range(2):
        calls.clear()
        run_all()
        counts.append(sum(calls.values()))
        assert tensor._MEMO.get() is None
    assert counts[0] == counts[1] > 0

    def raises():
        apply(lookup("runge-2d").function, 64, 2, (0.7, 0.3))
        raise RuntimeError("boom")

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "raises", raises, 1.0), *CRITERIA[1:]))
    with pytest.raises(RuntimeError, match="boom"):
        run_all([8, 1])
    assert tensor._MEMO.get() is None


def test_check_limit_takes_an_f_whose_tables_cannot_be_hashed():
    f = lookup("runge-2d").function
    listed = replace(f, grad=list(f.grad), hess=[list(row) for row in f.hess])
    with pytest.raises(TypeError):
        hash(listed)
    check = check_limit("akr-minus-bernstein-2d", listed, (0.7, 0.3), 2e-2,
                        n0=16, doublings=4)
    assert check.passed
    assert check == check_limit("akr-minus-bernstein-2d", f, (0.7, 0.3), 2e-2,
                                n0=16, doublings=4)
