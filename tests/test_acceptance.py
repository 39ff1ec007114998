"""Acceptance gate: every numbered criterion at its pinned tolerance.

Each test prints one pass/fail line; run with -s (or check the failure
message) to see the per-criterion details.
"""

import numpy as np
import pytest

from akrvoro import acceptance, akr, build_node_table, remainder
from akrvoro._kernels import CACHE_BLOCK_ELEMENTS
from akrvoro.acceptance import CRITERIA, run_criterion


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
    for first, n, k, r, nodes in acceptance._remainder_sweep(4096):
        rows = n.shape[0]
        assert r.shape == nodes.shape == (rows, k.shape[0])
        assert rows == 1 or r.size <= CACHE_BLOCK_ELEMENTS
        for degree in range(first, first + rows):
            cells = slice(0, degree + 1)
            row = degree - first
            _assert_same_bits(r[row, cells], remainder(degree, np.arange(degree + 1)))
            _assert_same_bits(nodes[row, cells], build_node_table(degree, 2).nodes)
            degrees.append(degree)
    assert degrees == list(range(2, 4097))


def _scaled_nodes(formula):
    return lambda k, n, j: formula(k, n, j) * (1.0 + 1e-12)


def _shifted_remainder(formula):
    return lambda k, n: formula(k, n) - 1e-14


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
