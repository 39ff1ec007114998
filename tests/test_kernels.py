import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import akrvoro
from akrvoro import _kernels

mp.mp.dps = 50


def comp_sum(values):
    """A compensated sum is a compensated dot product against ones."""
    return _kernels.comp_dot(values, np.ones_like(values))


def test_backend_reports_numpy():
    assert _kernels.backend() == "numpy"
    assert akrvoro.backend() == "numpy"


def test_comp_sum_survives_cancellation():
    data = np.array([1e16, 1.0, -1e16, 1.0, 1e-8])
    assert comp_sum(data) == pytest.approx(math.fsum(data), abs=1e-12)


def test_comp_sum_empty_and_single():
    assert comp_sum(np.array([], dtype=float)) == 0.0
    assert comp_sum(np.array([3.5])) == 3.5


def test_comp_dot_matches_fsum_of_products():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000)
    exact = math.fsum(np.multiply(a, b))
    assert _kernels.comp_dot(a, b) == pytest.approx(exact, abs=1e-13)


def test_bilinear_accumulate_matches_brute_force():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((17, 29))
    wx = rng.standard_normal(17)
    wy = rng.standard_normal(29)
    state = np.zeros(2)
    _kernels.bilinear_accumulate(block, wx, wy, state)
    got = state[0] + state[1]
    exact = math.fsum(
        wx[i] * block[i, l] * wy[l] for i in range(17) for l in range(29)
    )
    assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_bilinear_accumulate_carries_state_across_blocks():
    rng = np.random.default_rng(13)
    block = rng.standard_normal((10, 8))
    wx = rng.standard_normal(10)
    wy = rng.standard_normal(8)
    whole = np.zeros(2)
    _kernels.bilinear_accumulate(block, wx, wy, whole)
    split = np.zeros(2)
    _kernels.bilinear_accumulate(block[:4], wx[:4], wy, split)
    _kernels.bilinear_accumulate(block[4:], wx[4:], wy, split)
    assert split[0] + split[1] == pytest.approx(whole[0] + whole[1], abs=1e-14)


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=200, deadline=None)
def test_comp_sum_is_compensated(xs):
    arr = np.array(xs)
    exact = math.fsum(xs)
    bound = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(arr))) + 1e-300
    assert abs(comp_sum(arr) - exact) <= bound


@pytest.mark.parametrize("n", [1, 2, 5, 64, 500, 2048, 8192])
@pytest.mark.parametrize("x", [0.5, 0.3, 0.1, 0.9, 1.0 / 3.0])
def test_log_weights_partition_of_unity(n, x):
    w = np.exp(_kernels.log_weights(n, x))
    assert abs(math.fsum(w) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [5, 50, 500, 5000])
def test_log_weights_against_high_precision(n):
    x = mp.mpf(0.37)
    w = np.exp(_kernels.log_weights(n, float(x)))
    for k in (0, 1, n // 3, n // 2, int(round(0.37 * n)), n - 1, n):
        exact = mp.binomial(n, k) * x**k * (1 - x) ** (n - k)
        if exact > mp.mpf("1e-300"):
            assert abs(w[k] / float(exact) - 1.0) <= 1e-12


@given(
    st.integers(min_value=1, max_value=4096),
    st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
@settings(max_examples=100, deadline=None)
def test_windowed_log_weights_are_a_slice_of_the_full_vector(n, x):
    full = _kernels.log_weights(n, x)
    assert full.shape == (n + 1,)
    lo, hi = _kernels.support(n, x)
    assert 0 <= lo <= hi <= n
    np.testing.assert_array_equal(_kernels.log_weights(n, x, lo, hi), full[lo : hi + 1])


def _binomial_pmf(n, x):
    """Exact Binomial(n, x) pmf, k = 0..n, by the ratio recurrence."""
    x = mp.mpf(x)
    ratio = x / (1 - x)
    p = [(1 - x) ** n]
    for k in range(1, n + 1):
        p.append(p[-1] * (n - k + 1) / k * ratio)
    return p


@pytest.mark.parametrize("n", [2, 64, 1024, 8192])
@pytest.mark.parametrize("x", [0.5, 0.3, 0.9, 1e-300, 1.0 - 2.0**-53])
def test_support_drops_at_most_delta_of_the_mass(n, x):
    lo, hi = _kernels.support(n, x)
    p = _binomial_pmf(n, x)
    assert abs(mp.fsum(p) - 1) < mp.mpf("1e-40")
    dropped = mp.fsum(p[:lo]) + mp.fsum(p[hi + 1 :])
    assert dropped <= 1e-20


def test_log_weights_endpoint_branches_exact():
    w0 = np.exp(_kernels.log_weights(9, 0.0))
    w1 = np.exp(_kernels.log_weights(9, 1.0))
    assert w0[0] == 1.0 and np.all(w0[1:] == 0.0)
    assert w1[9] == 1.0 and np.all(w1[:9] == 0.0)


def test_import_leaves_out_scipy_and_numba():
    code = (
        "import sys, akrvoro;"
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
    )
    src = str(Path(akrvoro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
