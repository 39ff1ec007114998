import functools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import akrvoro
from akrvoro import (
    DomainError,
    Function,
    _kernels,
    akr,
    apply,
    build_node_table,
    fixed_point_error,
    lookup,
    remainder,
)


def akr_node(n, k, j):
    return build_node_table(n, j)[k]


def test_akr_node_frozen_values():
    assert akr_node(2, 1, 2) == 0.0
    assert akr_node(5, 5, 2) == 1.0
    assert akr_node(4, 2, 2) == pytest.approx(math.sqrt(1.0 / 6.0), rel=1e-15)
    # j = 3: (3*2*1 / (6*5*4))^(1/3)
    with mp.workdps(50):
        exact = float(mp.cbrt(mp.mpf(6) / 120))
    assert akr_node(6, 3, 3) == pytest.approx(exact, rel=1e-14)


def test_akr_node_domain_errors():
    with pytest.raises(DomainError):
        build_node_table(1, 2)
    with pytest.raises(DomainError):
        build_node_table(4, 0)


def test_build_node_table_frozen_values():
    assert list(build_node_table(2, 2)) == [0.0, 0.0, 1.0]
    assert list(build_node_table(3, 3)) == [0.0, 0.0, 0.0, 1.0]
    t4 = build_node_table(4, 2)
    expected = [0.0, 0.0, math.sqrt(1.0 / 6.0), math.sqrt(0.5), 1.0]
    np.testing.assert_allclose(t4, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [2, 5, 16, 257, 1024, 4096])
@pytest.mark.parametrize("j", [2, 3, 5])
def test_node_table_invariants(n, j):
    if n < j:
        pytest.skip("n < j")
    nodes = build_node_table(n, j)
    assert np.all(nodes[:j] == 0.0)
    assert nodes[n] == 1.0
    assert np.all(np.diff(nodes) >= 0.0)
    assert np.all((nodes >= 0.0) & (nodes <= 1.0))
    k = n // 2
    with mp.workdps(50):
        exact = float(mp.root(mp.fprod(mp.mpf(k - i) / (n - i) for i in range(j)), j))
    assert nodes[k] == pytest.approx(exact, rel=1e-14, abs=0.0)


@functools.lru_cache(maxsize=8)
def full_nodes(n, j):
    return build_node_table(n, j)


@st.composite
def node_windows(draw):
    """(n, j, lo, hi): a window of the degree-n order-j nodes, random or at
    an edge: below j, one node, ending at n, or the full table."""
    j = draw(st.integers(min_value=1, max_value=5))
    n = draw(
        st.integers(min_value=j, max_value=4096)
        | st.sampled_from([8192, 65536, 2**20])
    )
    shape = draw(st.sampled_from(["random", "below-j", "single", "to-n", "full"]))
    if shape == "random":
        lo, hi = sorted(draw(st.integers(min_value=0, max_value=n)) for _ in "ab")
    elif shape == "below-j":
        lo = draw(st.integers(min_value=0, max_value=j - 1))
        hi = draw(st.integers(min_value=lo, max_value=n))
    elif shape == "single":
        lo = hi = draw(st.integers(min_value=0, max_value=n))
    elif shape == "to-n":
        lo, hi = draw(st.integers(min_value=0, max_value=n)), n
    else:
        lo, hi = 0, n
    return n, j, lo, hi


@given(window=node_windows())
@settings(max_examples=300, deadline=None)
def test_windowed_nodes_equal_the_full_table_bit_for_bit(window):
    n, j, lo, hi = window
    expected = full_nodes(n, j)[lo : hi + 1]
    nodes = build_node_table(n, j, lo, hi)
    np.testing.assert_array_equal(nodes, expected)
    assert not nodes.flags.writeable


@pytest.mark.parametrize("n", [1, 3, 8, 1000, 2**20])
def test_order_one_nodes_are_k_over_n_bit_for_bit(n):
    # the Bernstein nodes: one IEEE division k / n, on any window
    for lo, hi in ((0, n), (0, 0), (n // 3, n // 2), (n, n)):
        nodes = build_node_table(n, 1, lo, hi)
        expected = np.arange(lo, hi + 1) / n
        assert np.array_equal(nodes.view(np.int64), expected.view(np.int64))


def _ulps_from_the_rounded_root(n, lo, nodes):
    """|nodes[i] - sqrt(k(k-1)/(n(n-1)))| in ulp, k = lo + i, against the
    correctly rounded root from mpmath at 60 digits."""
    with mp.workdps(60):
        exact = np.array(
            [float(mp.sqrt(mp.mpf(k * (k - 1)) / (n * (n - 1))))
             for k in range(lo, lo + nodes.size)]
        )
    return np.abs(nodes.view(np.int64) - exact.view(np.int64))


@pytest.mark.parametrize("n", [*range(2, 65), 257, 4096])
def test_order_two_nodes_are_within_one_ulp_of_the_rounded_root(n):
    nodes = build_node_table(n, 2)
    assert _ulps_from_the_rounded_root(n, 0, nodes).max() <= 1
    # +0.0 below j, not -0.0, and 1 at k = n
    assert not np.signbit(nodes[:2]).any() and np.all(nodes[:2] == 0.0)
    assert nodes[n] == 1.0


def test_order_two_nodes_are_within_one_ulp_at_the_largest_degree():
    n = 2**20
    for lo, hi in ((0, 200), (n // 2 - 100, n // 2 + 100), (n - 200, n)):
        nodes = build_node_table(n, 2, lo, hi)
        assert _ulps_from_the_rounded_root(n, lo, nodes).max() <= 1
    assert build_node_table(n, 2, n, n)[0] == 1.0


# what the order-2 nodes and ``nodes --n 16`` give in a process of their own
_NODE_BITS_SCRIPT = """
import contextlib, hashlib, io, json
from akrvoro import build_node_table
from akrvoro.cli import main
bits = {n: hashlib.sha256(build_node_table(n, 2).tobytes()).hexdigest()
        for n in (16, 257, 4096, 65536)}
out = io.StringIO()
with contextlib.redirect_stdout(out):
    main(["nodes", "--n", "16"])
print(json.dumps({"bits": bits, "nodes_n16": out.getvalue()}))
"""

# settings read when numpy starts: numpy's SIMD targets without AVX-512 (the
# AVX2 paths of many x86 machines), and OpenBLAS's AVX kernels
_CPU_SETTINGS = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Sandybridge",
}


def test_order_two_nodes_do_not_depend_on_the_cpu_paths():
    src = str(Path(akrvoro.__file__).resolve().parents[1])
    default = {k: v for k, v in os.environ.items() if k not in _CPU_SETTINGS}
    default["PYTHONPATH"] = src
    runs = []
    for env in (default, *({**default, k: v} for k, v in _CPU_SETTINGS.items())):
        out = subprocess.run(
            [sys.executable, "-c", _NODE_BITS_SCRIPT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        runs.append(json.loads(out.stdout))
    assert runs[0]["nodes_n16"].startswith("k,t\n0,0\n1,0\n")
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]


@pytest.mark.parametrize(
    "lo, hi", [(-1, 4), (0, 9), (5, 4), (9, 9), (0.5, 4), ("0", 4), (None, 4)]
)
def test_bad_node_window_is_a_domain_error(lo, hi):
    for j in (1, 2):
        with pytest.raises(DomainError, match="window"):
            build_node_table(8, j, lo, hi)


@pytest.mark.parametrize(
    "lo, hi", [(0.0, 4.0), (np.int64(0), np.float64(4.0)), (2.0, None)]
)
def test_integral_window_bounds_pass_as_the_degree_does(lo, hi):
    # the rule of check_integral: 4.0 is the index 4, as 8.0 is the degree 8
    ints = (int(lo), None if hi is None else int(hi))
    np.testing.assert_array_equal(
        build_node_table(8.0, 2.0, lo, hi), build_node_table(8, 2, *ints)
    )
    np.testing.assert_array_equal(
        build_node_table(8, 1, lo, hi), build_node_table(8, 1, *ints)
    )


def test_node_drift_bounds_small_degrees():
    # 0 <= k/n - t <= 1/n for j = 2, checked exhaustively through n = 512
    for n in range(2, 513):
        k = np.arange(n + 1)
        drift = k / n - build_node_table(n, 2)
        assert drift.min() >= -1e-15
        assert (drift - 1.0 / n).max() <= 1e-15


def test_remainder_frozen_values():
    assert remainder(4, 0) == -0.125
    assert remainder(2, 2) == 0.0
    assert remainder(4, 1) == 0.15625


def test_remainder_vector_matches_scalar():
    r = remainder(9, np.arange(10))
    for k in range(10):
        assert r[k] == remainder(9, k)


def test_remainder_domain_errors():
    with pytest.raises(DomainError):
        remainder(1, 0)
    with pytest.raises(DomainError):
        remainder(4, 5)
    with pytest.raises(DomainError):
        remainder(4, -1)
    # an array of indices: each entry meets the index rule
    for k, message in (([0, 5], "index must lie in [0, 4], got 5"),
                       ([2, -1, 7], "index must lie in [0, 4], got -1"),
                       ([1, 2.5], "index must be integral, got 2.5")):
        with pytest.raises(DomainError, match=re.escape(message)):
            remainder(4, np.array(k))


def test_remainder_endpoint_and_sign_sweep():
    for n in range(2, 513):
        r = remainder(n, np.arange(n + 1))
        expected = -1.0 / (2.0 * n)
        assert abs(r[0] - expected) <= np.spacing(abs(expected))
        assert r[1:].min() >= -1e-15
        assert r[n] == 0.0


def test_node_and_remainder_paths_are_consistent():
    # nodes computed in the log domain, remainder from its four-term form;
    # t = k/n - 1/(2n) + k/(2 n^2) - R ties them together
    for n in range(2, 2049):
        k = np.arange(n + 1, dtype=np.float64)
        nodes = build_node_table(n, 2)
        reconstructed = k / n - 1.0 / (2.0 * n) + k / (2.0 * n * n) - remainder(
            n, np.arange(n + 1)
        )
        assert np.max(np.abs(nodes - reconstructed)) <= 1e-14


def test_akr_frozen_values():
    const1 = lookup("const1").function
    e1 = lookup("e1").function
    e2 = lookup("e2").function
    assert apply(const1, 8, 2, 0.3) == pytest.approx(1.0, abs=1e-14)
    assert apply(e1, 2, 2, 0.5) == 0.25
    assert apply(e2, 16, 2, 0.4) == pytest.approx(0.16, abs=1e-12)


def test_akr_fixes_cube_for_j3():
    e3 = lookup("e3").function
    for x in (0.1, 0.5, 0.95):
        assert apply(e3, 20, 3, x) == pytest.approx(x**3, abs=1e-13)


def test_akr_domain_errors():
    e1 = lookup("e1").function
    with pytest.raises(DomainError):
        apply(e1, 1, 2, 0.5)
    with pytest.raises(DomainError):
        apply(e1, 8, 2, -0.5)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21, 32])
def test_akr_against_high_precision_brute_force(n):
    e1 = lookup("e1").function
    for x in (0.1, 0.37, 0.5, 0.9):
        with mp.workdps(50):
            xm = mp.mpf(x)
            exact = float(
                mp.fsum(
                    mp.binomial(n, k)
                    * xm**k
                    * (1 - xm) ** (n - k)
                    * mp.sqrt(mp.mpf(k * (k - 1)) / (n * (n - 1)))
                    for k in range(n + 1)
                )
            )
        assert apply(e1, n, 2, x) == pytest.approx(exact, abs=1e-13)


def test_akr_equals_bernstein_of_node_values():
    # sampling t at k/n reproduces the node table, so the two operators
    # must coincide on the identity
    for n in (4, 9, 32):
        nodes = build_node_table(n, 2)

        def node_lookup(u, nodes=nodes, n=n):
            idx = np.rint(np.asarray(u) * n).astype(int)
            return nodes[idx]

        f = Function(eval=node_lookup)
        for x in (0.2, 0.55, 0.9):
            e1 = lookup("e1").function
            assert apply(e1, n, 2, x) == pytest.approx(apply(f, n, 1, x), abs=1e-13)


def test_fixed_point_error_values():
    assert fixed_point_error(2, 2, 11) <= 1e-13
    assert fixed_point_error(64, 2, 101) <= 1e-12
    assert fixed_point_error(64, 3, 101) <= 1e-12
    # order 1, the Bernstein operator, fixes 1 and t
    for n in (16, 64, 256):
        assert fixed_point_error(n, 1, 101) <= 1e-12
    with pytest.raises(DomainError):
        fixed_point_error(4, 2, 1)


def _frozen_fixed_point_error(n, j, grid_size):
    """fixed_point_error as a loop of single-point weight vectors and
    math.fsum sums, before the grid's weights came in batched rows."""
    ones = np.ones(n + 1)
    powers = build_node_table(n, j) ** j
    worst = 0.0
    for x in np.linspace(0.0, 1.0, grid_size):
        w = np.exp(_kernels.log_weights(n, x))
        worst = max(worst, abs(math.fsum(np.multiply(ones, w)) - 1.0))
        worst = max(worst, abs(math.fsum(np.multiply(powers, w)) - x**j))
    return worst


@pytest.mark.parametrize("n", [2, 16, 64, 256, 1024])
@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("grid_size", [2, 11, 101])
def test_fixed_point_error_equals_the_single_point_loop(n, j, grid_size):
    if n < j:
        with pytest.raises(DomainError, match="degree must be >= 3"):
            fixed_point_error(n, j, grid_size)
        return
    assert fixed_point_error(n, j, grid_size) == _frozen_fixed_point_error(
        n, j, grid_size
    )


def test_fixed_point_error_passes_log_weights_scalar_points(monkeypatch):
    # the batched rows serve the interior; only the endpoints call the kernel
    seen = []

    def spy(n, x, *args):
        seen.append((n, float(x)))
        return _kernels.log_weights(n, x, *args)

    monkeypatch.setattr(akr, "log_weights", spy)
    fixed_point_error(64, 2, 101)
    assert seen == [(64, 0.0), (64, 1.0)]


@given(
    n=st.integers(min_value=2, max_value=2000),
    j=st.integers(min_value=2, max_value=6),
    frac=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_akr_node_stays_in_unit_interval(n, j, frac):
    if n < j:
        n = j
    k = int(round(frac * n))
    t = akr_node(n, k, j)
    assert 0.0 <= t <= 1.0


@given(n=st.integers(min_value=2, max_value=3000))
@settings(max_examples=60, deadline=None)
def test_remainder_nonnegative_property(n):
    r = remainder(n, np.arange(1, n + 1))
    assert r.min() >= -1e-15
