"""Operators summed over the support window against full-range sums.

Every operator sums only over ``support(n, x)``.  The references below sum
over all n+1 nodes with the weights of ``log_weights(n, x)``.  A value is
compared relative to the sum of its absolute terms, the scale of a sum's
rounding; that scale is the value itself when f and the weights keep one
sign.  The operators also build their nodes on the window only: their
values equal, bit for bit, the same sums over slices of the full node
table, and a value at n = 2^20 allocates far less than one full table.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from akrvoro import (
    Function,
    apply,
    build_node_table,
    decomposition,
    lemma_sum,
    lookup,
    remainder,
)
from akrvoro._kernels import comp_dot, log_weights, support
from akrvoro.basis import eval_on
from akrvoro.tensor import tensor_reduce

REL = 1e-14
ABS = 1e-300

RUNGE = lookup("runge-2d").function
EXP_SUM = lookup("exp-sum").function
WAVE = Function(eval=lambda t: np.cos(7.0 * np.pi * np.asarray(t)))

degrees = st.integers(min_value=2, max_value=4096)
points = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
    st.floats(min_value=0.0, max_value=1.0),
)


def assert_close(got, ref):
    value, scale = ref
    assert abs(got - value) <= REL * scale + ABS, (got, value, scale)


def full_weights(n, x):
    w = np.exp(log_weights(n, x))
    assert w.shape == (n + 1,)
    return w


def full_dot(values, w):
    return math.fsum(values * w), float(np.abs(values) @ w)


def full_reduce(func, s, t, wx, wy):
    return (
        tensor_reduce(func, s, t, wx, wy),
        tensor_reduce(lambda a, b: np.abs(func(a, b)), s, t, np.abs(wx), np.abs(wy)),
    )


@given(n=degrees, x=points)
@settings(max_examples=60, deadline=None)
def test_window_matches_full_sum_1d(n, x):
    w = full_weights(n, x)
    uniform = np.arange(n + 1, dtype=np.float64) / n
    nodes = build_node_table(n, 2).nodes
    assert_close(apply(WAVE, n, 1, x), full_dot(WAVE.eval(uniform), w))
    assert_close(apply(WAVE, n, 2, x), full_dot(WAVE.eval(nodes), w))
    if x > 0.0:
        r = remainder(n, np.arange(1, n + 1))
        value, scale = full_dot(r, w[1:])
        assert_close(lemma_sum(n, x), (n * value, n * scale))


@given(n=degrees, x=points, y=points)
@settings(max_examples=15, deadline=None)
def test_window_matches_full_sum_2d(n, x, y):
    wx, wy = full_weights(n, x), full_weights(n, y)
    uniform = np.arange(n + 1, dtype=np.float64) / n
    nodes = build_node_table(n, 2).nodes
    classical = full_reduce(RUNGE.eval, uniform, uniform, wx, wy)
    modified = full_reduce(RUNGE.eval, nodes, nodes, wx, wy)
    p = (x, y)
    assert_close(apply(RUNGE, n, 1, p), classical)
    assert_close(apply(RUNGE, n, 2, p), modified)

    drift = nodes - uniform
    fx, fy = RUNGE.grad
    e_ref = full_reduce(fx, uniform, uniform, wx * drift, wy)
    f_ref = full_reduce(fy, uniform, uniform, wx, wy * drift)
    e_ref, f_ref = (n * e_ref[0], n * e_ref[1]), (n * f_ref[0], n * f_ref[1])
    total = (n * (modified[0] - classical[0]), n * (modified[1] + classical[1]))
    g_ref = (total[0] - e_ref[0] - f_ref[0], total[1] + e_ref[1] + f_ref[1])
    d = decomposition(RUNGE, n, p)
    assert_close(d.e_term, e_ref)
    assert_close(d.f_term, f_ref)
    assert_close(d.g_residual, g_ref)


def sliced_window(n, x):
    """The support window at x as a slice of a full table, with its weights."""
    lo, hi = support(n, x)
    return slice(lo, hi + 1), np.exp(log_weights(n, x, lo, hi))


def sliced_sum(f, nodes, windows):
    """The operator's sum, in the operator's order, over slices of the full
    node table ``nodes``."""
    if len(windows) == 1:
        ((s, w),) = windows
        return comp_dot(eval_on(f.eval, nodes[s]), w)
    if f.factors is not None:
        return math.prod(
            sliced_sum(g, nodes, (window,)) for g, window in zip(f.factors, windows)
        )
    (sx, wx), (sy, wy) = windows
    return tensor_reduce(f.eval, nodes[sx], nodes[sy], wx, wy)


@given(
    n=degrees | st.sampled_from([8192, 65536]),
    j=st.integers(min_value=2, max_value=4),
    x=points,
    y=points,
)
@settings(max_examples=25, deadline=None)
def test_window_nodes_give_the_sliced_full_table_sums_bit_for_bit(n, j, x, y):
    if n < j:
        n = j
    uniform = np.arange(n + 1, dtype=np.float64) / n
    nodes = build_node_table(n, j).nodes
    wins = (sliced_window(n, x), sliced_window(n, y))
    assert apply(WAVE, n, j, x) == sliced_sum(WAVE, nodes, wins[:1])
    assert apply(WAVE, n, 1, x) == sliced_sum(WAVE, uniform, wins[:1])
    p = (x, y)
    # runge-2d has no factors: its double sum at n = 65536 is slow
    functions = (EXP_SUM,) if n > 8192 else (EXP_SUM, RUNGE)
    for f in functions:
        for g in (f, replace(f, factors=None)):
            assert apply(g, n, j, p) == sliced_sum(g, nodes, wins)
            assert apply(g, n, 1, p) == sliced_sum(g, uniform, wins)

    nodes = build_node_table(n, 2).nodes
    drift = nodes - uniform
    (sx, wx), (sy, wy) = wins
    s, t = uniform[sx], uniform[sy]
    for f in functions:
        fx, fy = f.grad
        e_ref = n * tensor_reduce(fx, s, t, wx * drift[sx], wy)
        f_ref = n * tensor_reduce(fy, s, t, wx, wy * drift[sy])
        total = n * (sliced_sum(f, nodes, wins) - sliced_sum(f, uniform, wins))
        d = decomposition(f, n, p)
        assert (d.e_term, d.f_term, d.total) == (e_ref, f_ref, total)
        assert d.g_residual == total - e_ref - f_ref


def test_an_operator_value_allocates_far_less_than_a_full_table():
    # one full node table at n = 2^20 is 8 MiB; the support window is about
    # 10^4 nodes
    e3 = lookup("e3").function
    n = 2**20
    apply(e3, n, 2, 0.5)
    tracemalloc.start()
    try:
        apply(e3, n, 2, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
