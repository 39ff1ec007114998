"""Operators summed over the support window against full-range sums.

Every operator sums only over ``support(n, x)``.  The references below sum
over all n+1 nodes with the weights of ``log_weights(n, x)``.  A value is
compared relative to the sum of its absolute terms, the scale of a sum's
rounding; that scale is the value itself when f and the weights keep one
sign.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from akrvoro import (
    Function1D,
    akr_apply,
    bernstein_apply,
    build_node_table,
    decomposition,
    lemma_sum,
    lookup,
    remainder,
    tensor_akr_apply,
    tensor_bernstein_apply,
)
from akrvoro._kernels import log_weights
from akrvoro.tensor import tensor_reduce

REL = 1e-14
ABS = 1e-300

RUNGE = lookup("runge-2d").function
WAVE = Function1D(eval=lambda t: np.cos(7.0 * np.pi * np.asarray(t)))

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
    assert_close(bernstein_apply(WAVE, n, x), full_dot(WAVE.eval(uniform), w))
    assert_close(akr_apply(WAVE, n, 2, x), full_dot(WAVE.eval(nodes), w))
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
    assert_close(tensor_bernstein_apply(RUNGE, n, p, use_separability=False), classical)
    assert_close(tensor_akr_apply(RUNGE, n, 2, p, use_separability=False), modified)

    drift = nodes - uniform
    e_ref = full_reduce(RUNGE.fx, uniform, uniform, wx * drift, wy)
    f_ref = full_reduce(RUNGE.fy, uniform, uniform, wx, wy * drift)
    e_ref, f_ref = (n * e_ref[0], n * e_ref[1]), (n * f_ref[0], n * f_ref[1])
    total = (n * (modified[0] - classical[0]), n * (modified[1] + classical[1]))
    g_ref = (total[0] - e_ref[0] - f_ref[0], total[1] + e_ref[1] + f_ref[1])
    d = decomposition(RUNGE, n, p)
    assert_close(d.e_term, e_ref)
    assert_close(d.f_term, f_ref)
    assert_close(d.g_residual, g_ref)
