"""One-dimensional Bernstein basis weights on [0, 1]."""

import math

import numpy as np

from ._kernels import (
    check_degree, check_index, check_point, log_weights, nonzero_window,
)

__all__ = [
    "basis_weight",
    "weight_vector",
]


def basis_weight(n, k, x):
    """Bernstein basis weight C(n,k) x^k (1-x)^(n-k), log-domain evaluated.

    Exact 0/1 at the endpoints; a single exponentiation everywhere else, so
    the result is non-negative by construction.
    """
    n = check_degree(n)
    k = check_index(k, n)
    (x,) = check_point(x, 1)
    return math.exp(log_weights(n, x, k, k)[0])


def weight_vector(n, x):
    """All n+1 basis weights at x as a vector (the per-point hot path).

    Log weights are computed only where a weight can be nonzero: outside
    ``nonzero_window`` (|k - n x| > sqrt(375 n), so ln w_k < -750 by
    Hoeffding) the exponential is exactly 0.0, and the vector is the same
    bit for bit as ``np.exp(log_weights(n, x))``."""
    n = check_degree(n)
    (x,) = check_point(x, 1)
    lo, hi = nonzero_window(n, x)
    w = np.zeros(n + 1)
    np.exp(log_weights(n, x, lo, hi), out=w[lo : hi + 1])
    return w


def eval_on(func, nodes):
    """Evaluate a (vectorized) callable on a node array as float64."""
    out = np.asarray(func(nodes), dtype=np.float64)
    if out.shape != nodes.shape:
        out = np.broadcast_to(out, nodes.shape)
    return out

