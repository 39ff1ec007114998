"""One-dimensional Bernstein basis weights on [0, 1]."""

import math

import numpy as np

from ._kernels import check_degree, check_index, check_point, log_weights, support

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
    """The n+1 basis weights at x as a vector: the weights of the support
    window, the ones every operator sums, and 0.0 outside it.

    Inside ``_kernels.support(n, x)`` the entries are, bit for bit,
    ``np.exp(log_weights(n, x, lo, hi))``.  Outside it each weight is below
    SUPPORT_DELTA / 2 by the one-sided Hoeffding bound
    w_k <= exp(-2 (k - n x)^2 / n), and all of them together below
    SUPPORT_DELTA, so setting them to 0.0 drops at most that much."""
    n = check_degree(n)
    (x,) = check_point(x, 1)
    lo, hi = support(n, x)
    w = np.zeros(n + 1)
    np.exp(log_weights(n, x, lo, hi), out=w[lo : hi + 1])
    return w


def eval_on(func, nodes):
    """Evaluate a (vectorized) callable on a node array as float64."""
    out = np.asarray(func(nodes), dtype=np.float64)
    if out.shape != nodes.shape:
        out = np.broadcast_to(out, nodes.shape)
    return out

