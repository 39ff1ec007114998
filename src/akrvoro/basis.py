"""One-dimensional Bernstein basis weights on [0, 1]."""

import math

import numpy as np

from ._kernels import check_degree, check_integral, log_weights
from .errors import DomainError

__all__ = [
    "basis_weight",
    "weight_vector",
]


def _check_x(x):
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise DomainError(f"point must lie in [0, 1], got {x!r}") from None
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"point must lie in [0, 1], got {x}")
    return x


def basis_weight(n, k, x):
    """Bernstein basis weight C(n,k) x^k (1-x)^(n-k), log-domain evaluated.

    Exact 0/1 at the endpoints; a single exponentiation everywhere else, so
    the result is non-negative by construction.
    """
    n = check_degree(n)
    k = check_integral(k, "index")
    if not 0 <= k <= n:
        raise DomainError(f"index must lie in [0, {n}], got {k}")
    x = _check_x(x)
    return math.exp(log_weights(n, x, k, k)[0])


def weight_vector(n, x):
    """All n+1 basis weights at x as a vector (the per-point hot path)."""
    n = check_degree(n)
    x = _check_x(x)
    return np.exp(log_weights(n, x))


def eval_on(func, nodes):
    """Evaluate a (vectorized) callable on a node array as float64."""
    out = np.asarray(func(nodes), dtype=np.float64)
    if out.shape != nodes.shape:
        out = np.broadcast_to(out, nodes.shape)
    return out

