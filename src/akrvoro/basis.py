"""One-dimensional Bernstein basis weights on [0, 1]."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import check_degree, log_weights
from .errors import DomainError

__all__ = [
    "Function1D",
    "basis_weight",
    "weight_vector",
]


@dataclass(frozen=True)
class Function1D:
    """A real function on [0, 1] with optional exact derivatives.

    ``eval`` (and the derivatives, when given) must accept numpy arrays and
    broadcast elementwise; operators evaluate them on full node vectors.
    """

    eval: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None


def _check_x(x):
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"point must lie in [0, 1], got {x}")
    return x


def basis_weight(n, k, x):
    """Bernstein basis weight C(n,k) x^k (1-x)^(n-k), log-domain evaluated.

    Exact 0/1 at the endpoints; a single exponentiation everywhere else, so
    the result is non-negative by construction.
    """
    n = check_degree(n)
    k = int(k)
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

