"""Sampling nodes of the operators that fix the constant and the j-th monomial.

The degree-n operator of order j samples at nodes
t(n,k,j) = (k (k-1) ... (k-j+1) / (n (n-1) ... (n-j+1)))^(1/j)
and keeps the Bernstein weights.  At j = 1 the nodes are k/n, so the
Bernstein operator is the order-1 case; the operators themselves live in
``tensor``, one body for [0, 1] and the square.
``remainder`` is the j = 2 node correction term whose weighted sums govern
the operator's first-order asymptotics.
"""

from dataclasses import dataclass

import numpy as np

from ._kernels import check_degree, comp_dot, log_weights
from .errors import DomainError

__all__ = [
    "NodeTable",
    "build_node_table",
    "node_values",
    "remainder",
    "fixed_point_error",
]


@dataclass(frozen=True)
class NodeTable:
    """Sampling nodes t(n,k,j) for k = 0..n at fixed degree n and order j.

    nodes[k] = 0 for k < j (a zero factor in the product), nodes[n] = 1
    exactly, and the sequence is non-decreasing.
    """

    n: int
    j: int
    nodes: np.ndarray


def _check_nj(n, j):
    j = int(j)
    if j < 2:
        raise DomainError(f"order j must be >= 2, got {j}")
    return check_degree(n, j), j


def build_node_table(n, j=2):
    """All nodes for degree n and order j as an immutable table."""
    n, j = _check_nj(n, j)
    nodes = np.zeros(n + 1)
    if n > j:
        k = np.arange(j, n, dtype=np.float64)
        acc = np.zeros_like(k)
        for i in range(j):
            acc += np.log(k - i) - np.log(float(n - i))
        nodes[j:n] = np.exp(acc / j)
    nodes[n] = 1.0
    nodes.flags.writeable = False
    return NodeTable(n=n, j=j, nodes=nodes)


def node_values(n, j):
    """Sampling nodes for k = 0..n of the order-j operator: k/n for j = 1
    (Bernstein), the node table for j >= 2.  Callers check n and j."""
    if j == 1:
        return np.arange(n + 1, dtype=np.float64) / n
    return build_node_table(n, j).nodes


def remainder(n, k):
    """Node correction term for j = 2:

        k/n - sqrt(k(k-1)/(n(n-1))) - 1/(2n) + k/(2 n^2)

    evaluated directly from the four terms (not via the node table) so the
    two computations can be cross-checked.  ``k`` may be an array.
    """
    n = check_degree(n, 2)
    k = np.asarray(k)
    if np.any(k < 0) or np.any(k > n):
        raise DomainError(f"index must lie in [0, {n}]")
    kf = k.astype(np.float64)
    value = (
        kf / n
        - np.sqrt(kf * (kf - 1.0) / (n * (n - 1.0)))
        - 1.0 / (2.0 * n)
        + kf / (2.0 * n * n)
    )
    return float(value) if value.ndim == 0 else value


def fixed_point_error(n, j, grid_size):
    """Worst grid error in reproducing the two fixed points.

    Returns max over a uniform grid of |B(1) - 1| and |B(t^j) - x^j|.
    """
    n, j = _check_nj(n, j)
    grid_size = int(grid_size)
    if grid_size < 2:
        raise DomainError(f"grid size must be >= 2, got {grid_size}")
    ones = np.ones(n + 1)
    powers = node_values(n, j) ** j
    worst = 0.0
    for x in np.linspace(0.0, 1.0, grid_size):
        w = np.exp(log_weights(n, x))
        worst = max(worst, abs(comp_dot(ones, w) - 1.0))
        worst = max(worst, abs(comp_dot(powers, w) - x**j))
    return worst
