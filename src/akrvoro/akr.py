"""Sampling nodes of the operators that fix the constant and the j-th monomial.

The degree-n operator of order j samples at nodes
t(n,k,j) = (k (k-1) ... (k-j+1) / (n (n-1) ... (n-j+1)))^(1/j)
and keeps the Bernstein weights.  At j = 1 the nodes are k/n, so the
Bernstein operator is the order-1 case; the operators themselves live in
``tensor``, one body for [0, 1] and the square.
``remainder`` is the j = 2 node correction term whose weighted sums govern
the operator's first-order asymptotics.
"""

import operator
from dataclasses import dataclass

import numpy as np

from ._kernels import check_degree, check_integral, comp_dot, log_weights
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
    """Sampling nodes t(n,k,j) for k = lo..hi at fixed degree n and order j.

    nodes[i] is t(n, lo + i, j).  Over the full window (0, n): nodes[k] = 0
    for k < j (a zero factor in the product), nodes[n] = 1 exactly, and the
    sequence is non-decreasing.
    """

    n: int
    j: int
    nodes: np.ndarray
    lo: int = 0


def _check_order(j, least=2):
    """The order j as an int, refused with DomainError below ``least``."""
    j = check_integral(j, "order j")
    if j < least:
        raise DomainError(f"order j must be >= {least}, got {j}")
    return j


def _check_nj(n, j):
    j = _check_order(j)
    return check_degree(n, j), j


def _check_window(n, lo, hi):
    """The inclusive index window (lo, hi) as ints, hi = n when None;
    refused with DomainError unless 0 <= lo <= hi <= n."""
    hi = n if hi is None else hi
    try:
        lo, hi = operator.index(lo), operator.index(hi)
    except TypeError:
        msg = f"window bounds must be integers, got ({lo!r}, {hi!r})"
        raise DomainError(msg) from None
    if not 0 <= lo <= hi <= n:
        raise DomainError(f"window must satisfy 0 <= lo <= hi <= {n}, got ({lo}, {hi})")
    return lo, hi


def _node_formula(k, n, j):
    """t(n,k,j) elementwise over broadcast float arrays k and n, n >= j.

    Below j a factor k - i is clamped to 0, so its log is -inf and the node
    exp(-inf) = 0 exactly; at k = n every log ratio is 0 and the node is
    exactly 1.  ``build_node_table`` and criterion 2 both call it."""
    with np.errstate(divide="ignore"):
        acc = np.log(k) - np.log(n)
        for i in range(1, j):
            acc += np.log(np.maximum(k - i, 0.0)) - np.log(n - i)
        return np.exp(acc / j)


def build_node_table(n, j=2, lo=0, hi=None):
    """Nodes for degree n and order j at k = lo..hi (default all n+1) as an
    immutable table.  Each node is computed from k alone, so a window holds
    the full table's values bit for bit."""
    n, j = _check_nj(n, j)
    lo, hi = _check_window(n, lo, hi)
    nodes = _node_formula(np.arange(lo, hi + 1, dtype=np.float64), float(n), j)
    nodes.flags.writeable = False
    return NodeTable(n=n, j=j, nodes=nodes, lo=lo)


def node_values(n, j, lo=0, hi=None):
    """Sampling nodes for k = lo..hi (default 0..n) of the order-j operator:
    k/n for j = 1 (Bernstein), the node table for j >= 2.  Callers check n
    and j."""
    if j == 1:
        lo, hi = _check_window(n, lo, hi)
        return np.arange(lo, hi + 1, dtype=np.float64) / n
    return build_node_table(n, j, lo, hi).nodes


def _remainder_formula(k, n):
    """The j = 2 node correction term elementwise over broadcast float
    arrays k and n; ``remainder`` and criterion 2 both call it."""
    return (
        k / n
        - np.sqrt(k * (k - 1.0) / (n * (n - 1.0)))
        - 1.0 / (2.0 * n)
        + k / (2.0 * n * n)
    )


def remainder(n, k):
    """Node correction term for j = 2:

        k/n - sqrt(k(k-1)/(n(n-1))) - 1/(2n) + k/(2 n^2)

    evaluated directly from the four terms (not via the node table) so the
    two computations can be cross-checked.  ``k`` may be an array.
    """
    n = check_degree(n, 2)
    k = np.asarray(check_integral(k, "index"))
    if np.any(k < 0) or np.any(k > n):
        raise DomainError(f"index must lie in [0, {n}]")
    value = _remainder_formula(k.astype(np.float64), float(n))
    return float(value) if value.ndim == 0 else value


def fixed_point_error(n, j, grid_size):
    """Worst grid error in reproducing the two fixed points.

    Returns max over a uniform grid of |B(1) - 1| and |B(t^j) - x^j|.
    """
    n, j = _check_nj(n, j)
    grid_size = check_integral(grid_size, "grid size")
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
