"""Sampling nodes of the operators that fix the constant and the j-th monomial.

The degree-n operator of order j samples at nodes
t(n,k,j) = (k (k-1) ... (k-j+1) / (n (n-1) ... (n-j+1)))^(1/j)
and keeps the Bernstein weights.  At j = 1 the nodes are k/n, so the
Bernstein operator is the order-1 case; the operators themselves live in
``tensor``, one body for [0, 1] and the square.
``remainder`` is the j = 2 node correction term whose weighted sums govern
the operator's first-order asymptotics.
"""

import math

import numpy as np

from ._kernels import (
    MAX_GRID, check_at_least, check_degree, check_index, check_order, comp_dot, log_weights,
    support,
)
from .errors import DomainError

__all__ = [
    "build_node_table",
    "remainder",
    "fixed_point_error",
]


def _check_window(n, lo, hi):
    """The inclusive index window (lo, hi) as ints, hi = n when None;
    refused with DomainError unless both are indices and lo <= hi."""
    lo, hi = (check_index(b, n, "window bound") for b in (lo, n if hi is None else hi))
    if lo > hi:
        raise DomainError(f"window must satisfy 0 <= lo <= hi <= {n}, got ({lo}, {hi})")
    return lo, hi


def _node_formula(k, n, j, out=None):
    """t(n,k,j) elementwise over broadcast float arrays k and n, n >= j,
    written into ``out`` when it is given (of the broadcast shape).

    At j = 1 the node is k/n, one division.  At j = 2 it is
    sqrt(k(k-1) / (n(n-1))): both products are exact integers (below 2^40
    for n <= MAX_DEGREE), and the quotient and the root are correctly
    rounded IEEE operations.  The quotient's error moves the root by less
    than half an ulp, so the node is within 1 ulp of the exact one, with
    the same bits on every IEEE machine.  k - 1 is clamped at 0 so that
    k = 0 gives +0.0, not -0.0.  From j = 3 the node is
    exp(sum_i (log(k - i) - log(n - i)) / j): below j a factor k - i is
    clamped to 0, so its log is -inf and the node exp(-inf) = 0 exactly; at
    k = n every log ratio is 0 and the node is exactly 1.
    ``build_node_table`` calls it, and ``_remainder_formula`` takes its root
    term from it."""
    if j == 1:
        return np.divide(k, n, out=out)
    if j == 2:
        root = np.divide(k * np.maximum(k - 1.0, 0.0), n * (n - 1.0), out=out)
        return np.sqrt(root, out=out)
    with np.errstate(divide="ignore"):
        acc = np.subtract(np.log(k), np.log(n), out=out)
        for i in range(1, j):
            acc += np.log(np.maximum(k - i, 0.0)) - np.log(n - i)
        acc /= j
        return np.exp(acc, out=out)


def build_node_table(n, j=2, lo=0, hi=None):
    """The nodes t(n,k,j) for degree n and order j at k = lo..hi (default
    all n+1) as a read-only array: element i is t(n, lo + i, j).  Over the
    full window, t = 0 for k < j (a zero factor in the product), t(n,n,j) =
    1 exactly, and the sequence is non-decreasing.  Each node is computed
    from k alone, so a window holds the full table's values bit for bit."""
    j = check_order(j)
    n = check_degree(n, j)
    lo, hi = _check_window(n, lo, hi)
    nodes = _node_formula(np.arange(lo, hi + 1, dtype=np.float64), float(n), j)
    nodes.flags.writeable = False
    return nodes


def _remainder_formula(k, n, out=None, drift=None, root=None, scratch=None):
    """The j = 2 node correction term elementwise over broadcast float
    arrays k and n; ``remainder`` and criterion 2 both call it.  It forms
    the node drift k/n - t first, t the j = 2 node of ``_node_formula``,
    then R = drift - 1/(2n) + k/(2n^2).  The criterion passes ``out`` for
    the result, ``drift`` and ``root`` to keep the drift and the node, and
    ``scratch`` for the last term, all of the broadcast shape."""
    drift = np.divide(k, n, out=drift)
    drift -= _node_formula(k, n, 2, out=root)
    r = np.subtract(drift, 1.0 / (2.0 * n), out=out)
    r += np.divide(k, 2.0 * n * n, out=scratch)
    return r


def remainder(n, k):
    """Node correction term for j = 2:

        k/n - sqrt(k(k-1)/(n(n-1))) - 1/(2n) + k/(2 n^2)

    evaluated from the four terms, the root being the j = 2 node.  ``k``
    may be an array of indices, each held to ``check_index``.
    """
    n = check_degree(n, 2)
    # an integer array in [0, n] passes at once, any other k entry by entry
    ints = isinstance(k, np.ndarray) and k.dtype.kind in "iu"
    if not (ints and np.all((k >= 0) & (k <= n))):
        entries = np.asarray(k, dtype=object)
        k = np.reshape([check_index(v, n) for v in entries.flat], entries.shape)
    value = _remainder_formula(k.astype(np.float64), float(n))
    return float(value) if value.ndim == 0 else value


def fixed_point_error(n, j, grid_size):
    """Worst grid error in reproducing the two fixed points.

    Returns max over a uniform grid of |B(1) - 1| and |B(t^j) - x^j|.  The
    grid has 2 to MAX_GRID points.
    """
    j = check_order(j)
    n = check_degree(n, j)
    grid_size = check_at_least(grid_size, 2, "grid size", MAX_GRID)
    return _fixed_point_errors(n, (j,), grid_size)[0]


def _fixed_point_errors(n, orders, grid_size):
    """fixed_point_error(n, j, grid_size) for each j of ``orders`` (checked
    by the caller), from one pass over the grid's weights.

    At each point the weights are the ones every operator sums: the
    ``log_weights`` of the support window."""
    powers = [build_node_table(n, j) ** j for j in orders]
    worst = [0.0] * len(orders)
    for x in np.linspace(0.0, 1.0, grid_size).tolist():
        lo, hi = support(n, x)
        window = slice(lo, hi + 1)
        w = np.exp(log_weights(n, x, lo, hi))
        one = abs(math.fsum(w.tolist()) - 1.0)
        for i, j in enumerate(orders):
            error = abs(comp_dot(powers[i][window], w) - x**j)
            worst[i] = max(worst[i], one, error)
    return worst
