"""Sampling nodes of the operators that fix the constant and the j-th monomial.

The degree-n operator of order j samples at nodes
t(n,k,j) = (k (k-1) ... (k-j+1) / (n (n-1) ... (n-j+1)))^(1/j)
and keeps the Bernstein weights.  At j = 1 the nodes are k/n, so the
Bernstein operator is the order-1 case; the operators themselves live in
``tensor``, one body for [0, 1] and the square.
``remainder`` is the j = 2 node correction term whose weighted sums govern
the operator's first-order asymptotics.
"""

import numpy as np

from ._kernels import (
    CACHE_BLOCK_ELEMENTS, MAX_GRID, check_at_least, check_degree, check_index, check_order,
    exact_sum, log_weights, support,
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


def _node_formula(k, n, j, out=None, products=None):
    """t(n,k,j) elementwise over broadcast float arrays k and n, n >= j,
    written into ``out`` when it is given (of the broadcast shape).  At
    j = 2 ``products`` may hold the pair ``_node_products(k, n)``, formed
    once by a caller that keeps it.

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
        root = np.divide(*(products or _node_products(k, n)), out=out)
        return np.sqrt(root, out=out)
    with np.errstate(divide="ignore"):
        acc = np.subtract(np.log(k), np.log(n), out=out)
        for i in range(1, j):
            acc += np.log(np.maximum(k - i, 0.0)) - np.log(n - i)
        acc /= j
        return np.exp(acc, out=out)


def _node_products(k, n):
    """k max(k - 1, 0) and n (n - 1), the two exact integer products of the
    j = 2 node."""
    return k * np.maximum(k - 1.0, 0.0), n * (n - 1.0)


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


def _remainder_formula(k, n, out=None, drift=None, root=None, scratch=None, factors=None):
    """The j = 2 node correction term elementwise over broadcast float
    arrays k and n; ``remainder`` and criterion 2 both call it.  It forms
    the node drift k/n - t first, t the j = 2 node of ``_node_formula``,
    then R = drift - 1/(2n) + k/(2n^2).  The criterion passes ``out`` for
    the result, ``drift`` and ``root`` to keep the drift and the node, and
    ``scratch`` for the last term, all of the broadcast shape, and
    ``factors``, the ``_remainder_factors(k, n)`` it keeps for the sweep."""
    kk, nn, half, twice = factors or _remainder_factors(k, n)
    drift = np.divide(k, n, out=drift)
    drift -= _node_formula(k, n, 2, out=root, products=(kk, nn))
    r = np.subtract(drift, half, out=out)
    r += np.divide(k, twice, out=scratch)
    return r


def _remainder_factors(k, n):
    """The factors of the j = 2 remainder that depend on k or on n alone:
    the two ``_node_products``, 1/(2n) and 2n^2."""
    return (*_node_products(k, n), 1.0 / (2.0 * n), 2.0 * n * n)


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
    by the caller), from one pass over the grid's weights."""
    grid = np.linspace(0.0, 1.0, grid_size).tolist()
    sums = _fixed_point_sums(n, orders, grid)
    one = np.abs(sums[0] - 1.0)
    return [
        float(np.maximum(one, np.abs(row - [x**j for x in grid])).max())
        for row, j in zip(sums[1:], orders)
    ]


def _fixed_point_sums(n, orders, grid):
    """The sums that ``_fixed_point_errors`` checks, one column a point x
    of ``grid``: row 0 the sum of the weights at x, row 1 + i the sum of
    the weights times t^j, j = orders[i].

    At each point the weights are the ones every operator sums: the
    ``log_weights`` of the support window, one call a point.  The windows
    go into the rows of a block padded with weight 0 (a log weight of
    -inf) and node power 0, cut into chunks of whole rows of at most
    CACHE_BLOCK_ELEMENTS cells, and one ``exact_sum`` call sums a chunk's
    rows: each sum is correctly rounded, so the padding's zeros leave it
    the ``exact_sum`` and ``comp_dot`` of the point's window bit for bit."""
    powers = [build_node_table(n, j) ** j for j in orders]
    windows = [support(n, x) for x in grid]
    width = max(hi - lo + 1 for lo, hi in windows)
    rows = max(1, CACHE_BLOCK_ELEMENTS // width)
    sums = np.empty((1 + len(orders), len(grid)))
    for start in range(0, len(grid), rows):
        chunk = slice(start, start + rows)
        # the weights, then the weights times each order's node powers
        stack = np.zeros((1 + len(orders), len(grid[chunk]), width))
        w = stack[0]
        w.fill(-np.inf)
        for i, (x, (lo, hi)) in enumerate(zip(grid[chunk], windows[chunk])):
            w[i, : hi - lo + 1] = log_weights(n, x, lo, hi)
            for power, row in zip(powers, stack[1:, i]):
                row[: hi - lo + 1] = power[lo : hi + 1]
        np.exp(w, out=w)
        stack[1:] *= w
        sums[:, chunk] = exact_sum(stack.reshape(-1, width)).reshape(len(stack), -1)
    return sums
