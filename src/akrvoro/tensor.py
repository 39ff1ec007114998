"""The function type and the operator on [0, 1] and on the unit square.

``apply`` applies the same one-dimensional rule of order j in each
coordinate (j = 1 is Bernstein, j >= 2 the modified-node operator): f is
sampled on the nodes of the weights' support window in each axis and
contracted against the windowed weight vectors.  The nodes are built only
on the hull of the axes' windows.  On [0, 1] that is one compensated dot
product.  On the square the general path streams the value grid in row
blocks through a compensated bilinear reduction (k outer, l inner, both
ascending); functions declared separable take an exact product fast path
of one-dimensional sums.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._kernels import (
    CACHE_BLOCK_ELEMENTS,
    bilinear_accumulate,
    check_degree,
    comp_dot,
    log_weights,
    support,
)
from .akr import _check_order, node_values
from .basis import eval_on
from .errors import DomainError

__all__ = [
    "SupBounds",
    "Function",
    "apply",
]

# Grid values per block handed to the bilinear reduction.  It binds only
# when both windows hold 2048 nodes or more, from n of about 45000 away
# from the edges.  BLAS row sums depend on a block's row count, so the
# grid's values are tiled inside eval_grid_block instead.
_BLOCK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SupBounds:
    """Sup norms of the three second partials on the square."""

    fxx: float
    fxy: float
    fyy: float

    def taylor_constant(self):
        """fxx + 2 fxy + fyy, the constant in the first-order remainder bound."""
        return self.fxx + 2.0 * self.fxy + self.fyy


@dataclass(frozen=True)
class Function:
    """A real function on [0, 1]^d with optional exact partials.

    Every callable takes the d coordinates and must be elementwise over
    broadcast numpy arrays: a value depends only on its own coordinates.
    Operators evaluate them on whole node vectors and on grids in row tiles.
    ``grad[i]`` is the partial in coordinate i and ``hess[i][l]`` the second
    partial in coordinates i and l.  ``factors`` declares f(x_1, ..., x_d) =
    g_1(x_1) ... g_d(x_d), each g_i a Function of one coordinate; the
    operators of such an f are the products of the 1-d operator values.
    """

    eval: Callable
    grad: Optional[Tuple[Callable, ...]] = None
    hess: Optional[Tuple[Tuple[Callable, ...], ...]] = None
    sup_bounds: Optional[SupBounds] = None
    factors: Optional[Tuple["Function", ...]] = None

    # The benchmark's runge-2d reference test reads these two; they go when
    # the benchmark changes (ROADMAP item 4).  The package reads grad/hess.
    @property
    def fx(self):
        return self.grad[0]

    @property
    def fyy(self):
        return self.hess[1][1]


def eval_grid_block(func, s_nodes, t_nodes):
    """Evaluate func on the outer grid s_nodes x t_nodes as a float block.

    func is evaluated in tiles of whole rows of about CACHE_BLOCK_ELEMENTS
    values, so its temporaries stay cache-sized; an elementwise func gives
    the one-shot values bit for bit."""
    rows, cols = s_nodes.shape[0], t_nodes.shape[0]
    out = np.empty((rows, cols))
    step = max(1, CACHE_BLOCK_ELEMENTS // cols)
    t = t_nodes[None, :]
    for i in range(0, rows, step):
        out[i : i + step] = func(s_nodes[i : i + step, None], t)
    return out


def tensor_reduce(func, s_nodes, t_nodes, wx, wy):
    """sum_k sum_l func(s_k, t_l) wx[k] wy[l], blocked and compensated."""
    n1 = s_nodes.shape[0]
    state = np.zeros(2)
    step = max(1, _BLOCK_ELEMENTS // t_nodes.shape[0])
    for k0 in range(0, n1, step):
        k1 = min(n1, k0 + step)
        block = eval_grid_block(func, s_nodes[k0:k1], t_nodes)
        bilinear_accumulate(block, wx[k0:k1], wy, state)
    return state[0] + state[1]


def _axis_windows(n, coords):
    """The hull (lo, hi) of the support windows of the degree-n weights at
    these coordinates, and each axis's window as a slice of a node array
    over the hull, with the weights on it."""
    bounds = [support(n, x) for x in coords]
    lo = min(a for a, _ in bounds)
    hi = max(b for _, b in bounds)
    windows = tuple(
        (slice(a - lo, b - lo + 1), np.exp(log_weights(n, x, a, b)))
        for x, (a, b) in zip(coords, bounds)
    )
    return lo, hi, windows


def _window_apply(f, nodes, windows):
    """Operator of f on one node array shared by every axis, summed over the
    per-axis windows returned by ``_axis_windows``: a compensated dot on
    [0, 1]; on the square the product of the factors' sums when f declares
    them, else the blocked double sum."""
    if len(windows) == 1:
        ((s, w),) = windows
        return comp_dot(eval_on(f.eval, nodes[s]), w)
    if f.factors is not None:
        return math.prod(
            _window_apply(g, nodes, (window,)) for g, window in zip(f.factors, windows)
        )
    (sx, wx), (sy, wy) = windows
    return tensor_reduce(f.eval, nodes[sx], nodes[sy], wx, wy)


# The arities, d, of the points of [0, 1]^d that the operators take.
_ARITIES = (1, 2)


def _coords(point, arity=None):
    """The coordinates of a point of [0, 1]^d as a tuple of floats.

    The one point validator: a point is a sequence of d numbers, and a point
    of [0, 1] may also be a bare number.  d is ``arity``, or any of _ARITIES
    when that is None.  A point of another shape, a non-numeric coordinate
    or one outside [0, 1] is a DomainError.
    """
    try:
        coords = tuple(map(float, (point,) if np.ndim(point) == 0 else point))
    except (TypeError, ValueError):
        coords = None
    if coords is None or len(coords) not in ((arity,) if arity else _ARITIES):
        count = arity or " or ".join(map(str, _ARITIES))
        msg = f"point must have {count} numeric coordinate(s), got {point!r}"
        raise DomainError(msg)
    if not all(0.0 <= x <= 1.0 for x in coords):
        d = len(coords)
        cube = "[0, 1]" if d == 1 else f"[0, 1]^{d}"
        raise DomainError(f"point must lie in {cube}, got {point}")
    return coords


def _apply(f, n, j, coords):
    """Operator of order j of f at the point with these coordinates; one node
    array over the hull of the axes' windows serves every axis."""
    lo, hi, windows = _axis_windows(n, coords)
    return _window_apply(f, node_values(n, j, lo, hi), windows)


def apply(f, n, j, point):
    """The degree-n operator of order j >= 1 of f at a point of [0, 1]^d.

    j = 1 is the Bernstein operator and j >= 2 the modified-node operator,
    applied in each coordinate; n must be at least j.  d is the point's
    arity: a bare number or one coordinate is a point of [0, 1], two are a
    point of the square.  f must take d coordinates.
    """
    j = _check_order(j, 1)
    return _apply(f, check_degree(n, j), j, _coords(point))
