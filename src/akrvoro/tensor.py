"""Operators on [0, 1] and on the unit square.

Every operator applies the same one-dimensional rule of order j in each
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

from ._kernels import bilinear_accumulate, check_degree, comp_dot, log_weights, support
from .akr import _check_nj, node_values
from .basis import Function1D, _check_x, eval_on
from .errors import DomainError

__all__ = [
    "SquarePoint",
    "SupBounds",
    "Function2D",
    "bernstein_apply",
    "akr_apply",
    "tensor_bernstein_apply",
    "tensor_akr_apply",
]

# rows per evaluation block; keeps peak memory ~33 MB at n = 8192
_BLOCK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class SquarePoint:
    """A point of the closed unit square."""

    x: float
    y: float

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise DomainError(
                f"point must lie in the closed unit square, got ({self.x}, {self.y})"
            )


def as_point(p):
    """Coerce a SquarePoint or (x, y) pair into a SquarePoint."""
    if isinstance(p, SquarePoint):
        return p
    x, y = p
    return SquarePoint(float(x), float(y))


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
class Function2D:
    """A real function on [0,1]^2 with optional exact partials.

    All callables must broadcast over numpy arrays.  ``factors`` declares
    f(s,t) = g(s) h(t); when present, tensor operators may use the product
    of the 1-d operator values instead of the double sum.
    """

    eval: Callable
    fx: Optional[Callable] = None
    fy: Optional[Callable] = None
    fxx: Optional[Callable] = None
    fxy: Optional[Callable] = None
    fyy: Optional[Callable] = None
    sup_bounds: Optional[SupBounds] = None
    factors: Optional[Tuple[Function1D, Function1D]] = None


def eval_grid_block(func, s_nodes, t_nodes):
    """Evaluate func on the outer grid s_nodes x t_nodes as a float block."""
    out = np.asarray(func(s_nodes[:, None], t_nodes[None, :]), dtype=np.float64)
    shape = (s_nodes.shape[0], t_nodes.shape[0])
    if out.shape != shape:
        out = np.broadcast_to(out, shape)
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


def _window_apply(f, nodes, windows, use_separability=True):
    """Operator of f on one node array shared by every axis, summed over the
    per-axis windows returned by ``_axis_windows``: a compensated dot on
    [0, 1]; on the square the product of the factors' sums when f declares
    them, else the blocked double sum."""
    if len(windows) == 1:
        ((s, w),) = windows
        return comp_dot(eval_on(f.eval, nodes[s]), w)
    if use_separability and f.factors is not None:
        return math.prod(
            _window_apply(g, nodes, (window,)) for g, window in zip(f.factors, windows)
        )
    (sx, wx), (sy, wy) = windows
    return tensor_reduce(f.eval, nodes[sx], nodes[sy], wx, wy)


def _coords(point, arity):
    """The coordinates of a point of [0, 1] (arity 1) or of the square."""
    if arity == 1:
        return (_check_x(point),)
    p = as_point(point)
    return (p.x, p.y)


def _apply(f, n, j, coords, use_separability=True):
    """Operator of order j of f at the point with these coordinates; one node
    array over the hull of the axes' windows serves every axis."""
    lo, hi, windows = _axis_windows(n, coords)
    return _window_apply(f, node_values(n, j, lo, hi), windows, use_separability)


def bernstein_apply(f, n, x):
    """Evaluate the degree-n Bernstein operator of f at x (order 1)."""
    return _apply(f, check_degree(n), 1, _coords(x, 1))


def akr_apply(f, n, j, x):
    """Evaluate the modified-node operator of order j >= 2 of f at x."""
    n, j = _check_nj(n, j)
    return _apply(f, n, j, _coords(x, 1))


def tensor_bernstein_apply(f, n, p, *, use_separability=True):
    """Tensor-product Bernstein operator of f at p, degree n in each axis."""
    return _apply(f, check_degree(n), 1, _coords(p, 2), use_separability)


def tensor_akr_apply(f, n, j, p, *, use_separability=True):
    """Tensor-product modified-node operator of order j >= 2 of f at p."""
    n, j = _check_nj(n, j)
    return _apply(f, n, j, _coords(p, 2), use_separability)
