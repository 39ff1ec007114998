"""Tensor-product operators on the unit square.

Both operators apply the same one-dimensional rule in each coordinate:
f is sampled on the node grid restricted to the weights' support window in
each axis and contracted against the two windowed weight vectors.  The
general path streams the value grid in row blocks through a compensated
bilinear reduction (k outer, l inner, both ascending); functions declared
separable take an exact product fast path of two one-dimensional sums.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._kernels import bilinear_accumulate, comp_dot, log_weights, support
from .akr import _check_nj, build_node_table
from .basis import Function1D, eval_on
from .errors import DomainError

__all__ = [
    "SquarePoint",
    "SupBounds",
    "Function2D",
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


def _axis_window(n, x):
    """Support window of the degree-n weights at x, as a slice of a node
    table, and the weights on it."""
    lo, hi = support(n, x)
    return slice(lo, hi + 1), np.exp(log_weights(n, x, lo, hi))


def _window_apply(f, nodes, x_window, y_window, use_separability=True):
    """Tensor operator of f on one node table shared by both axes, summed
    over the per-axis windows returned by ``_axis_window``."""
    (sx, wx), (sy, wy) = x_window, y_window
    if use_separability and f.factors is not None:
        g, h = f.factors
        return comp_dot(eval_on(g.eval, nodes[sx]), wx) * comp_dot(
            eval_on(h.eval, nodes[sy]), wy
        )
    return tensor_reduce(f.eval, nodes[sx], nodes[sy], wx, wy)


def tensor_bernstein_apply(f, n, p, *, use_separability=True):
    """Tensor-product Bernstein operator of f at p, degree n in each axis."""
    n = int(n)
    if n < 1:
        raise DomainError(f"degree must be >= 1, got {n}")
    p = as_point(p)
    nodes = np.arange(n + 1, dtype=np.float64) / n
    return _window_apply(
        f, nodes, _axis_window(n, p.x), _axis_window(n, p.y), use_separability
    )


def tensor_akr_apply(f, n, j, p, *, use_separability=True):
    """Tensor-product modified-node operator of f at p; one shared node
    table serves both axes."""
    n, j = _check_nj(n, j)
    p = as_point(p)
    nodes = build_node_table(n, j).nodes
    return _window_apply(
        f, nodes, _axis_window(n, p.x), _axis_window(n, p.y), use_separability
    )
