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

Inside ``memo_scope`` the weight windows, node tables and operator values
computed are kept until the outermost scope exits, so one acceptance run
computes each (n, x) window, each (n, j) table on a hull and each (f, n, j,
point) value once.  Outside a scope nothing is kept.
"""

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple

import numpy as np

from ._kernels import (
    CACHE_BLOCK_ELEMENTS, _finite_nonnegative, bilinear_accumulate, check_degree,
    check_order, check_point, comp_dot, log_weights, small_ufunc_buffer, support,
)
from .akr import build_node_table
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

# The memo of the open scope, None outside one: ("w", n, x) -> the
# read-only weights on the support window at x, ("nodes", n, j, lo, hi) ->
# the read-only nodes of order j at k = lo..hi, and ("op", id(f), n, j,
# coords) -> (f, value), which holds f so that its id is not reused.
_MEMO = contextvars.ContextVar("akrvoro_tensor_memo", default=None)


@contextlib.contextmanager
def memo_scope():
    """Keep weight windows, node tables and operator values until the
    outermost scope exits, on error too; a scope opened inside another
    shares its memo."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


@dataclass(frozen=True)
class SupBounds:
    """Sup norms of the second partials on [0, 1]^d: ``hess[i][l]`` is
    sup|f_il|, a symmetric d x d table indexed like ``Function.hess``.  A
    table that is not d rows of d for some d >= 1, an entry that is not a
    finite number >= 0, or one that differs from its mirror entry, is a
    DomainError."""

    hess: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        h = self.hess
        if len(h) == 0:
            raise DomainError("sup bounds must be d rows of d for some d >= 1, got none")
        rows = tuple(len(row) for row in h)
        if any(r != len(h) for r in rows):
            raise DomainError(f"sup bounds must be d rows of d, got rows of lengths {rows}")
        # a nan or inf bound passes every |G| <= bound check and a negative
        # one fails it
        bad = [b for row in h for b in row if not _finite_nonnegative(b)]
        if bad:
            raise DomainError(f"sup bounds must be finite and >= 0, got {bad[0]!r}")
        # taylor_constant reads the upper triangle only
        for i, row in enumerate(h):
            for l in range(i + 1, len(h)):
                if row[l] != h[l][i]:
                    raise DomainError(
                        f"sup bounds must be symmetric, got hess[{i}][{l}] = "
                        f"{row[l]!r} and hess[{l}][{i}] = {h[l][i]!r}"
                    )

    def taylor_constant(self):
        """C = sum_il hess[i][l], the constant in the first-order remainder
        bound |G| <= C/(2n).

        Taylor's theorem at u with s - u = xi leaves f(s) - f(u) - sum_i
        f_i(u) xi_i = sum_il f_il(z) xi_i xi_l / 2 for a z between them, so
        with |xi_i| <= 1/n it is at most C/(2n^2); G is n times a sum of
        such terms against weights summing to 1.  Summed over the upper
        triangle in row order, off-diagonal entries doubled: on the square
        hess[0][0] + 2 hess[0][1] + hess[1][1]."""
        h = self.hess
        return sum((h[i][l] if i == l else 2.0 * h[i][l]) for i in range(len(h))
                   for l in range(i, len(h)))


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

    ``arity`` is d, read from the tables f declares: ``grad`` and
    ``factors`` have d entries, ``hess`` and ``sup_bounds.hess`` d rows of
    d.  It is None when f declares none, and such an f takes a point of any
    arity.  An empty table, tables of different lengths, or a factor of an
    arity other than 1, are a DomainError.
    """

    eval: Callable
    grad: Optional[Tuple[Callable, ...]] = None
    hess: Optional[Tuple[Tuple[Callable, ...], ...]] = None
    sup_bounds: Optional[SupBounds] = None
    factors: Optional[Tuple["Function", ...]] = None
    arity: Optional[int] = field(init=False)

    def __post_init__(self):
        bounds = self.sup_bounds and self.sup_bounds.hess
        tables = (("grad", self.grad), ("hess", self.hess), ("factors", self.factors),
                  ("sup bounds", bounds))
        sizes = {name: len(t) for name, t in tables if t is not None}
        empty = [name for name, size in sizes.items() if size == 0]
        if empty:
            raise DomainError(f"f's {empty[0]} table is empty; d must be at least 1")
        sizes.update((f"hess[{i}]", len(row)) for i, row in enumerate(self.hess or ()))
        if len(set(sizes.values())) > 1:
            raise DomainError(
                f"f's tables must agree on its arity d (d entries, or d rows of d), got {sizes}"
            )
        arities = [g.arity for g in self.factors or ()]
        if any(a != 1 for a in arities):
            raise DomainError(f"factors must each have arity 1, got {arities}")
        object.__setattr__(self, "arity", next(iter(sizes.values()), None))

    # The benchmark's runge-2d reference test reads these two; they go when
    # the benchmark changes (ROADMAP item 4).  The package reads grad/hess.
    @property
    def fx(self):
        return self.grad[0]

    @property
    def fyy(self):
        return self.hess[1][1]


def _check_arity(f, d):
    """Refuse with DomainError an f that is not a Function, or one of another
    arity than d, the point's; an f that declares no table takes any
    point."""
    if not isinstance(f, Function):
        raise DomainError(f"f must be a Function, got {type(f).__name__}")
    if f.arity not in (None, d):
        raise DomainError(f"f has arity {f.arity}, but the point has {d} coordinate(s)")


def eval_grid_block(func, s_nodes, t_nodes):
    """Evaluate func on the outer grid s_nodes x t_nodes as a float block.

    func is evaluated in tiles of whole rows of about CACHE_BLOCK_ELEMENTS
    values, so its temporaries stay cache-sized, under a small ufunc buffer;
    an elementwise func gives the one-shot values bit for bit."""
    rows, cols = s_nodes.shape[0], t_nodes.shape[0]
    out = np.empty((rows, cols))
    step = max(1, CACHE_BLOCK_ELEMENTS // cols)
    t = t_nodes[None, :]
    with small_ufunc_buffer():
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
    return float(state[0] + state[1])


def _kept(key, make):
    """make(), kept read-only under key in the open memo when there is one."""
    memo = _MEMO.get()
    if memo is None:
        return make()
    if key not in memo:
        value = make()
        value.flags.writeable = False
        memo[key] = value
    return memo[key]


def _window_weights(n, x, lo, hi):
    """The degree-n weights at x on their support window lo..hi, taken from
    the open memo, read-only, when there is one."""
    return _kept(("w", n, x), lambda: np.exp(log_weights(n, x, lo, hi)))


def _window_nodes(n, j, lo, hi):
    """The degree-n nodes of order j at k = lo..hi (read-only), taken from
    the open memo when there is one."""
    return _kept(("nodes", n, j, lo, hi), lambda: build_node_table(n, j, lo, hi))


def _axis_windows(n, coords):
    """The hull (lo, hi) of the support windows of the degree-n weights at
    these coordinates, and each axis's window as a slice of a node array
    over the hull, with the weights on it."""
    bounds = [support(n, x) for x in coords]
    lo = min(a for a, _ in bounds)
    hi = max(b for _, b in bounds)
    windows = tuple(
        (slice(a - lo, b - lo + 1), _window_weights(n, x, a, b))
        for x, (a, b) in zip(coords, bounds)
    )
    return lo, hi, windows


def _window_apply(f, nodes, windows):
    """Operator of f on one node array shared by every axis, summed over the
    per-axis windows returned by ``_axis_windows``: a compensated dot on
    [0, 1]; on the square the product of the factors' sums when f declares
    them, else the blocked double sum.  f's arity is the caller's check."""
    if len(windows) == 1:
        ((s, w),) = windows
        return comp_dot(eval_on(f.eval, nodes[s]), w)
    if f.factors is not None:
        return math.prod(
            _window_apply(g, nodes, (window,)) for g, window in zip(f.factors, windows)
        )
    (sx, wx), (sy, wy) = windows
    return tensor_reduce(f.eval, nodes[sx], nodes[sy], wx, wy)


def _apply(f, n, j, coords):
    """Operator of order j of f at the point with these coordinates; one node
    array over the hull of the axes' windows serves every axis.  An f of
    another arity is refused before any weight is computed.  In an open
    memo the value is kept by f's identity, so f need not be hashable."""
    _check_arity(f, len(coords))
    memo = _MEMO.get()
    key = ("op", id(f), n, j, coords)
    if memo is not None and key in memo:
        return memo[key][1]
    lo, hi, windows = _axis_windows(n, coords)
    value = _window_apply(f, _window_nodes(n, j, lo, hi), windows)
    if memo is not None:
        memo[key] = (f, value)
    return value


def apply(f, n, j, point):
    """The degree-n operator of order j >= 1 of f at a point of [0, 1]^d.

    j = 1 is the Bernstein operator and j >= 2 the modified-node operator,
    applied in each coordinate; n must be at least j.  d is the point's
    arity: a bare number or one coordinate is a point of [0, 1], two are a
    point of the square.  f's arity must be d, or None.
    """
    j = check_order(j)
    return _apply(f, check_degree(n, j), j, check_point(point))
