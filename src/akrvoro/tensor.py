"""The function type and the operator on [0, 1] and on the unit square.

``apply`` applies the same one-dimensional rule of order j in each
coordinate (j = 1 is Bernstein, j >= 2 the modified-node operator): f is
sampled on the nodes of the weights' support window in each axis and
contracted against the windowed weight vectors.  Each axis reads its own
window of nodes and weights.  On [0, 1] that is one compensated dot
product.  On the square the body streams the value grid in row blocks
through a compensated bilinear reduction (k outer, l inner, both
ascending); a function declared separable is the exact product of its
factors' one-dimensional operator values.

Inside ``memo_scope`` the weight windows, node tables and operator values
computed are kept until the outermost scope exits, so one acceptance run
computes each (n, x) weight window, each (n, j) node table on an axis's
window and each (f, n, j, point) value once.  Outside a scope nothing is
kept.
"""

import contextlib
import contextvars
import math
from collections.abc import Sequence
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
# read-only weights on the support window lo..hi at x, ("nodes", n, j, lo,
# hi) -> the read-only nodes of order j on that window, and ("op", id(f),
# n, j, coords) -> (f, value), which holds f so that its id is not reused.
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


def _length(name, t, entry=None, rule=""):
    """The length of the table or row t that f or its sup bounds declare,
    refused with DomainError unless t is a sequence other than a str and,
    given a test ``entry``, unless each of its entries passes it: an entry
    that fails is refused by ``rule``, the entry appended."""
    if isinstance(t, str) or not isinstance(t, Sequence):
        raise DomainError(f"{name} must be a sequence, got {type(t).__name__}")
    for x in t if entry else ():
        if not entry(x):
            raise DomainError(f"{rule}, got {x!r}")
    return len(t)


@dataclass(frozen=True)
class SupBounds:
    """Sup norms of the second partials on [0, 1]^d: ``hess[i][l]`` is
    sup|f_il|, a symmetric d x d table, mixed partials included.  A
    table that is not d rows of d for some d >= 1 (a str is no table), an
    entry that is not a finite number >= 0, or one that differs from its
    mirror entry, is a DomainError."""

    hess: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        h = self.hess
        if _length("sup bounds", h) == 0:
            raise DomainError("sup bounds must be d rows of d for some d >= 1, got none")
        # a nan or inf bound passes every |G| <= bound check and a negative
        # one fails it
        rows = tuple(_length(f"sup bounds hess[{i}]", row, _finite_nonnegative,
                             "sup bounds must be finite and >= 0") for i, row in enumerate(h))
        if any(r != len(h) for r in rows):
            raise DomainError(f"sup bounds must be d rows of d, got rows of lengths {rows}")
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
    ``partials[i]`` holds the pure partials of f in coordinate i, lowest
    order first: ``partials[i][0]`` is df/dx_i and ``partials[i][1]`` is
    d^2f/dx_i^2.  A partial that is None, or past the end of its row, is
    missing; rows may differ in length.  ``factors`` declares f(x_1, ...,
    x_d) = g_1(x_1) ... g_d(x_d), each g_i a Function of one coordinate;
    the operators of such an f are the products of the 1-d operator values.

    ``arity`` is d, read from the tables f declares: ``partials`` and
    ``factors`` have d entries, ``sup_bounds.hess`` d rows of d.  It is None
    when f declares none, and such an f takes a point of any arity.  A table
    or a row of ``partials`` that is not a sequence (a str is none), an
    empty table, tables of different lengths, a partial that is neither
    callable nor None, a factor that is not a Function of arity 1, or
    ``sup_bounds`` that are not a SupBounds, are a DomainError.
    """

    eval: Callable
    partials: Optional[Tuple[Tuple[Optional[Callable], ...], ...]] = None
    sup_bounds: Optional[SupBounds] = None
    factors: Optional[Tuple["Function", ...]] = None
    arity: Optional[int] = field(init=False)

    def __post_init__(self):
        if not isinstance(self.sup_bounds, (SupBounds, type(None))):
            raise DomainError(f"f's sup bounds must be a SupBounds, got {self.sup_bounds!r}")
        bounds = self.sup_bounds and self.sup_bounds.hess
        tables = (("partials", self.partials), ("factors", self.factors), ("sup bounds", bounds))
        sizes = {name: _length(f"f's {name}", t) for name, t in tables if t is not None}
        for i, row in enumerate(self.partials or ()):
            _length(f"f's partials[{i}]", row, lambda p: p is None or callable(p),
                    "f's partials must be callables or None")
        _length("f's factors", self.factors or (), lambda g: isinstance(g, Function),
                "f's factors must be Functions")
        empty = [name for name, size in sizes.items() if size == 0]
        if empty:
            raise DomainError(f"f's {empty[0]} table is empty; d must be at least 1")
        if len(set(sizes.values())) > 1:
            raise DomainError(
                f"f's tables must agree on its arity d (d entries, or d rows of d), got {sizes}"
            )
        arities = [g.arity for g in self.factors or ()]
        if any(a != 1 for a in arities):
            raise DomainError(f"factors must each have arity 1, got {arities}")
        object.__setattr__(self, "arity", next(iter(sizes.values()), None))

    # The benchmark's runge-2d reference test reads these two; they go when
    # the benchmark changes (ROADMAP item 4).  The package reads partials.
    @property
    def fx(self):
        return self.partials[0][0]

    @property
    def fyy(self):
        return self.partials[1][1]


def _check_arity(f, d):
    """Refuse with DomainError an f that is not a Function, one of another
    arity than d, the point's, or one whose eval is a numpy ufunc of other
    than d inputs (a unary ufunc would take the second coordinate as its
    output); an f that declares no table takes any point."""
    if not isinstance(f, Function):
        raise DomainError(f"f must be a Function, got {type(f).__name__}")
    if f.arity not in (None, d):
        raise DomainError(f"f has arity {f.arity}, but the point has {d} coordinate(s)")
    nin = f.eval.nin if isinstance(f.eval, np.ufunc) else d
    if nin != d:
        raise DomainError(f"f's eval takes {nin} input(s), but the point has {d} coordinate(s)")


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


def _axis_windows(n, j, coords):
    """One (nodes, weights) pair per axis: the degree-n nodes of order j and
    the weights at that axis's coordinate, both on its own support window
    and taken from the open memo, read-only, when there is one."""
    windows = []
    for x in coords:
        lo, hi = support(n, x)
        windows.append((
            _kept(("nodes", n, j, lo, hi), lambda: build_node_table(n, j, lo, hi)),
            _kept(("w", n, x), lambda: np.exp(log_weights(n, x, lo, hi))),
        ))
    return windows


def _window_apply(fn, windows):
    """The operator body: the callable fn summed over the nodes of the
    (nodes, weights) pairs of ``_axis_windows`` against their weights, a
    compensated dot on [0, 1] and the blocked double sum on the square."""
    if len(windows) == 1:
        ((s, w),) = windows
        return comp_dot(eval_on(fn, s), w)
    (s, wx), (t, wy) = windows
    return tensor_reduce(fn, s, t, wx, wy)


def _apply(f, n, j, coords):
    """Operator of order j of f at the point with these coordinates.  An f
    that declares factors gets the product of its factors' 1-d operator
    values, each at its own coordinate; any other f one body call over its
    axes' windows.  An f of another arity is refused before any weight is
    computed.  In an open memo each value is kept by its function's
    identity, so f need not be hashable, and factors at equal coordinates
    share theirs."""
    _check_arity(f, len(coords))
    memo = _MEMO.get()
    key = ("op", id(f), n, j, coords)
    if memo is not None and key in memo:
        return memo[key][1]
    if f.factors is not None:
        value = math.prod(_apply(g, n, j, (x,)) for g, x in zip(f.factors, coords))
    else:
        value = _window_apply(f.eval, _axis_windows(n, j, coords))
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
