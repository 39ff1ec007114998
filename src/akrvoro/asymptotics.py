"""First-order asymptotics of the operators.

Provides the scaled residual series n*(Op_n f - f) along a degree-doubling
schedule, the limiting differential expression those series approach (one
formula for every order j on [0, 1] and on the square), the
exact first-order drift decomposition of the difference between the
modified-node and classical tensor operators, and an empirical rate/limit
extrapolator for the series.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from ._kernels import (
    ARITIES, _shown, check_degree, check_order, check_point, check_positive,
    check_schedule, comp_dot, log_weights, support,
)
from .akr import node_values, remainder
from .errors import CapabilityError, DomainError
from .tensor import _apply, _axis_windows, _window_apply, tensor_reduce

__all__ = [
    "SERIES_KINDS",
    "KINDS",
    "SeriesKind",
    "ConvergenceSeries",
    "ExtrapolationResult",
    "Decomposition",
    "lemma_sum",
    "limit",
    "decomposition",
    "residual_series",
    "rate_estimates",
    "extrapolate",
]


# --------------------------------------------------------------------------
# Series and result containers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceSeries:
    """Scaled residual values along a strictly doubling degree schedule, at
    the point with coordinates ``point``."""

    entries: Tuple[Tuple[int, float], ...]
    operator_kind: str
    point: Tuple[float, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise DomainError("series must contain at least one entry")
        ns = [n for n, _ in self.entries]
        for prev, cur in zip(ns, ns[1:]):
            if cur != 2 * prev:
                raise DomainError(f"degrees must double: {prev} -> {cur}")
        if not all(math.isfinite(v) for _, v in self.entries):
            raise DomainError("series values must be finite")

    @property
    def ns(self):
        return np.array([n for n, _ in self.entries], dtype=np.int64)

    @property
    def values(self):
        return np.array([v for _, v in self.entries])


@dataclass(frozen=True)
class ExtrapolationResult:
    """Estimated limit of a series, with an empirical rate when available.

    ``rate_estimate`` is the exponent p in a_n ~ L + c n^(-p), or None when
    no admissible decreasing difference pair exists (constant or non-monotone
    tails); in that case ``limit_estimate`` is the last series value.
    """

    limit_estimate: float
    rate_estimate: Optional[float]
    residual_tail: float
    monotone_tail: bool


@dataclass(frozen=True)
class Decomposition:
    """Exact split of n*(modified - classical) tensor operator values.

    ``e_term``/``f_term`` are the first-order node-drift terms in x and y;
    ``g_residual`` is defined as total - e_term - f_term, which realizes the
    Taylor remainder without constructing its intermediate points.
    """

    e_term: float
    f_term: float
    g_residual: float
    total: float


# --------------------------------------------------------------------------
# Limit expressions
# --------------------------------------------------------------------------

_EPS = float(np.finfo(np.float64).eps)


def lemma_sum(n, x):
    """n * sum_{k>=1} p(n,k,x) remainder(n,k); non-negative, vanishing in n."""
    n = check_degree(n, 2)
    (x,) = check_positive(check_point(x, 1))
    lo, hi = support(n, x)
    lo = max(lo, 1)
    w = np.exp(log_weights(n, x, lo, hi))
    return n * comp_dot(w, remainder(n, np.arange(lo, hi + 1)))


def _partials(f, d, order, needed_by="the limit"):
    """The exact pure partials of f of this order on [0, 1]^d, one callable
    per axis: ``grad[i]``, or the diagonal ``hess[i][i]``.  A DomainError
    when f has partials in another number of coordinates."""
    table = f.grad if order == 1 else f.hess
    kind = "first" if order == 1 else "second"
    if table is not None and len(table) != d:
        raise DomainError(
            f"{needed_by} at a point of {d} coordinates needs {kind} partials "
            f"in each; f has them in {len(table)}"
        )
    if table is None:
        fns = None
    else:
        fns = [table[i] if order == 1 else table[i][i] for i in range(d)]
    if fns is None or any(fn is None for fn in fns):
        raise CapabilityError(f"{needed_by} requires exact {kind} partials")
    return fns


def _limit(f, coords, j, diffusion=True):
    """sum_i x_i(1-x_i)/2 f_ii - sum_i (j-1)(1-x_i)/2 f_i at the point coords.

    The first-order limit of n (Op_n f - f) for the order-j operator on
    [0, 1]^d, d = len(coords): the nodes t(n,k,j) = k/n - (j-1)(1-k/n)/(2n)
    + O(n^-2) add the drift terms to the Bernstein (j = 1) diffusion terms.
    Without ``diffusion`` it is the limit of n (A_n f - B_n f).  The terms
    are summed left to right, diffusion first, each in axis order.  Order
    j >= 2 needs strictly positive coordinates.
    """
    if j != 1:
        check_positive(coords)
    terms = []
    if diffusion:
        second = [float(fn(*coords)) for fn in _partials(f, len(coords), 2)]
        terms += [0.5 * x * (1.0 - x) * fii for x, fii in zip(coords, second)]
    if j != 1:
        first = [float(fn(*coords)) for fn in _partials(f, len(coords), 1)]
        terms += [-(0.5 * (j - 1) * (1.0 - x) * fi) for x, fi in zip(coords, first)]
    # 0.0 + t is t for every nonzero t; with no terms (the drift at j = 1)
    # the limit is exactly 0
    value = 0.0
    for term in terms:
        value += term
    # Each term carries a relative error of a few eps/2 (its partial and up
    # to four roundings), and the left-to-right sum adds at most
    # (len(terms) - 1) eps/2 of sum|terms|.  A value within 16 eps sum|terms|
    # is what an exact cancellation leaves, as for e_j at order j, whose
    # limit is 0: in double precision it cannot be told from 0.
    if abs(value) <= 16.0 * _EPS * sum(abs(t) for t in terms):
        return 0.0
    return value


def limit(f, point, j):
    """The limit of n (Op_n f - f) for the order-j operator ``tensor.apply``
    at a point of [0, 1]^d: x(1-x)/2 f'' - (j-1)(1-x)/2 f' on [0, 1] (the
    classical x(1-x)/2 f'' at j = 1), summed over the axes on the square.
    The point's arity is d, as for ``apply``."""
    return _limit(f, check_point(point), check_order(j, 1))


# --------------------------------------------------------------------------
# Drift decomposition
# --------------------------------------------------------------------------


def decomposition(f, n, p):
    """Split n*(modified - classical) at p into drift terms and remainder.

    e_term weights the x drift (node minus k/n) against fx sampled at the
    uniform grid, f_term does the same in y, and g_residual is the exact
    difference total - e_term - f_term.  Requires exact first partials.
    """
    n = check_degree(n, 2)
    coords = check_point(p, 2)
    fx, fy = _partials(f, 2, 1, "decomposition")
    lo, hi, windows = _axis_windows(n, coords)
    uniform = node_values(n, 1, lo, hi)
    nodes = node_values(n, 2, lo, hi)
    drift = nodes - uniform
    (sx, wx), (sy, wy) = windows
    e_term = n * tensor_reduce(fx, uniform[sx], uniform[sy], wx * drift[sx], wy)
    f_term = n * tensor_reduce(fy, uniform[sx], uniform[sy], wx, wy * drift[sy])
    total = n * (
        _window_apply(f, nodes, windows) - _window_apply(f, uniform, windows)
    )
    return Decomposition(
        e_term=e_term,
        f_term=f_term,
        g_residual=total - e_term - f_term,
        total=total,
    )


# --------------------------------------------------------------------------
# Residual series and extrapolation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesKind:
    """How one kind of scaled series is computed and what it converges to.

    A kind of ``order`` 1 (Bernstein) runs at j = 1 whatever j is asked
    for.  A kind of order None runs at the order j >= 2 asked for: j is its
    least n0 and its point must have strictly positive coordinates.  At the
    order j it runs at, ``value(f, n, j, coords)`` is the series at degree n
    and ``target(f, coords, j)`` its limit, at the point with these
    ``arity`` coordinates.  ``uses_f`` is False for a series that does not
    depend on f.
    """

    arity: int
    order: Optional[int]
    value: Callable
    target: Callable
    uses_f: bool = True

    def limit(self, f, point, j):
        """The series' limit at any point that ``check_point`` accepts at
        this kind's arity, when it is asked for order j."""
        return self.target(f, check_point(point, self.arity), self.order or j)


def _operator_value(f, n, j, coords):
    return n * (_apply(f, n, j, coords) - float(f.eval(*coords)))


def _drift_value(f, n, j, coords):
    return n * (_apply(f, n, j, coords) - _apply(f, n, 1, coords))


def _lemma_value(f, n, j, coords):
    if j != 2:
        raise DomainError("the remainder sum is defined for j = 2 only")
    return lemma_sum(n, *coords)


# The operator series n (Op_n f - f) of each order (1, or j) and arity,
# then the difference of the two operators and the remainder sum.
KINDS = {
    **{
        f"{name}-{arity}d": SeriesKind(arity, order, _operator_value, _limit)
        for arity in ARITIES
        for name, order in (("bernstein", 1), ("akr", None))
    },
    "akr-minus-bernstein-2d": SeriesKind(
        2,
        None,
        _drift_value,
        lambda f, coords, j: _limit(f, coords, j, diffusion=False),
    ),
    "lemma-sum": SeriesKind(
        1, None, _lemma_value, lambda f, coords, j: 0.0, uses_f=False
    ),
}

SERIES_KINDS = tuple(KINDS)


def residual_series(kind, f, point, n0=64, doublings=7, j=2):
    """Scaled residuals at degrees n0, 2 n0, ..., n0 * 2^doublings.

    ``f`` is a Function of the kind's arity and is ignored for kind
    'lemma-sum'.  ``point`` is a sequence of that many coordinates, or a
    bare number for a kind on [0, 1]; the series carries it as a tuple.  j
    must be >= 2; a kind of order None runs at j and needs strictly positive
    coordinates and n0 of at least j; every kind needs n0 of at least 2 and
    3 entries, doublings >= 2.  The whole schedule is checked against
    MAX_DEGREE before any operator runs.
    """
    if kind not in KINDS:
        raise DomainError(
            f"unknown series kind {kind!r}; expected one of {', '.join(SERIES_KINDS)}"
        )
    spec = KINDS[kind]
    j = check_order(j)
    order = spec.order or j
    ns = check_schedule(n0, doublings, max(2, order))
    _check_entries(len(ns), 3, "residual_series")

    coords = check_point(point, spec.arity)
    if spec.order is None:
        check_positive(coords)

    entries = tuple((n, float(spec.value(f, n, order, coords))) for n in ns)
    return ConvergenceSeries(entries=entries, operator_kind=kind, point=coords)


def _check_entries(entries, least=4, needed_by="extrapolation"):
    """Refuse with DomainError a doubling schedule of fewer than ``least``
    entries, which ``needed_by`` needs; by default the 4 of ``extrapolate``,
    whose tail check reads the last three differences."""
    if entries < least:
        raise DomainError(
            f"{needed_by} needs at least {least} series entries "
            f"(doublings >= {least - 1}), got {_shown(entries)}"
        )


def rate_estimates(values):
    """Empirical rate exponent at each entry of a doubling-schedule series.

    With d_i = values[i] - values[i-1], entry i >= 2 gets
    log2(|d_{i-1} / d_i|) when the two differences share a sign and shrink,
    and None otherwise; entries 0 and 1 get None.
    """
    d = np.diff(values)
    rates = [None] * min(2, len(values))
    for i in range(1, d.shape[0]):
        if d[i - 1] * d[i] > 0.0 and abs(d[i - 1]) > abs(d[i]):
            rates.append(math.log2(abs(d[i - 1] / d[i])))
        else:
            rates.append(None)
    return rates


def extrapolate(series):
    """Estimate the limit of a doubling-schedule series.

    The rate exponent is log2 of the ratio of successive differences,
    averaged over the last (up to three) admissible triples; the limit is
    one Richardson step from the final pair.  With no admissible triple the
    last value is reported unrefined.
    """
    values = series.values
    _check_entries(values.shape[0])
    rates = [r for r in rate_estimates(values) if r is not None]
    d = np.diff(values)
    tail = d[-3:]
    monotone = bool(np.all(tail >= 0.0) or np.all(tail <= 0.0))
    residual_tail = float(abs(d[-1]))
    if rates:
        rate = float(np.mean(rates[-3:]))
        limit = float(values[-1] + (values[-1] - values[-2]) / (2.0**rate - 1.0))
    else:
        rate = None
        limit = float(values[-1])
    return ExtrapolationResult(
        limit_estimate=limit,
        rate_estimate=rate,
        residual_tail=residual_tail,
        monotone_tail=monotone,
    )
