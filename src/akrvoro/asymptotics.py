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
from .akr import remainder
from .errors import CapabilityError, DomainError
from .tensor import _apply, _axis_windows, _check_arity, _window_apply, memo_scope

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
    the point with coordinates ``point``.  Each degree is held to
    ``check_degree``."""

    entries: Tuple[Tuple[int, float], ...]
    operator_kind: str
    point: Tuple[float, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise DomainError("series must contain at least one entry")
        ns = [check_degree(n) for n, _ in self.entries]
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
    ``g_bound`` bounds |g_residual|, or is None when f declares no sup
    bounds.
    """

    e_term: float
    f_term: float
    g_residual: float
    total: float
    g_bound: Optional[float]


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
    per axis: entry ``order - 1`` of each row of ``f.partials``.  An f of
    another arity than d is a DomainError, and a missing partial, None or
    past the end of its row, a CapabilityError."""
    _check_arity(f, d)
    fns = [row[order - 1] if order <= len(row) else None for row in f.partials or ()]
    if not fns or any(fn is None for fn in fns):
        kind = "first" if order == 1 else "second"
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
    terms, carried = [], 0.0
    if diffusion:
        second = [float(fn(*coords)) for fn in _partials(f, len(coords), 2)]
        terms += [0.5 * x * (1.0 - x) * fii for x, fii in zip(coords, second)]
        carried = sum(abs(fii) for fii in second)
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
    #   A rounding to a result below 2^-1022 may lose up to u = 2^-1075 more,
    # absolutely, which that bound does not see (at x = 1e-310 it is below
    # the least subnormal 2u).  In a diffusion term the losses of 0.5 x and
    # of its product with 1 - x are carried on by |f_ii|, the last product
    # loses u, and f_ii's own loss, at most 4u, is carried by x(1 - x)/2 <=
    # 1/8.  In a drift term 0.5 (j - 1)(1 - x) does not underflow, the last
    # product loses u, and f_i's own 4u are carried by (j - 1)/2 at most.  A
    # sum whose result is below 2^-1022 is exact.  So the losses come to at
    # most 2u (|f_ii| + j + 1) per axis.
    floor = math.ulp(0.0) * (carried + len(coords) * (j + 1))
    if abs(value) <= 16.0 * _EPS * sum(abs(t) for t in terms) + floor:
        return 0.0
    return value


def limit(f, point, j):
    """The limit of n (Op_n f - f) for the order-j operator ``tensor.apply``
    at a point of [0, 1]^d: x(1-x)/2 f'' - (j-1)(1-x)/2 f' on [0, 1] (the
    classical x(1-x)/2 f'' at j = 1), summed over the axes on the square.
    The point's arity is d, as for ``apply``."""
    return _limit(f, check_point(point), check_order(j))


# --------------------------------------------------------------------------
# Drift decomposition
# --------------------------------------------------------------------------


@memo_scope()
def decomposition(f, n, p):
    """Split n*(modified - classical) at p into drift terms and remainder.

    total is the ``akr-minus-bernstein-2d`` series entry at n, bit for bit:
    its two operator values go through ``tensor._apply``, so an open memo
    keeps them, and the scope opened here gives them the drift terms' weight
    windows and each axis's order-1 and order-2 node windows.

    e_term weights the x drift (node minus k/n) against the partial f_x
    sampled at the uniform grid, f_term does the same in y, and g_residual
    is the exact difference total - e_term - f_term.  Each drift term is
    the operator body ``tensor._window_apply`` applied to f_i on each
    axis's uniform nodes, axis i's weights times its drift.  Requires exact
    first partials.

    g_bound is the Taylor bound C/(2n) on |g_residual| plus a rounding
    allowance, or None when f declares no sup bounds.

    Taylor part.  G is n sum_kl w_k w_l (f(s) - f(u) - sum_i f_i(u)(s_i -
    u_i)) at the modified nodes s and the uniform ones u, and
    ``SupBounds.taylor_constant`` derives |G| <= C/(2n) from |s_i - u_i|
    <= 1/n.  At the computed nodes the drift is within 3u of 1/n (u =
    2^-53), and the weights of an axis sum to 1 within 1e-12, which
    multiplies the bound by at most 1 + 1e-9 for n <= MAX_DEGREE.

    Rounding part.  Taylor's theorem with the same sup bounds bounds f, and
    sum_i |f_i|, on [0, 1]^d by K = |f(p)| + sum_i |f_i(p)| + C.  Each of
    the 2 + d sums formed here (the two operators, and the d drift terms
    before their factor n) is a weighted sum over at most m nodes per axis,
    m = max_i hi_i - min_i lo_i + 1 the span of the axes' support windows
    lo_i..hi_i.  Its BLAS row sums are off by at most gamma_m ~ m u of the
    sum of |terms|, and the row products, the Kahan sum over rows, the drift
    weights and an evaluation of f or a partial to within a few ulp add at
    most 16 u more (the separable path's products of compensated dots add
    less).  The sum of |terms| is at most K for the operators and K/n for
    the drift terms together.  So n times the operators' difference is off
    by 2n (m + 16) u K, the drift terms by (m + 16) u K, and the
    subtractions that form the total and G add a few u K, within the 16:
    (2n + 1)(m + 16) u K in all.
    """
    n = check_degree(n, 2)
    coords = check_point(p, 2)
    grads = _partials(f, 2, 1, "decomposition")
    uniform = _axis_windows(n, 1, coords)
    modified = _axis_windows(n, 2, coords)
    e_term, f_term = (
        n * _window_apply(g, [
            (u, w * (t - u) if axis == i else w)
            for axis, ((u, w), (t, _)) in enumerate(zip(uniform, modified))
        ])
        for i, g in enumerate(grads)
    )
    total = _drift_value(f, n, 2, coords)
    bound = None
    if f.sup_bounds is not None:
        c = f.sup_bounds.taylor_constant()
        k = c + sum(abs(float(g(*coords))) for g in (f.eval, *grads))
        bounds = [support(n, x) for x in coords]
        m = max(b for _, b in bounds) - min(a for a, _ in bounds) + 1
        rounding = (2 * n + 1) * (m + 16) * (_EPS / 2.0) * k
        bound = (1.0 + 1e-9) * c / (2.0 * n) + rounding
    return Decomposition(
        e_term=e_term,
        f_term=f_term,
        g_residual=total - e_term - f_term,
        total=total,
        g_bound=bound,
    )


# --------------------------------------------------------------------------
# Residual series and extrapolation
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesKind:
    """How one kind of scaled series is computed and what it converges to.

    Every kind runs at the order j asked for, j = 1 being Bernstein: above
    1, j is its least n0 and its point must have strictly positive
    coordinates.  ``value(f, n, j, coords)`` is the series at degree n and
    ``target(f, coords, j)`` its limit, at the point with these ``arity``
    coordinates.
    """

    arity: int
    value: Callable
    target: Callable

    def limit(self, f, point, j):
        """The series' limit at order j, at any point that ``check_point``
        accepts at this kind's arity; j is held to ``check_order``."""
        return self.target(f, check_point(point, self.arity), check_order(j))


def _operator_value(f, n, j, coords):
    return n * (_apply(f, n, j, coords) - float(f.eval(*coords)))


def _drift_value(f, n, j, coords):
    return n * (_apply(f, n, j, coords) - _apply(f, n, 1, coords))


def _check_lemma(f, j):
    """The remainder sum's two rules, for its series and its limit alike: it
    takes no f, and it is defined for j = 2 only."""
    if f is not None:
        raise DomainError(f"the remainder sum takes no f, got {type(f).__name__}")
    if j != 2:
        raise DomainError("the remainder sum is defined for j = 2 only")


def _lemma_value(f, n, j, coords):
    _check_lemma(f, j)
    return lemma_sum(n, *coords)


# The operator series n (Op_n f - f) of each arity, then the difference of
# the orders j and 1 and the remainder sum, which takes no f and whose
# limit is 0 (``_check_lemma`` returns None).
KINDS = {
    **{
        f"akr-{arity}d": SeriesKind(arity, _operator_value, _limit)
        for arity in ARITIES
    },
    "akr-minus-bernstein-2d": SeriesKind(
        2, _drift_value, lambda f, coords, j: _limit(f, coords, j, diffusion=False)
    ),
    "lemma-sum": SeriesKind(1, _lemma_value, lambda f, coords, j: _check_lemma(f, j) or 0.0),
}

SERIES_KINDS = tuple(KINDS)


def residual_series(kind, f, point, n0=64, doublings=7, j=2):
    """Scaled residuals at degrees n0, 2 n0, ..., n0 * 2^doublings.

    ``f`` is a Function of the kind's arity, or None for kind 'lemma-sum',
    which takes no f and runs at j = 2 only.  ``point`` is a sequence of
    that many coordinates, or a bare number for a kind on [0, 1]; the
    series carries it as a tuple.  j must be >= 1, and every kind runs at
    j: at j >= 2 it needs strictly positive coordinates and n0 of at least
    j; every kind needs n0 of at least 2.  The whole schedule is checked
    against MAX_DEGREE before any operator runs.
    """
    if kind not in KINDS:
        raise DomainError(
            f"unknown series kind {kind!r}; expected one of {', '.join(SERIES_KINDS)}"
        )
    spec = KINDS[kind]
    j = check_order(j)
    ns = check_schedule(n0, doublings, max(2, j))

    coords = check_point(point, spec.arity)
    if j != 1:
        check_positive(coords)

    entries = tuple((n, float(spec.value(f, n, j, coords))) for n in ns)
    return ConvergenceSeries(entries=entries, operator_kind=kind, point=coords)


def _check_entries(entries):
    """Refuse with DomainError a doubling schedule of fewer than the 4
    entries that ``extrapolate`` needs: its tail check reads the last three
    differences."""
    if entries < 4:
        raise DomainError(
            "extrapolation needs at least 4 series entries (doublings >= 3), "
            f"got {_shown(entries)}"
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
