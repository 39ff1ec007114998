"""First-order asymptotics of the operators.

Provides the scaled residual series n*(Op_n f - f) along a degree-doubling
schedule, the limiting differential expressions those series approach, the
exact first-order drift decomposition of the difference between the
modified-node and classical tensor operators, and an empirical rate/limit
extrapolator for the series.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ._kernels import check_degree, comp_dot, log_weights, support
from .akr import akr_apply, bernstein_apply, node_values, remainder
from .errors import CapabilityError, DomainError
from .fd import fd_derivative_1d, fd_partials_2d
from .tensor import (
    SquarePoint,
    _axis_window,
    _window_apply,
    as_point,
    tensor_akr_apply,
    tensor_bernstein_apply,
    tensor_reduce,
)

__all__ = [
    "SERIES_KINDS",
    "KINDS",
    "SeriesKind",
    "ConvergenceSeries",
    "ExtrapolationResult",
    "Decomposition",
    "lemma_sum",
    "voronovskaja_rhs_1d",
    "classical_rhs_1d",
    "voronovskaja_rhs_2d",
    "classical_rhs_2d",
    "drift_rhs_2d",
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
    """Scaled residual values along a strictly doubling degree schedule."""

    entries: Tuple[Tuple[int, float], ...]
    operator_kind: str
    point: Union[float, SquarePoint]

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
# Derivative access with finite-difference fallback
# --------------------------------------------------------------------------


def _derivative_1d(f, x, order):
    fn = f.d1 if order == 1 else f.d2
    if fn is not None:
        return float(fn(x))
    return fd_derivative_1d(f.eval, x, order)


def _first_partials(f, p):
    if f.fx is not None and f.fy is not None:
        return float(f.fx(p.x, p.y)), float(f.fy(p.x, p.y))
    fx, fy = fd_partials_2d(f.eval, p.x, p.y, 1)
    if f.fx is not None:
        fx = float(f.fx(p.x, p.y))
    if f.fy is not None:
        fy = float(f.fy(p.x, p.y))
    return fx, fy


def _pure_second_partials(f, p):
    if f.fxx is not None and f.fyy is not None:
        return float(f.fxx(p.x, p.y)), float(f.fyy(p.x, p.y))
    fxx, _, fyy = fd_partials_2d(f.eval, p.x, p.y, 2)
    if f.fxx is not None:
        fxx = float(f.fxx(p.x, p.y))
    if f.fyy is not None:
        fyy = float(f.fyy(p.x, p.y))
    return fxx, fyy


# --------------------------------------------------------------------------
# Limit expressions
# --------------------------------------------------------------------------


def _check_positive_x(x, name="x"):
    x = float(x)
    if not 0.0 < x <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {x}")
    return x


def lemma_sum(n, x):
    """n * sum_{k>=1} p(n,k,x) remainder(n,k); non-negative, vanishing in n."""
    n = check_degree(n, 2)
    x = _check_positive_x(x)
    lo, hi = support(n, x)
    lo = max(lo, 1)
    w = np.exp(log_weights(n, x, lo, hi))
    return n * comp_dot(w, remainder(n, np.arange(lo, hi + 1)))


def voronovskaja_rhs_1d(f, x):
    """x(1-x)/2 f'' - (1-x)/2 f', the 1-d modified-node saturation limit."""
    x = _check_positive_x(x)
    d1 = _derivative_1d(f, x, 1)
    d2 = _derivative_1d(f, x, 2)
    return 0.5 * x * (1.0 - x) * d2 - 0.5 * (1.0 - x) * d1


def classical_rhs_1d(f, x):
    """x(1-x)/2 f'', the classical 1-d saturation limit."""
    x = float(x)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x}")
    return 0.5 * x * (1.0 - x) * _derivative_1d(f, x, 2)


def voronovskaja_rhs_2d(f, p):
    """Square-domain saturation limit of the modified-node tensor operator."""
    p = as_point(p)
    _check_positive_x(p.x, "x")
    _check_positive_x(p.y, "y")
    fx, fy = _first_partials(f, p)
    fxx, fyy = _pure_second_partials(f, p)
    return (
        0.5 * p.x * (1.0 - p.x) * fxx
        + 0.5 * p.y * (1.0 - p.y) * fyy
        - 0.5 * (1.0 - p.x) * fx
        - 0.5 * (1.0 - p.y) * fy
    )


def classical_rhs_2d(f, p):
    """x(1-x)/2 fxx + y(1-y)/2 fyy, the classical tensor saturation limit."""
    p = as_point(p)
    fxx, fyy = _pure_second_partials(f, p)
    return 0.5 * p.x * (1.0 - p.x) * fxx + 0.5 * p.y * (1.0 - p.y) * fyy


def drift_rhs_2d(f, p):
    """-(1-x)/2 fx - (1-y)/2 fy, the first-order node-drift limit.

    Equals voronovskaja_rhs_2d - classical_rhs_2d.
    """
    p = as_point(p)
    _check_positive_x(p.x, "x")
    _check_positive_x(p.y, "y")
    fx, fy = _first_partials(f, p)
    return -0.5 * (1.0 - p.x) * fx - 0.5 * (1.0 - p.y) * fy


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
    p = as_point(p)
    if f.fx is None or f.fy is None:
        raise CapabilityError("decomposition requires exact first partials")
    uniform = node_values(n, 1)
    nodes = node_values(n, 2)
    drift = nodes - uniform
    x_window = _axis_window(n, p.x)
    y_window = _axis_window(n, p.y)
    (sx, wx), (sy, wy) = x_window, y_window
    e_term = n * tensor_reduce(f.fx, uniform[sx], uniform[sy], wx * drift[sx], wy)
    f_term = n * tensor_reduce(f.fy, uniform[sx], uniform[sy], wx, wy * drift[sy])
    total = n * (
        _window_apply(f, nodes, x_window, y_window)
        - _window_apply(f, uniform, x_window, y_window)
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

    ``value(f, n, j, point)`` is the series at degree n; ``limit(f, point)``
    its limit at j = 2.  ``operator(f, n, j, point)`` is the operator value
    for kinds whose series is n (Op_n f - f) at the point.  The point has
    ``arity`` coordinates, all strictly positive when ``positive``, and is a
    float (arity 1) or a SquarePoint (arity 2).  ``uses_f`` is False for a
    series that does not depend on f.
    """

    arity: int
    positive: bool
    value: Callable
    limit: Callable
    operator: Optional[Callable] = None
    uses_f: bool = True


def _operator_kind(arity, positive, operator, limit):
    def value(f, n, j, point):
        at = f.eval(point) if arity == 1 else f.eval(point.x, point.y)
        return n * (operator(f, n, j, point) - float(at))

    return SeriesKind(arity, positive, value, limit, operator)


def _drift_value(f, n, j, p):
    return n * (tensor_akr_apply(f, n, j, p) - tensor_bernstein_apply(f, n, p))


def _lemma_value(f, n, j, x):
    if j != 2:
        raise DomainError("the remainder sum is defined for j = 2 only")
    return lemma_sum(n, x)


KINDS = {
    "bernstein-1d": _operator_kind(
        1, False, lambda f, n, j, x: bernstein_apply(f, n, x), classical_rhs_1d
    ),
    "akr-1d": _operator_kind(1, True, akr_apply, voronovskaja_rhs_1d),
    "bernstein-2d": _operator_kind(
        2, False, lambda f, n, j, p: tensor_bernstein_apply(f, n, p), classical_rhs_2d
    ),
    "akr-2d": _operator_kind(2, True, tensor_akr_apply, voronovskaja_rhs_2d),
    "akr-minus-bernstein-2d": SeriesKind(2, True, _drift_value, drift_rhs_2d),
    "lemma-sum": SeriesKind(1, True, _lemma_value, lambda f, x: 0.0, uses_f=False),
}

SERIES_KINDS = tuple(KINDS)


def residual_series(kind, f, point, n0=64, doublings=7, j=2):
    """Scaled residuals at degrees n0, 2 n0, ..., n0 * 2^doublings.

    ``f`` is a Function1D or Function2D matching the kind's arity and is
    ignored for kind 'lemma-sum'.  Strictly positive coordinates are
    required for the modified-node kinds.  The whole schedule is checked
    against MAX_DEGREE before any operator runs.
    """
    if kind not in KINDS:
        raise DomainError(
            f"unknown series kind {kind!r}; expected one of {', '.join(SERIES_KINDS)}"
        )
    spec = KINDS[kind]
    n0 = int(n0)
    doublings = int(doublings)
    j = int(j)
    if j < 2:
        raise DomainError(f"order j must be >= 2, got {j}")
    if doublings < 2:
        raise DomainError(f"schedule too short to extrapolate: doublings={doublings}")
    if n0 < max(2, j):
        raise DomainError(f"n0 must be >= max(2, j), got {n0}")
    check_degree(n0 * 2**doublings)

    if spec.arity == 1:
        point = float(point)
        if not 0.0 <= point <= 1.0:
            raise DomainError(f"point must lie in [0, 1], got {point}")
        coords = (point,)
    else:
        point = as_point(point)
        coords = (point.x, point.y)
    if spec.positive and 0.0 in coords:
        raise DomainError(f"kind {kind!r} requires strictly positive coordinates")

    ns = [n0 * 2**m for m in range(doublings + 1)]
    entries = tuple((n, float(spec.value(f, n, j, point))) for n in ns)
    return ConvergenceSeries(entries=entries, operator_kind=kind, point=point)


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
    if values.shape[0] < 4:
        raise DomainError("extrapolation needs at least 4 series entries")
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
