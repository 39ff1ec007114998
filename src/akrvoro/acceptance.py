"""Acceptance checks: numbered, self-contained verification criteria.

Each criterion pins its own tolerances and runtime budget and returns a
CriterionResult; ``run_all`` executes them in order.  The CLI ``verify``
command and the test suite both call into this module.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import CACHE_BLOCK_ELEMENTS
from .akr import (
    _node_formula,
    _remainder_formula,
    build_node_table,
    fixed_point_error,
    remainder,
)
from .asymptotics import (
    KINDS,
    ConvergenceSeries,
    decomposition,
    extrapolate,
    residual_series,
)
from .catalog import lookup
from .errors import DomainError
from .tensor import tensor_akr_apply, tensor_bernstein_apply

__all__ = ["CriterionResult", "CRITERIA", "relative_ok", "run_all", "run_criterion"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    elapsed: float
    runtime_limit: float
    detail: str

    @property
    def status(self):
        return "PASS" if self.passed else "FAIL"

    def line(self):
        return (
            f"[{self.status}] criterion {self.number}: {self.name} "
            f"({self.elapsed:.2f}s < {self.runtime_limit:.0f}s) {self.detail}"
        )


def relative_ok(limit, target, tol):
    """(passed, error) of a limit against its target: relative error, or
    absolute when the target vanishes exactly, compared strictly to tol."""
    if target == 0.0:
        return abs(limit) <= tol, abs(limit)
    err = abs(limit - target) / abs(target)
    return err <= tol, err


def criterion_1():
    """Fixed-point reproduction of 1 and t^j on a 101-point grid."""
    worst = 0.0
    for j in (2, 3):
        for n in (16, 64, 256):
            worst = max(worst, fixed_point_error(n, j, 101))
    return worst <= 1e-12, f"max grid error {worst:.3e} (<= 1e-12)"


def _remainder_sweep(last):
    """(first, n, k, r, nodes) over the degrees 2..last in blocks of whole
    degrees: n the column of degrees first, first + 1, ..., k the row
    0..max(n), and r and nodes the j = 2 remainder and nodes at every cell,
    from the formulas that ``remainder`` and ``build_node_table`` evaluate.
    A block has at most CACHE_BLOCK_ELEMENTS cells; the cells with k > n,
    all in the columns after the first degree, are padding."""
    grid = np.arange(last + 1, dtype=np.float64)
    first = 2
    while first <= last:
        # the largest row count with rows * (first + rows) cells in the cap
        rows = (math.isqrt(first * first + 4 * CACHE_BLOCK_ELEMENTS) - first) // 2
        end = min(last + 1, first + max(1, rows))
        k, n = grid[:end], grid[first:end, None]
        yield first, n, k, _remainder_formula(k, n), _node_formula(k, n, 2)
        first = end


def _reduce_valid(ufunc, x, tail):
    """ufunc.reduce over the cells k <= n of a sweep block x: the columns
    before the last tail.shape[1] hold no padding, and those are masked by
    tail."""
    split = x.shape[1] - tail.shape[1]
    head = ufunc.reduce(x[:, :split], axis=None)
    return float(ufunc.reduce(x[:, split:], axis=None, where=tail, initial=head))


# degrees at which criterion 2 checks its sweep against the public functions
_CHECKED_DEGREES = (2, 2048, 4096)


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _sweep_mismatches(first, r, nodes):
    """The degrees of _CHECKED_DEGREES in a sweep block whose rows differ
    from ``remainder`` or ``build_node_table`` in any bit."""
    bad = []
    for degree in _CHECKED_DEGREES:
        row = degree - first
        if 0 <= row < r.shape[0] and not (
            _same_bits(r[row, : degree + 1], remainder(degree, np.arange(degree + 1)))
            and _same_bits(nodes[row, : degree + 1], build_node_table(degree, 2).nodes)
        ):
            bad.append(str(degree))
    return bad


def criterion_2():
    """Remainder sign/endpoint properties and node drift bounds, n <= 4096.

    The sweep's rows at _CHECKED_DEGREES must equal ``remainder`` and
    ``build_node_table`` bit for bit."""
    last = 4096
    r0 = np.empty(last - 1)  # R(n, 0) for n = 2..last
    min_r = math.inf
    min_drift = math.inf
    max_excess = -math.inf
    mismatched = []
    for first, n, k, r, nodes in _remainder_sweep(last):
        mismatched += _sweep_mismatches(first, r, nodes)
        r0[first - 2 : first - 2 + n.shape[0]] = r[:, 0]
        tail = k[first + 1 :] <= n
        min_r = min(min_r, _reduce_valid(np.minimum, r[:, 1:], tail))
        drift = np.subtract(k / n, nodes, out=nodes)
        min_drift = min(min_drift, _reduce_valid(np.minimum, drift, tail))
        drift -= 1.0 / n
        max_excess = max(max_excess, _reduce_valid(np.maximum, drift, tail))
    expected = -1.0 / (2.0 * np.arange(2, last + 1))
    worst_r0 = float((np.abs(r0 - expected) / np.spacing(np.abs(expected))).max())
    ok = (
        not mismatched
        and worst_r0 <= 1.0
        and min_r >= -1e-15
        and min_drift >= -1e-15
        and max_excess <= 1e-15
    )
    detail = (
        f"R(n,0) off by {worst_r0:.2f} ulp; min R(k>=1) {min_r:.2e}; "
        f"drift in [{min_drift:.2e}, 1/n + {max_excess:.2e}]"
    )
    if mismatched:
        detail += f"; sweep differs from remainder/nodes at n = {', '.join(mismatched)}"
    return ok, detail


def criterion_3():
    """The scaled remainder sum stays non-negative and extrapolates to 0."""
    detail = []
    ok = True
    for x in (0.1, 0.25, 0.5, 0.75, 1.0):
        series = residual_series("lemma-sum", None, x, n0=64, doublings=7)
        values = series.values
        if values.min() < -1e-13:
            ok = False
        if x == 1.0:
            if not np.all(values == 0.0):
                ok = False
            detail.append("x=1: all zero")
            continue
        limit = extrapolate(series).limit_estimate
        if abs(limit) > 1e-2:
            ok = False
        detail.append(f"x={x}: limit {limit:.1e}")
    return ok, "; ".join(detail)


def criterion_4():
    """1-d residual series for the identity extrapolates to -(1-x)/2."""
    e1 = lookup("e1").function
    ok = True
    detail = []
    for x in (0.3, 0.5, 0.9):
        series = residual_series("akr-1d", e1, x, n0=64, doublings=7)
        limit = extrapolate(series).limit_estimate
        good, err = relative_ok(limit, KINDS["akr-1d"].limit(e1, x, 2), 1e-2)
        ok = ok and good
        detail.append(f"x={x}: rel err {err:.1e}")
    return ok, "; ".join(detail)


_LIMIT_CASES = tuple(
    (fn_name, point)
    for fn_name in ("exp-sum", "runge-2d")
    for point in ((0.5, 0.5), (0.7, 0.3))
)


def _square_limits(kind):
    """Residual series of ``kind`` at _LIMIT_CASES against its limit, to 2e-2."""
    ok = True
    detail = []
    for fn_name, point in _LIMIT_CASES:
        f = lookup(fn_name).function
        series = residual_series(kind, f, point, n0=64, doublings=7)
        limit = extrapolate(series).limit_estimate
        good, err = relative_ok(limit, KINDS[kind].limit(f, point, 2), 2e-2)
        ok = ok and good
        detail.append(f"{fn_name}@{point}: err {err:.1e}")
    return ok, "; ".join(detail)


def criterion_5():
    """Square-domain residual series match the saturation limit to 2e-2."""
    return _square_limits("akr-2d")


def criterion_6():
    """Operator-difference series match the first-order drift to 2e-2."""
    return _square_limits("akr-minus-bernstein-2d")


def criterion_7():
    """Decomposition identity and remainder bound for exp-sum."""
    f = lookup("exp-sum").function
    bound_const = f.sup_bounds.taylor_constant()
    double_sum = replace(f, factors=None)
    ok = True
    detail = []
    for n in (64, 256, 1024):
        for point in ((0.5, 0.5), (0.7, 0.3)):
            d = decomposition(f, n, point)
            recomputed = n * (
                tensor_akr_apply(double_sum, n, 2, point)
                - tensor_bernstein_apply(double_sum, n, point)
            )
            mismatch = abs(recomputed - (d.e_term + d.f_term + d.g_residual))
            g_bound = bound_const / (2.0 * n)
            if mismatch > 1e-10 or abs(d.g_residual) > g_bound:
                ok = False
        detail.append(
            f"n={n}: |total-(E+F+G)| {mismatch:.1e}, |G| {abs(d.g_residual):.2e}"
            f" <= {g_bound:.2e}"
        )
    return ok, "; ".join(detail)


def criterion_8():
    """Extrapolator recovers known limits and rates of synthetic series."""

    def synth(values):
        entries = tuple((64 * 2**m, float(v)) for m, v in enumerate(values))
        return ConvergenceSeries(entries, "lemma-sum", (0.5,))

    m = np.arange(8, dtype=np.float64)
    const = extrapolate(synth(np.full(8, 2.5)))
    geom = extrapolate(synth(1.0 + 2.0**-m))
    half = extrapolate(synth(3.0 + 2.0 ** (-m / 2.0)))
    ok = (
        const.limit_estimate == 2.5
        and const.residual_tail == 0.0
        and abs(geom.limit_estimate - 1.0) <= 1e-10
        and abs(geom.rate_estimate - 1.0) <= 1e-6
        and abs(half.limit_estimate - 3.0) <= 1e-6
        and abs(half.rate_estimate - 0.5) <= 1e-3
    )
    return ok, (
        f"constant {const.limit_estimate}; geometric limit "
        f"{geom.limit_estimate:.12f} rate {geom.rate_estimate:.8f}; half-rate "
        f"limit {half.limit_estimate:.8f} rate {half.rate_estimate:.6f}"
    )


CRITERIA = (
    (1, "fixed-point reproduction", criterion_1, 1.0),
    (2, "remainder properties sweep", criterion_2, 10.0),
    (3, "scaled remainder sum vanishes", criterion_3, 30.0),
    (4, "1-d saturation limit", criterion_4, 10.0),
    (5, "square-domain saturation limit", criterion_5, 180.0),
    (6, "operator drift identity", criterion_6, 180.0),
    (7, "drift decomposition and bound", criterion_7, 30.0),
    (8, "extrapolator oracle", criterion_8, 1.0),
)


_NUMBERS = tuple(num for num, *_ in CRITERIA)


def _check_numbers(numbers):
    unknown = [num for num in numbers if num not in _NUMBERS]
    if unknown:
        raise DomainError(
            f"no criterion numbered {', '.join(map(str, unknown))}; "
            f"valid numbers: {', '.join(map(str, _NUMBERS))}"
        )


def run_criterion(number):
    """Run one numbered criterion."""
    _check_numbers([number])
    num, name, fn, limit = CRITERIA[_NUMBERS.index(number)]
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded {limit:.0f}s"
    return CriterionResult(num, name, bool(passed), elapsed, limit, detail)


def run_all(numbers=None):
    """Run the requested criteria (all by default) in order; every number
    is checked before any criterion runs."""
    wanted = tuple(numbers) if numbers else _NUMBERS
    _check_numbers(wanted)
    return [run_criterion(num) for num in wanted]
