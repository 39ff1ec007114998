"""Acceptance checks: numbered, self-contained verification criteria.

Each criterion pins its own tolerances and runtime budget and returns a
CriterionResult; ``run_all`` executes them in order.  The CLI ``verify``
command and the test suite both call into this module.
"""

import math
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from ._kernels import (
    CACHE_BLOCK_ELEMENTS, _finite_nonnegative, check_integral, small_ufunc_buffer,
)
from .akr import (
    _fixed_point_errors, _remainder_factors, _remainder_formula, build_node_table, remainder,
)
from .asymptotics import (
    KINDS,
    ConvergenceSeries,
    ExtrapolationResult,
    _check_entries,
    decomposition,
    extrapolate,
    residual_series,
)
from .catalog import lookup
from .errors import DomainError
from .tensor import apply, memo_scope

__all__ = [
    "CriterionResult", "CRITERIA", "LimitCheck", "check_limit", "relative_ok",
    "run_all", "run_criterion",
]


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


@dataclass(frozen=True)
class LimitCheck:
    """A residual series, its extrapolation, the limit it should reach and
    ``relative_ok``'s error and verdict of the estimate against it."""

    series: ConvergenceSeries
    result: ExtrapolationResult
    target: float
    error: float
    passed: bool


@memo_scope()
def check_limit(kind, f, point, tolerance, n0=64, doublings=7, j=2):
    """The one limit verdict: the ``residual_series`` of ``kind`` (same
    arguments), extrapolated and held against the kind's limit at order j
    by ``relative_ok`` at ``tolerance``.  A tolerance that is not a finite
    number >= 0, and a schedule too short to extrapolate, are refused before
    any operator runs."""
    if not _finite_nonnegative(tolerance):
        raise DomainError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    _check_entries(check_integral(doublings, "doublings") + 1)
    series = residual_series(kind, f, point, n0=n0, doublings=doublings, j=j)
    result = extrapolate(series)
    target = KINDS[kind].limit(f, series.point, j)
    passed, error = relative_ok(result.limit_estimate, target, tolerance)
    return LimitCheck(series, result, target, error, passed)


def criterion_1():
    """Fixed-point reproduction of 1 and t^j on a 101-point grid."""
    # each degree's weights serve both orders
    worst = max(max(_fixed_point_errors(n, (2, 3), 101)) for n in (16, 64, 256))
    return worst <= 1e-12, f"max grid error {worst:.3e} (<= 1e-12)"


def _remainder_sweep(last):
    """(first, n, k, drift, r, nodes) over the degrees 2..last in blocks of
    whole degrees: n the column of degrees first, first + 1, ..., k the row
    0..max(n), and drift, r and nodes the node drift k/n - t, the j = 2
    remainder and the j = 2 nodes t at every cell, from the one formula
    call that ``remainder`` makes: its root term is the node that
    ``build_node_table`` gives.  A block has at most CACHE_BLOCK_ELEMENTS
    cells; the cells with k > n, all in the columns after the first degree,
    are padding.  The blocks share buffers allocated once, so a block is
    valid only until the next one is yielded; the formula's factors of k
    alone and of n alone are formed once, and each block slices them."""
    grid = np.arange(last + 1, dtype=np.float64)
    kk, nn, half, twice = _remainder_factors(grid, grid[2:, None])
    size = max(CACHE_BLOCK_ELEMENTS, last + 1)
    buffers = np.empty((4, size))
    first = 2
    while first <= last:
        # the largest row count with rows * (first + rows) cells in the cap
        rows = (math.isqrt(first * first + 4 * CACHE_BLOCK_ELEMENTS) - first) // 2
        end = min(last + 1, first + max(1, rows))
        k, n = grid[:end], grid[first:end, None]
        cells = (end - first) * end
        drift, r, nodes, scratch = (
            b[:cells].reshape(end - first, end) for b in buffers
        )
        degrees = slice(first - 2, end - 2)
        factors = (kk[:end], nn[degrees], half[degrees], twice[degrees])
        r = _remainder_formula(
            k, n, out=r, drift=drift, root=nodes, scratch=scratch, factors=factors
        )
        yield first, n, k, drift, r, nodes
        first = end


def _reduce_valid(ufunc, x, tail):
    """ufunc.reduce over the cells k <= n of a sweep block x: the columns
    before the last tail.shape[1] hold no padding, and those are masked by
    tail."""
    split = x.shape[1] - tail.shape[1]
    head = ufunc.reduce(x[:, :split], axis=None)
    return float(ufunc.reduce(x[:, split:], axis=None, where=tail, initial=head))


def _max_excess(drift, n, tail):
    """The largest drift - 1/n over the cells k <= n of a sweep block,
    masked as in ``_reduce_valid``: each row's largest drift, less 1/n.
    Rounding is monotone, so fl(max_k drift_k - 1/n) = max_k fl(drift_k -
    1/n) bit for bit, with one subtraction a row in place of one a cell."""
    split = drift.shape[1] - tail.shape[1]
    rows = np.maximum.reduce(drift[:, :split], axis=1)
    masked = np.maximum.reduce(drift[:, split:], axis=1, where=tail, initial=-np.inf)
    np.maximum(rows, masked, out=rows)
    rows -= 1.0 / n[:, 0]
    return float(rows.max())


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
            and _same_bits(nodes[row, : degree + 1], build_node_table(degree, 2))
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
    # entered here, not in the generator, whose caller would run under the
    # small buffer between its yields
    with small_ufunc_buffer():
        for first, n, k, drift, r, nodes in _remainder_sweep(last):
            mismatched += _sweep_mismatches(first, r, nodes)
            r0[first - 2 : first - 2 + n.shape[0]] = r[:, 0]
            tail = k[first + 1 :] <= n
            min_r = min(min_r, _reduce_valid(np.minimum, r[:, 1:], tail))
            min_drift = min(min_drift, _reduce_valid(np.minimum, drift, tail))
            max_excess = max(max_excess, _max_excess(drift, n, tail))
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
        check = check_limit("lemma-sum", None, x, 1e-2)
        values = check.series.values
        ok = ok and check.passed and values.min() >= -1e-13
        if x == 1.0:
            ok = ok and np.all(values == 0.0)
            detail.append("x=1: all zero")
        else:
            detail.append(f"x={x}: limit {check.result.limit_estimate:.1e}")
    return ok, "; ".join(detail)


_LIMIT_CASES = tuple(
    (fn_name, point)
    for fn_name in ("exp-sum", "runge-2d")
    for point in ((0.5, 0.5), (0.7, 0.3))
)


def _limit_checks(
    kind, cases=_LIMIT_CASES, tolerance=2e-2, label="{fn}@{point}: err {err:.1e}"
):
    """check_limit of ``kind`` at each (function name, point) case: whether
    all passed, and each case's ``label`` formatted with fn, point and err.
    The defaults are the square criteria's: _LIMIT_CASES to 2e-2."""
    checks = [
        check_limit(kind, lookup(fn).function, point, tolerance) for fn, point in cases
    ]
    detail = "; ".join(
        label.format(fn=fn, point=point, err=check.error)
        for (fn, point), check in zip(cases, checks)
    )
    return all(check.passed for check in checks), detail


def criterion_4():
    """1-d residual series for the identity extrapolates to -(1-x)/2."""
    cases = [("e1", x) for x in (0.3, 0.5, 0.9)]
    return _limit_checks("akr-1d", cases, 1e-2, "x={point}: rel err {err:.1e}")


def criterion_5():
    """Square-domain residual series match the saturation limit to 2e-2."""
    return _limit_checks("akr-2d")


def criterion_6():
    """Operator-difference series match the first-order drift to 2e-2."""
    return _limit_checks("akr-minus-bernstein-2d")


def criterion_7():
    """Decomposition identity and remainder bound for exp-sum."""
    f = lookup("exp-sum").function
    double_sum = replace(f, factors=None)
    ok = True
    detail = []
    for n in (64, 256, 1024):
        for point in ((0.5, 0.5), (0.7, 0.3)):
            d = decomposition(f, n, point)
            recomputed = n * (
                apply(double_sum, n, 2, point) - apply(double_sum, n, 1, point)
            )
            mismatch = abs(recomputed - (d.e_term + d.f_term + d.g_residual))
            if mismatch > 1e-10 or abs(d.g_residual) > d.g_bound:
                ok = False
            detail.append(
                f"n={n} @ {point}: |total-(E+F+G)| {mismatch:.1e}, "
                f"|G| {abs(d.g_residual):.2e} <= {d.g_bound:.2e}"
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
    """The criterion numbers as a list of ints, refused with DomainError
    unless there is one at least and each is integral, numbers a criterion
    and is selected once."""
    numbers = [check_integral(num, "criterion number") for num in numbers]
    unknown = ", ".join(str(num) for num in numbers if num not in _NUMBERS)
    repeated = sorted(num for num, count in Counter(numbers).items() if count > 1)
    valid = f"valid numbers: {', '.join(map(str, _NUMBERS))}"
    if not numbers:
        raise DomainError(f"no criterion selected; {valid}")
    if unknown:
        raise DomainError(f"no criterion numbered {unknown}; {valid}")
    if repeated:
        raise DomainError(
            f"criterion {', '.join(map(str, repeated))} selected more than once"
        )
    return numbers


@memo_scope()
def run_criterion(number):
    """Run one numbered criterion, in a memo scope of its own unless one is
    open."""
    (number,) = _check_numbers([number])
    num, name, fn, limit = CRITERIA[_NUMBERS.index(number)]
    start = time.perf_counter()
    passed, detail = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= limit:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded {limit:.0f}s"
    return CriterionResult(num, name, bool(passed), elapsed, limit, detail)


@memo_scope()
def run_all(numbers=None):
    """Run the requested criteria (all when ``numbers`` is None) in order,
    in one memo scope, so that a weight window or an operator value one
    criterion computed is not computed again by the next; every number is
    checked before any criterion runs, and an empty or repeated selection
    is refused."""
    wanted = _NUMBERS if numbers is None else _check_numbers(numbers)
    return [run_criterion(num) for num in wanted]
