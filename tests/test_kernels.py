import contextlib
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import akrvoro
from akrvoro import _kernels, acceptance, tensor
from akrvoro.akr import _remainder_formula
from akrvoro.asymptotics import residual_series
from akrvoro.catalog import lookup


def comp_sum(values):
    """A compensated sum is a compensated dot product against ones."""
    return _kernels.comp_dot(values, np.ones_like(values))


def test_backend_reports_numpy():
    assert _kernels.backend() == "numpy"
    assert akrvoro.backend() == "numpy"


def test_comp_sum_survives_cancellation():
    data = np.array([1e16, 1.0, -1e16, 1.0, 1e-8])
    assert comp_sum(data) == pytest.approx(math.fsum(data), abs=1e-12)


def test_comp_sum_empty_and_single():
    assert comp_sum(np.array([], dtype=float)) == 0.0
    assert comp_sum(np.array([3.5])) == 3.5


def test_comp_dot_matches_fsum_of_products():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000)
    assert _kernels.comp_dot(a, b) == math.fsum(np.multiply(a, b))


# --------------------------------------------------------------------------
# exact_sum: the certified cascade and its fsum fallback, against an exact
# oracle.
# --------------------------------------------------------------------------

_CROSSOVER = _kernels._CASCADE_MIN_TERMS


def _assert_exactly_rounded(a, b=None):
    """comp_dot(a, b) (b = ones by default), fsum of the products and their
    exact sum rounded to nearest agree bit for bit.  Fraction sums exactly
    and float() of it divides two ints, correctly rounded; a zero has no
    sign there, so fsum's gives it."""
    a = np.asarray(a, dtype=float)
    b = np.ones_like(a) if b is None else b
    p = np.multiply(a, b).tolist()
    got = _kernels.comp_dot(a, b)
    assert got.hex() == math.fsum(p).hex()
    assert got == float(sum(map(Fraction, p), Fraction(0)))


# doubles of every binary exponent a sum of a few hundred can hold without
# overflow, subnormals included
_TERMS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1074, max_value=990)),
)


# from just below the crossover, so both paths run
@given(st.lists(_TERMS, min_size=_CROSSOVER - 2, max_size=2 * _CROSSOVER))
@settings(max_examples=100, deadline=None)
def test_exact_sum_is_the_rounded_exact_sum(xs):
    _assert_exactly_rounded(xs)


@given(
    st.lists(_TERMS, min_size=_CROSSOVER // 2, max_size=_CROSSOVER),
    st.lists(_TERMS, max_size=8),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_exact_sum_survives_heavy_cancellation(xs, residue, seed):
    # the terms cancel in pairs, in shuffled order, down to a small residue
    terms = np.array(xs + [-x for x in xs] + residue)
    np.random.default_rng(seed).shuffle(terms)
    _assert_exactly_rounded(terms)


_U = 2.0**-53


@pytest.mark.parametrize(
    "head",
    [
        [1.0, _U],  # 1 + u, a tie: to even, 1
        [1.0, 3 * _U],  # 1 + 3u, a tie: to even, 1 + 4u
        [1.0, -_U / 2],  # 1 - u/2, the tie below the power of two: to 1
        [1.0, _U, 2.0**-110],  # just past the tie: up
        [1.0, _U, -(2.0**-110)],  # just short of it: down
        [1.0, -_U / 2, -(2.0**-110)],
        [1.0, -_U / 2, 2.0**-110],
        [-1.0, -_U],
        [1.0, -_U / 4],  # within the smaller gap below a power of two
        [1.0, -3 * _U / 4],  # nearer the neighbour below
        [1.0, _U * 0.75],
        [2.0**600, -(2.0**546)],
        [0.75, 0.25],  # exactly a power of two
        [2.0**-1000, 2.0**-1060, -(2.0**-1074)],
    ],
)
@pytest.mark.parametrize("place", ["first", "last", "spread"])
@pytest.mark.parametrize("pad", ["zeros", "cancelling pairs"])
def test_exact_sum_rounds_ties_and_power_of_two_neighbours(head, place, pad):
    count = _CROSSOVER + 3
    if pad == "zeros":
        padding = [0.0] * count
    else:
        values = [0.75 * 2.0**e for e in range(-(count // 4), count // 4 + 1)]
        padding = [v for value in values for v in (value, -value)]
    if place == "first":
        terms = head + padding
    elif place == "last":
        terms = padding + head
    else:
        terms = list(padding)
        for i, h in enumerate(head):
            terms.insert((i + 1) * len(padding) // (len(head) + 1), h)
    assert len(terms) >= _CROSSOVER
    _assert_exactly_rounded(terms)


@pytest.mark.parametrize("size", [_CROSSOVER - 1, _CROSSOVER, 4 * _CROSSOVER])
def test_exact_sum_of_subnormal_products(size):
    rng = np.random.default_rng(size)
    sign = rng.choice((-1.0, 1.0), size)
    # products near 1e-320, some of them rounded to 0, with and without a
    # normal term among them
    a = sign * rng.uniform(0.1, 1.0, size) * 1e-160
    b = rng.uniform(0.0, 1.0, size) * 1e-160
    _assert_exactly_rounded(a, b)
    a[size // 2], b[size // 2] = 1e-150, 1e-150
    _assert_exactly_rounded(a, b)


@pytest.mark.parametrize(
    "terms",
    [
        [0.0] * _CROSSOVER,
        [-0.0] * _CROSSOVER,
        [0.0, -0.0] * _CROSSOVER,
        [1.5, -1.5] * _CROSSOVER,
        [-(2.0**-1074), 2.0**-1074] * _CROSSOVER,
        [1e300, 1.0, -1e300, -1.0] * _CROSSOVER,
    ],
)
def test_exact_sum_of_zero_is_fsums_signed_zero(terms):
    _assert_exactly_rounded(terms)
    assert _kernels.comp_dot(np.array(terms), np.ones(len(terms))) == 0.0


_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "head",
    [
        [math.inf],
        [-math.inf],
        [math.nan],
        [math.inf, -math.inf],
        [math.inf, math.nan],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        # an exact prefix sum passes the largest double while the running
        # sums, rounded, stay finite
        [_MAX] + [math.ulp(_MAX) / 4] * 3 + [-_MAX],
        [1e306] * _CROSSOVER,
    ],
)
def test_exact_sum_gives_fsums_value_or_exception_past_the_finite_range(head):
    terms = np.array(head + [0.5] * _CROSSOVER)
    try:
        expected = math.fsum(terms.tolist())
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            comp_sum(terms)
    else:
        assert comp_sum(terms).hex() == expected.hex()


@pytest.mark.parametrize("x", [0.1, 0.3, 0.5, 0.9])
def test_an_akr_1d_series_certifies_every_sum_past_the_crossover(monkeypatch, x):
    # so that the fast path cannot go dead unnoticed: no comp_dot of at
    # least _CASCADE_MIN_TERMS products in an e2 series to n = 65536 falls
    # back to fsum
    sizes, fallbacks = [], []
    exact_sum, fsum = _kernels.exact_sum, math.fsum

    def counted(p):
        sizes.append(p.shape[0])
        return exact_sum(p)

    def recorded(terms):
        fallbacks.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(_kernels, "exact_sum", counted)
    monkeypatch.setattr(math, "fsum", recorded)
    residual_series("akr-1d", lookup("e2").function, x, n0=64, doublings=10)
    monkeypatch.undo()
    assert sum(m >= _CROSSOVER for m in sizes) >= 8
    assert [m for m in fallbacks if m >= _CROSSOVER] == []


# exact_sum over a 2-d stack: one cascade for all rows, each row held to
# the scalar certificate.  The certificate counts m as the padded width, the
# row's length, not the width of the terms a caller put in it.  That count
# is valid because padding is made of terms: a zero term adds a TwoSum error
# of exactly 0, and the bound holds for any m terms, so a row's sum is
# certified, or sent to fsum, as the 1-d call on the same padded row is.
# Padding with zeros changes no correctly rounded sum but a signed zero's,
# and fsum on the padded row gives that.
@st.composite
def _stacks(draw):
    """A 2-d stack of a few rows of _TERMS, each padded with zeros to one
    width, the width on both sides of the crossover."""
    width = draw(st.integers(min_value=1, max_value=2 * _CROSSOVER))
    sizes = draw(st.lists(st.integers(0, width), min_size=1, max_size=4))
    rows = [draw(st.lists(_TERMS, min_size=size, max_size=size)) for size in sizes]
    return np.array([row + [0.0] * (width - len(row)) for row in rows])


@given(_stacks())
@settings(max_examples=100, deadline=None)
def test_exact_sum_of_a_stack_is_each_rows_exact_sum(stack):
    got = _kernels.exact_sum(stack)
    assert got.shape == (stack.shape[0],)
    for value, row in zip(got.tolist(), stack):
        assert value.hex() == _kernels.exact_sum(row).hex()
        assert value.hex() == math.fsum(row.tolist()).hex()


@pytest.mark.parametrize("width", ["narrow", "wide"])
@pytest.mark.parametrize(
    "head",
    [
        [math.inf],
        [-math.inf],
        [math.nan],
        [math.inf, -math.inf],
        [math.inf, math.nan],
        [1e308, 1e308],
        [1e308, 1e308, -1e308],
        [_MAX] + [math.ulp(_MAX) / 4] * 3 + [-_MAX],
        [1e306] * _CROSSOVER,
    ],
)
def test_a_stack_row_past_the_finite_range_gives_the_1d_value_or_exception(head, width):
    # the row between two finite rows, which the cascade still sums
    row = np.array(head + [0.5] * (3 if width == "narrow" else _CROSSOVER))
    finite = np.linspace(-1.0, 1.0, row.size)
    stack = np.array([finite, row, finite[::-1]])
    try:
        expected = _kernels.exact_sum(row)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _kernels.exact_sum(stack)
    else:
        got = _kernels.exact_sum(stack).tolist()
        assert [v.hex() for v in got] == [
            _kernels.exact_sum(r).hex() for r in (finite, row, finite[::-1])
        ]
        assert got[1].hex() == expected.hex()


def test_a_stack_of_support_window_weights_certifies_every_row(monkeypatch):
    # criterion 1's stacks at n = 256, padded to the widest window, go to
    # fsum in no row, so the stacked cascade cannot go dead unnoticed
    n, grid = 256, np.linspace(0.0, 1.0, 101).tolist()
    windows = [_kernels.support(n, x) for x in grid]
    width = max(hi - lo + 1 for lo, hi in windows)
    stack = np.zeros((len(grid), width))
    for row, x, (lo, hi) in zip(stack, grid, windows):
        row[: hi - lo + 1] = np.exp(_kernels.log_weights(n, x, lo, hi))
    fallbacks = []
    fsum = math.fsum

    def recorded(terms):
        fallbacks.append(len(terms))
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", recorded)
    sums = _kernels.exact_sum(stack)
    monkeypatch.undo()
    assert fallbacks == []
    assert [s.hex() for s in sums.tolist()] == [fsum(r.tolist()).hex() for r in stack]


def test_bilinear_accumulate_matches_brute_force():
    rng = np.random.default_rng(11)
    block = rng.standard_normal((17, 29))
    wx = rng.standard_normal(17)
    wy = rng.standard_normal(29)
    state = np.zeros(2)
    _kernels.bilinear_accumulate(block, wx, wy, state)
    got = state[0] + state[1]
    exact = math.fsum(
        wx[i] * block[i, l] * wy[l] for i in range(17) for l in range(29)
    )
    assert got == pytest.approx(exact, rel=1e-13, abs=1e-13)


def _frozen_bilinear_accumulate(block, wx_block, wy, state):
    """bilinear_accumulate with its Kahan loop over numpy scalars."""
    rows = block @ wy
    s = state[0]
    c = state[1]
    for i in range(rows.shape[0]):
        v = wx_block[i] * rows[i]
        t = s + v
        c += (s - t) + v
        s = t
    state[0] = s
    state[1] = c


def _block_data(rng, mixed, shape):
    """Doubles of either sign: uniform in [-1e6, 1e6], or, when mixed, of
    magnitudes 1e-100..1e100 (so a row's weighted sum spans about 1e-300 to
    1e300) with about a fifth of them zeros of either sign."""
    if not mixed:
        return rng.uniform(-1e6, 1e6, shape)
    sign = rng.choice((-1.0, 1.0), shape)
    values = sign * 10.0 ** rng.uniform(-100.0, 100.0, shape)
    return np.where(rng.random(shape) < 0.2, sign * 0.0, values)


@given(
    rows=st.integers(min_value=0, max_value=1000),
    cols=st.integers(min_value=1, max_value=12),
    blocks=st.integers(min_value=1, max_value=3),
    mixed=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_bilinear_accumulate_equals_the_numpy_scalar_loop(
    rows, cols, blocks, mixed, seed
):
    rng = np.random.default_rng(seed)
    block = _block_data(rng, mixed, (rows, cols))
    wx = _block_data(rng, mixed, rows)
    wy = _block_data(rng, mixed, cols)
    got = _block_data(rng, mixed, 2)
    frozen = got.copy()
    for _ in range(blocks):
        # the state carries over from block to block
        _kernels.bilinear_accumulate(block, wx, wy, got)
        _frozen_bilinear_accumulate(block, wx, wy, frozen)
    np.testing.assert_array_equal(got.view(np.int64), frozen.view(np.int64))


def test_add_accumulate_sums_left_to_right():
    # bilinear_accumulate relies on np.add.accumulate being a strictly
    # sequential scan; np.add.reduce sums pairwise, and on these values
    # its bits differ from the left-to-right sum
    rng = np.random.default_rng(5)
    values = rng.standard_normal(1000) * 10.0 ** rng.uniform(-8.0, 8.0, 1000)
    running = []
    total = 0.0
    for v in values.tolist():
        total += v
        running.append(total)
    assert float(np.add.reduce(values)) != total
    np.testing.assert_array_equal(
        np.add.accumulate(values).view(np.int64), np.array(running).view(np.int64)
    )


def test_bilinear_accumulate_carries_state_across_blocks():
    rng = np.random.default_rng(13)
    block = rng.standard_normal((10, 8))
    wx = rng.standard_normal(10)
    wy = rng.standard_normal(8)
    whole = np.zeros(2)
    _kernels.bilinear_accumulate(block, wx, wy, whole)
    split = np.zeros(2)
    _kernels.bilinear_accumulate(block[:4], wx[:4], wy, split)
    _kernels.bilinear_accumulate(block[4:], wx[4:], wy, split)
    assert split[0] + split[1] == pytest.approx(whole[0] + whole[1], abs=1e-14)


@given(
    st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=200, deadline=None)
def test_comp_sum_is_compensated(xs):
    arr = np.array(xs)
    exact = math.fsum(xs)
    bound = 4.0 * np.finfo(float).eps * float(np.sum(np.abs(arr))) + 1e-300
    assert abs(comp_sum(arr) - exact) <= bound


@pytest.mark.parametrize("n", [1, 2, 5, 64, 500, 2048, 8192])
@pytest.mark.parametrize("x", [0.5, 0.3, 0.1, 0.9, 1.0 / 3.0])
def test_log_weights_partition_of_unity(n, x):
    w = np.exp(_kernels.log_weights(n, x))
    assert abs(math.fsum(w) - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 5, 50, 64, 500, 1024, 5000, 8192])
def test_log_weights_against_high_precision(n):
    for x in (0.37, 0.5, 1e-300, 5e-324, 2.0**-53, 1.0 - 2.0**-53):
        w = np.exp(_kernels.log_weights(n, x))
        for k in sorted({0, 1, 2, n // 3, n // 2, round(n * x), n - 2, n - 1, n}):
            with mp.workdps(50):
                xm = mp.mpf(x)
                exact = mp.binomial(n, k) * xm**k * (1 - xm) ** (n - k)
                if exact <= mp.mpf("1e-300"):
                    continue
                exact = float(exact)
            assert abs(w[k] / exact - 1.0) <= 1e-12, (x, k)


@given(
    st.integers(min_value=1, max_value=4096),
    st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)
@settings(max_examples=100, deadline=None)
def test_windowed_log_weights_are_a_slice_of_the_full_vector(n, x):
    full = _kernels.log_weights(n, x)
    assert full.shape == (n + 1,)
    lo, hi = _kernels.support(n, x)
    assert 0 <= lo <= hi <= n
    np.testing.assert_array_equal(_kernels.log_weights(n, x, lo, hi), full[lo : hi + 1])


# --------------------------------------------------------------------------
# Frozen reference: log_weights as it was before the per-degree cache, the
# single bd0 call and the fixed-length series.  Every weight of the kernel
# must equal this one bit for bit.
# --------------------------------------------------------------------------

_FROZEN_STIRLERR = np.array(
    [
        0.0,
        0.081061466795327258219670264,
        0.041340695955409294093822081,
        0.0276779256849983391487892927,
        0.020790672103765093111522771,
        0.0166446911898211921631948653,
        0.013876128823070747998745727,
        0.0118967099458917700950557241,
        0.010411265261972096497478567,
        0.0092554621827127329177286366,
        0.008330563433362871256469318,
        0.0075736754879518407949720242,
        0.006942840107209529865664152,
        0.0064089941880042070684396310,
        0.005951370112758847735624416,
        0.0055547335519628013710386899,
    ]
)
_S = (1.0 / 12.0, 1.0 / 360.0, 1.0 / 1260.0, 1.0 / 1680.0, 1.0 / 1188.0)


def _frozen_stirlerr(m):
    out = np.empty_like(m)
    small = m < 16.0
    out[small] = _FROZEN_STIRLERR[m[small].astype(np.intp)]
    mm = m[~small]
    m2 = mm * mm
    s0, s1, s2, s3, s4 = _S
    out[~small] = (s0 - (s1 - (s2 - (s3 - s4 / m2) / m2) / m2) / m2) / mm
    return out


def _frozen_bd0(a, m):
    m = np.broadcast_to(m, a.shape)
    out = np.empty(a.shape)
    near = np.abs(a - m) < 0.1 * (a + m)
    an, mn = a[near], m[near]
    v = (an - mn) / (an + mn)
    s = (an - mn) * v
    ej = 2.0 * an * v
    v2 = v * v
    j = 1
    while ej.size:
        ej = ej * v2
        s1 = s + ej / (2 * j + 1)
        if np.array_equal(s1, s):
            break
        s = s1
        j += 1
    out[near] = s
    af, mf = a[~near], m[~near]
    with np.errstate(over="ignore"):
        out[~near] = af * np.log(af / mf) + mf - af
    return out


def _assert_bd0_bits(a, m):
    expected = _frozen_bd0(a, m)
    got = _kernels._bd0_np(a, m)
    np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def test_bd0_is_bit_identical_to_the_frozen_reference_across_the_crossover():
    # near counts from 1 to 300 take the accumulates below
    # _SERIES_LOOP_MIN_NEAR and the loop from it on, each with and without
    # far elements beside them
    rng = np.random.default_rng(30)
    assert 1 < _kernels._SERIES_LOOP_MIN_NEAR < 300
    for count in range(1, 301):
        m = rng.uniform(1.0, 1e4, count)
        near_a = m * (1.0 + rng.uniform(-0.18, 0.18, count))
        far_m = rng.uniform(1.0, 1e4, 5)
        far_a = far_m * rng.choice([0.25, 0.5, 3.0], 5)
        _assert_bd0_bits(near_a, m)
        _assert_bd0_bits(np.concatenate((far_a[:2], near_a, far_a[2:])),
                         np.concatenate((far_m[:2], m, far_m[2:])))


@pytest.mark.parametrize("size", [1, 2, 50, 200, 4954])
def test_bd0_all_near_and_all_far_arrays_are_bit_identical(size):
    a = np.arange(1.0, size + 1.0)
    # all near, with v = 0 at the middle element, and all at v = 0
    m = a * (1.0 + 0.15 * np.sin(a))
    m[size // 2] = a[size // 2]
    _assert_bd0_bits(a, m)
    _assert_bd0_bits(a, a)
    # all far, at both sides of m
    _assert_bd0_bits(a, a * 3.0)
    _assert_bd0_bits(a, a / 3.0)
    # m below 2^-1000: a / m overflows to inf, which errstate hides, and
    # bd0 is inf; a near element beside them takes the series
    tiny = np.full(size, 2.0**-1074)
    tiny[0] = 2.0**-1001
    _assert_bd0_bits(a, tiny)
    mixed = tiny.copy()
    mixed[-1] = a[-1] * 1.05
    _assert_bd0_bits(a, mixed)


def test_warmup_takes_the_small_window_series(monkeypatch):
    # the accumulates have their own first-call costs, which warmup pays
    seen = []
    exact = _kernels._bd0_series

    def recorded(a, d, v):
        seen.append((v.size, float(np.max(v * v, initial=0.0))))
        return exact(a, d, v)

    monkeypatch.setattr(_kernels, "_bd0_series", recorded)
    _kernels.warmup()
    monkeypatch.undo()
    assert any(0 < size < _kernels._SERIES_LOOP_MIN_NEAR and v2_max > 0.0
               for size, v2_max in seen)


def test_warmup_grows_the_s_table_and_takes_the_in_place_far_pass(monkeypatch):
    # from an empty table and terms cache, as in a fresh process
    monkeypatch.setattr(_kernels, "_stirlerr_kept", [np.empty(0)])
    _kernels._cached_degree_terms.cache_clear()
    windows = []
    exact = _kernels._bd0_np

    def recorded(a, m, small_m=True):
        near = np.abs(a - m) < 0.1 * (a + m)
        windows.append((np.count_nonzero(near), near.size))
        return exact(a, m, small_m)

    monkeypatch.setattr(_kernels, "_bd0_np", recorded)
    _kernels.warmup()
    assert _kernels._stirlerr_kept[0].size > 0
    # a mixed window: the far pass over every element, then the near ones
    assert any(0 < count < size for count, size in windows)


def _frozen_log_weights(n, x, lo=0, hi=None):
    hi = n if hi is None else hi
    lw = np.empty(hi - lo + 1)
    if x == 0.0 or x == 1.0:
        lw[:] = -np.inf
        mode = 0 if x == 0.0 else n
        if lo <= mode <= hi:
            lw[mode - lo] = 0.0
        return lw
    if lo == 0:
        lw[0] = n * math.log1p(-x)
    if hi == n:
        lw[-1] = n * math.log(x)
    k0 = max(lo, 1)
    k1 = min(hi, n - 1)
    if k1 < k0:
        return lw
    k = np.arange(float(k0), float(k1 + 1))
    sn = _frozen_stirlerr(np.array([float(n)]))[0]
    lw[k0 - lo : k1 - lo + 1] = (
        sn
        - _frozen_stirlerr(k)
        - _frozen_stirlerr(n - k)
        - _frozen_bd0(k, n * x)
        - _frozen_bd0(n - k, n * (1.0 - x))
        + 0.5 * np.log(n / (2.0 * math.pi * k * (n - k)))
    )
    return lw


@given(
    st.one_of(
        st.integers(min_value=1, max_value=4096),
        # degrees whose support windows are all near at moderate x, on
        # both sides of the terms cache's bound of 8192
        st.sampled_from([8192, 8193, 16384, 32768, 65535, 65536, 65537, 2**20]),
    ),
    st.one_of(
        st.sampled_from([0.0, 1.0, 5e-324, 1e-300, 1.0 - 2.0**-53]),
        st.floats(min_value=0.0, max_value=1.0),
    ),
    st.integers(min_value=0, max_value=2**20),
)
@settings(max_examples=300, deadline=None)
def test_log_weights_are_bit_identical_to_the_frozen_reference(n, x, cut):
    np.testing.assert_array_equal(_kernels.log_weights(n, x), _frozen_log_weights(n, x))
    lo, hi = _kernels.support(n, x)
    np.testing.assert_array_equal(
        _kernels.log_weights(n, x, lo, hi), _frozen_log_weights(n, x, lo, hi)
    )
    # an arbitrary sub-range, which may end inside the window or outside it
    lo, hi = sorted((cut % (n + 1), (cut // 7) % (n + 1)))
    np.testing.assert_array_equal(
        _kernels.log_weights(n, x, lo, hi), _frozen_log_weights(n, x, lo, hi)
    )


def test_the_kept_s_table_is_the_frozen_stirlerr_up_to_its_cap():
    cap = _kernels._STIRLERR_CAP
    table = _kernels._stirlerr_upto(cap - 1)
    assert table.size == cap and not table.flags.writeable
    expected = _frozen_stirlerr(np.arange(float(cap)))
    np.testing.assert_array_equal(table.view(np.int64), expected.view(np.int64))


_SWITCH_DEGREES = [
    8191, 8192, 8193,  # the terms cache's last degree and the next
    2**18 - 1, 2**18, 2**18 + 1,  # the s table's cap
    2**20,
]


def _assert_frozen_bits(n, x, lo=0, hi=None):
    _assert_same_bits(_kernels.log_weights(n, x, lo, hi), _frozen_log_weights(n, x, lo, hi))


def test_a_numpy_integer_degree_grows_the_s_table(monkeypatch):
    monkeypatch.setattr(_kernels, "_stirlerr_kept", [np.empty(0)])
    _kernels._cached_degree_terms.cache_clear()
    _assert_frozen_bits(np.int64(64), 0.3)


@pytest.mark.parametrize("n", _SWITCH_DEGREES)
def test_log_weights_keep_their_bits_at_each_switch(n):
    assert _kernels._STIRLERR_CAP == 2**18 and _kernels._TERMS_MAX_DEGREE == 8192
    _assert_frozen_bits(n, 0.37)
    for x in (0.5, 0.3, 0.1, 0.999):
        _assert_frozen_bits(n, x, *_kernels.support(n, x))


@pytest.mark.parametrize("n", [7, 1024] + _SWITCH_DEGREES)
def test_log_weights_keep_their_bits_on_both_sides_of_the_overflow_test(n):
    # n x just above and just below 2^-1000, where a / m may overflow and
    # errstate hides it; any warning that escapes fails the test
    for x in (2.0**-1000 / n * (1.0 + 2.0**-10), 2.0**-1000 / n * (1.0 - 2.0**-10),
              5e-324, 1e-300, 1.0 - 2.0**-53):
        _assert_frozen_bits(n, x, 0, min(n, 4096))
        _assert_frozen_bits(n, x, *_kernels.support(n, x))


def test_kernel_caches_hold_at_most_their_stated_worst_case(monkeypatch):
    # the s table's 2 MiB and 16 terms blocks of 4 (n - 1) doubles, n <= 8192,
    # 6 MiB in all, and 64 KiB for the Python objects around them
    worst = 6 * 2**20 + 2**16
    monkeypatch.setattr(_kernels, "_stirlerr_kept", [np.empty(0)])
    _kernels._cached_degree_terms.cache_clear()
    top = _kernels._TERMS_MAX_DEGREE
    tracemalloc.start()
    try:
        for n in range(top - 2 * _kernels._TERMS_CACHE_SIZE, top + 1):
            _kernels.log_weights(n, 0.5, *_kernels.support(n, 0.5))
        for n in (_kernels._STIRLERR_CAP - 1, _kernels.MAX_DEGREE):
            _kernels.log_weights(n, 0.5)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _kernels._stirlerr_kept[0].size == _kernels._STIRLERR_CAP
    info = _kernels._cached_degree_terms.cache_info()
    assert info.currsize == _kernels._TERMS_CACHE_SIZE
    assert held <= worst, held


@pytest.mark.parametrize(
    "n", [1, 2, 7, 64, 1499, 1500, 1501, 4096, 8192, 8193, 65536, 2**20]
)
@pytest.mark.parametrize("x", [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 0.999999])
def test_weight_vector_is_the_support_window_of_the_full_weights(n, x):
    # on the window, the bits of the weights every operator sums; outside
    # it, 0.0 in place of weights that hold at most SUPPORT_DELTA together
    w = akrvoro.weight_vector(n, x)
    full = np.exp(_kernels.log_weights(n, x))
    lo, hi = _kernels.support(n, x)
    window = np.exp(_kernels.log_weights(n, x, lo, hi))
    np.testing.assert_array_equal(w[lo : hi + 1].view(np.int64), window.view(np.int64))
    np.testing.assert_array_equal(window.view(np.int64), full[lo : hi + 1].view(np.int64))
    assert not w[:lo].any() and not w[hi + 1 :].any()
    outside = full[:lo].tolist() + full[hi + 1 :].tolist()
    assert math.fsum(outside) <= _kernels.SUPPORT_DELTA


def test_cached_degree_terms_are_read_only():
    for n in (2, 64, 8192):
        for terms in _kernels._cached_degree_terms(n):
            assert terms.shape == (n - 1,)
            with pytest.raises(ValueError):
                terms[0] = 0.0


def _binomial_pmf(n, x):
    """Binomial(n, x) pmf, k = 0..n, by the ratio recurrence at the caller's
    working precision."""
    x = mp.mpf(x)
    ratio = x / (1 - x)
    p = [(1 - x) ** n]
    for k in range(1, n + 1):
        p.append(p[-1] * (n - k + 1) / k * ratio)
    return p


@pytest.mark.parametrize("n", [2, 64, 1024, 8192])
@pytest.mark.parametrize("x", [0.5, 0.3, 0.9, 1e-300, 1.0 - 2.0**-53])
def test_support_drops_at_most_delta_of_the_mass(n, x):
    lo, hi = _kernels.support(n, x)
    with mp.workdps(50):
        p = _binomial_pmf(n, x)
        assert abs(mp.fsum(p) - 1) < mp.mpf("1e-40")
        dropped = mp.fsum(p[:lo]) + mp.fsum(p[hi + 1 :])
        assert dropped <= 1e-20


def test_log_weights_endpoint_branches_exact():
    w0 = np.exp(_kernels.log_weights(9, 0.0))
    w1 = np.exp(_kernels.log_weights(9, 1.0))
    assert w0[0] == 1.0 and np.all(w0[1:] == 0.0)
    assert w1[9] == 1.0 and np.all(w1[:9] == 0.0)


def test_import_leaves_out_scipy_and_numba():
    code = (
        "import sys, akrvoro;"
        "print(sorted(m for m in ('scipy', 'numba') if m in sys.modules))"
    )
    src = str(Path(akrvoro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
    # the limits need exact partials; there is no finite-difference module
    with pytest.raises(ImportError):
        importlib.import_module("akrvoro.fd")
    assert "finite_difference_partials" not in akrvoro.__all__
    # one function type and coordinate-tuple points for every arity
    assert "Function" in akrvoro.__all__
    for gone in ("Function1D", "Function2D", "SquarePoint"):
        assert gone not in akrvoro.__all__
        assert not hasattr(akrvoro, gone)
    # one operator and one limit for every arity, and no per-arity names
    assert {"apply", "limit"} <= set(akrvoro.__all__)
    assert not [n for n in akrvoro.__all__ if n.endswith("_apply") or "_rhs" in n]
    # results are plain values: the node array, and the |G| bound a field
    # of the decomposition
    for module, gone in ((akrvoro, "NodeTable"), (akrvoro.akr, "NodeTable"),
                         (akrvoro, "g_bound"), (akrvoro.asymptotics, "g_bound")):
        assert not hasattr(module, gone)


# every module but __main__, which runs the CLI when imported
MODULES = ["akrvoro"] + [
    f"akrvoro.{m.name}" for m in pkgutil.iter_modules(akrvoro.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_export_lists_resolve(name):
    # a name in __all__ that the module lacks breaks `import *`
    namespace = {}
    exec(f"from {name} import *", namespace)
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert [n for n in exported if n not in namespace] == []


def test_check_degree_bounds():
    assert _kernels.check_degree(np.int64(5)) == 5
    assert _kernels.check_degree(_kernels.MAX_DEGREE) == _kernels.MAX_DEGREE
    assert _kernels.check_degree(2, 2) == 2
    for n, least in ((0, 1), (1, 2), (_kernels.MAX_DEGREE + 1, 1), (10**15, 1)):
        with pytest.raises(akrvoro.DomainError):
            _kernels.check_degree(n, least)


def test_check_order_bounds():
    assert _kernels.check_order(_kernels.MAX_ORDER) == _kernels.MAX_ORDER
    assert 64 <= _kernels.MAX_ORDER <= _kernels.MAX_DEGREE
    with pytest.raises(akrvoro.DomainError, match="order j must be <= 1024, got 1025"):
        _kernels.check_order(_kernels.MAX_ORDER + 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: akrvoro.build_node_table(2**20, 2**20),
        lambda: akrvoro.apply(akrvoro.lookup("e1").function, 65536, 65536, 0.5),
        lambda: akrvoro.fixed_point_error(2**20, 2**20, 2),
        lambda: akrvoro.limit(akrvoro.lookup("e1").function, 0.5, 2**20),
        lambda: akrvoro.residual_series("akr-1d", akrvoro.lookup("e1").function, 0.5,
                                        n0=2**16, doublings=3, j=2**16),
    ],
)
def test_an_order_past_the_cap_is_refused_before_any_work(call, monkeypatch):
    def no_nodes(*args, **kwargs):
        raise AssertionError("nodes were computed")

    monkeypatch.setattr("akrvoro.akr._node_formula", no_nodes)
    with pytest.raises(akrvoro.DomainError, match="order j must be <= 1024"):
        call()


def test_a_grid_past_the_cap_is_refused_before_any_weight(monkeypatch):
    def no_weights(*args):
        raise AssertionError("weights were computed")

    monkeypatch.setattr("akrvoro.akr.log_weights", no_weights)
    assert _kernels.MAX_GRID == 16 * 101
    for size in (_kernels.MAX_GRID + 1, 10**9):
        message = f"^grid size must be <= 1616, got {size}$"
        with pytest.raises(akrvoro.DomainError, match=message):
            akrvoro.fixed_point_error(8, 2, size)


_E3 = akrvoro.lookup("e3").function


@pytest.mark.parametrize(
    "call",
    [
        lambda v: akrvoro.apply(_E3, v, 2, 0.3),
        lambda v: akrvoro.apply(_E3, 8, v, 0.3),
        lambda v: akrvoro.build_node_table(v, 2).tolist(),
        lambda v: akrvoro.build_node_table(8, v).tolist(),
        lambda v: akrvoro.remainder(v, 2),
        lambda v: akrvoro.remainder(4, v),
        lambda v: akrvoro.remainder(4, [1, v]).tolist(),
        lambda v: akrvoro.basis_weight(v, 2, 0.3),
        lambda v: akrvoro.basis_weight(8, v, 0.3),
        lambda v: akrvoro.weight_vector(v, 0.3).tolist(),
        lambda v: akrvoro.fixed_point_error(8, 2, v),
        *(
            lambda v, kw=kw: akrvoro.residual_series(
                "akr-1d", _E3, 0.3, **{"n0": 4, "doublings": 2, **{kw: v}}
            ).entries
            for kw in ("n0", "doublings", "j")
        ),
    ],
)
@pytest.mark.parametrize(
    "good, bad", [(2, 2.5), (2, 2.7), (3, 3.5), (4, "a"), (3, None), (2, math.nan)]
)
def test_integral_arguments_are_checked_not_truncated(call, good, bad):
    with pytest.raises(akrvoro.DomainError, match="must be integral"):
        call(bad)
    for same in (np.int64(good), float(good), np.float64(good)):
        assert call(same) == call(good)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: akrvoro.weight_vector(0, 0.3), "degree must be >= 1, got 0"),
        (lambda: akrvoro.remainder(1, 0), "degree must be >= 2, got 1"),
        (lambda: akrvoro.apply(_E3, 8, 0, 0.3), "order j must be >= 1, got 0"),
        (lambda: akrvoro.build_node_table(8, 0), "order j must be >= 1, got 0"),
        (lambda: akrvoro.fixed_point_error(8, 2, 1), "grid size must be >= 2, got 1"),
        (lambda: akrvoro.residual_series("akr-1d", _E3, 0.3, n0=2, doublings=2, j=3),
         "n0 must be >= 3, got 2"),
    ],
)
def test_lower_bounds_share_one_rule_and_message(call, message):
    with pytest.raises(akrvoro.DomainError, match=f"^{re.escape(message)}$"):
        call()


_E1 = akrvoro.lookup("e1").function


@pytest.mark.parametrize(
    "call, array",
    [
        (lambda a: akrvoro.weight_vector(a, 0.3), [4, 8]),
        (lambda a: akrvoro.build_node_table(a, 2), [4, 8]),
        (lambda a: akrvoro.fixed_point_error(16, 2, a), [3, 4]),
        (lambda a: akrvoro.residual_series("akr-1d", _E1, 0.5, doublings=a), [3, 4]),
        (lambda a: acceptance.check_limit("akr-1d", _E1, 0.5, 1e-2, doublings=a),
         [3, 4]),
        (lambda a: acceptance.run_all([a]), [1, 2]),
    ],
    ids=["weight_vector", "build_node_table", "fixed_point_error",
         "residual_series", "check_limit", "run_all"],
)
def test_an_array_where_one_value_is_expected_is_a_domain_error(call, array):
    with pytest.raises(akrvoro.DomainError, match=r"must be integral, got array\("):
        call(np.array(array))


_ORDER_CALLS = {
    "apply": lambda j: akrvoro.apply(_E3, 8, j, 0.3),
    "limit": lambda j: akrvoro.limit(_E3, 0.3, j),
    "build_node_table": lambda j: akrvoro.build_node_table(8, j),
    "fixed_point_error": lambda j: akrvoro.fixed_point_error(8, j, 11),
    "residual_series": lambda j: akrvoro.residual_series(
        "akr-1d", _E3, 0.3, n0=8, doublings=3, j=j),
    "check_limit": lambda j: acceptance.check_limit(
        "akr-1d", _E3, 0.3, 1e-2, n0=8, doublings=3, j=j),
}


@pytest.mark.parametrize("name", list(_ORDER_CALLS))
def test_every_entry_point_takes_order_one_and_refuses_order_zero(name):
    # one order rule: j = 1 is the Bernstein operator everywhere
    _ORDER_CALLS[name](1)
    with pytest.raises(akrvoro.DomainError, match=r"^order j must be >= 1, got 0$"):
        _ORDER_CALLS[name](0)


_TOO_BIG = 10**15
_ONES_1D = akrvoro.Function(eval=np.ones_like)
_ONES_2D = akrvoro.Function(eval=lambda s, t: 1.0,
                            partials=((lambda s, t: 0.0,), (lambda s, t: 0.0,)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: akrvoro.basis_weight(_TOO_BIG, 0, 0.5),
        lambda: akrvoro.weight_vector(_TOO_BIG, 0.5),
        lambda: akrvoro.apply(_ONES_1D, _TOO_BIG, 1, 0.5),
        lambda: akrvoro.apply(_ONES_1D, _TOO_BIG, 2, 0.5),
        lambda: akrvoro.build_node_table(_TOO_BIG, 2),
        lambda: akrvoro.fixed_point_error(_TOO_BIG, 2, 3),
        lambda: akrvoro.remainder(_TOO_BIG, 0),
        lambda: akrvoro.apply(_ONES_2D, _TOO_BIG, 1, (0.5, 0.5)),
        lambda: akrvoro.apply(_ONES_2D, _TOO_BIG, 2, (0.5, 0.5)),
        lambda: akrvoro.lemma_sum(_TOO_BIG, 0.5),
        lambda: akrvoro.decomposition(_ONES_2D, _TOO_BIG, (0.5, 0.5)),
    ],
)
def test_every_operator_refuses_a_degree_past_the_cap(call):
    with pytest.raises(akrvoro.DomainError, match="degree must be <="):
        call()


# more digits than str() converts (4300), so the message must not print it
_HUGE = 10**5000


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: akrvoro.build_node_table(_HUGE, 2),
         "degree must be <= 1048576, got 10^5000.0"),
        (lambda: akrvoro.weight_vector(_HUGE, 0.5),
         "degree must be <= 1048576, got 10^5000.0"),
        (lambda: akrvoro.weight_vector(-_HUGE, 0.5),
         "degree must be >= 1, got -10^5000.0"),
        (lambda: akrvoro.residual_series("akr-1d", _E3, 0.5, n0=_HUGE),
         "schedule's last degree must be <= 1048576, got n0 * 2^doublings with "
         "n0 = 10^5000.0, doublings = 7"),
        (lambda: acceptance.check_limit("lemma-sum", None, 0.5, 0.01, doublings=-_HUGE),
         "extrapolation needs at least 4 series entries (doublings >= 3), got "
         "-10^5000.0"),
    ],
)
def test_a_huge_integer_is_refused_with_a_bounded_message(call, message):
    with pytest.raises(akrvoro.DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_check_schedule_returns_the_doubling_degrees():
    assert _kernels.check_schedule(64, 3) == [64, 128, 256, 512]
    assert _kernels.check_schedule(8.0, np.int64(0)) == [8]
    assert _kernels.check_schedule(1, 20, least=1)[-1] == _kernels.MAX_DEGREE
    assert all(type(n) is int for n in _kernels.check_schedule(np.int64(3), 2))


@pytest.mark.parametrize(
    "n0, doublings, message",
    [
        (64, 15, "got n0 * 2^doublings with n0 = 64, doublings = 15"),
        (2, 20, "got n0 * 2^doublings with n0 = 2, doublings = 20"),
        (2, 21, "got n0 * 2^doublings with n0 = 2, doublings = 21"),
        (2, 20000, "got n0 * 2^doublings with n0 = 2, doublings = 20000"),
        # 2^doublings would take more memory than there is: refused before
        (2, 10**30, "got n0 * 2^doublings with n0 = 2, doublings = 10^30.0"),
        (2, -1, "doublings must be >= 0, got -1"),
        (-1, 1, "n0 must be >= 2, got -1"),
        (2, 1.5, "doublings must be integral, got 1.5"),
    ],
)
def test_check_schedule_names_n0_and_doublings(n0, doublings, message):
    with pytest.raises(akrvoro.DomainError, match=re.escape(message)):
        _kernels.check_schedule(n0, doublings)


# --------------------------------------------------------------------------
# The small ufunc buffer of the outer-broadcast loops.
# --------------------------------------------------------------------------


def test_small_ufunc_buffer_gives_back_the_callers_size():
    before = np.getbufsize()
    assert before != _kernels.SMALL_UFUNC_BUFFER
    with _kernels.small_ufunc_buffer():
        assert np.getbufsize() == _kernels.SMALL_UFUNC_BUFFER
    assert np.getbufsize() == before
    # a size the caller set itself comes back too
    np.setbufsize(4096)
    try:
        with _kernels.small_ufunc_buffer():
            assert np.getbufsize() == _kernels.SMALL_UFUNC_BUFFER
        assert np.getbufsize() == 4096
    finally:
        np.setbufsize(before)


def test_small_ufunc_buffer_is_given_back_when_the_operator_raises():
    seen = []

    def failing(s, t):
        seen.append(np.getbufsize())
        raise RuntimeError("f failed")

    before = np.getbufsize()
    with pytest.raises(RuntimeError, match="f failed"):
        akrvoro.apply(akrvoro.Function(eval=failing), 64, 2, (0.3, 0.6))
    assert seen == [_kernels.SMALL_UFUNC_BUFFER]
    assert np.getbufsize() == before


def test_a_nested_errstate_keeps_the_small_buffer():
    err = np.geterr()
    with _kernels.small_ufunc_buffer():
        # as akr._node_formula takes the log of k = 0
        with np.errstate(divide="ignore"):
            assert np.getbufsize() == _kernels.SMALL_UFUNC_BUFFER
            assert np.log(np.zeros(3))[0] == -np.inf
        assert np.getbufsize() == _kernels.SMALL_UFUNC_BUFFER
        assert np.geterr() == err


def test_criterion_2_sweeps_under_the_small_buffer(monkeypatch):
    seen = set()

    # the sweep's one formula call per block, which computes its nodes too;
    # its buffers and kept factors are passed on unchanged
    def remainder_formula(k, n, **kept):
        seen.add(np.getbufsize())
        assert kept.keys() == {"out", "drift", "root", "scratch", "factors"}
        return _remainder_formula(k, n, **kept)

    monkeypatch.setattr(acceptance, "_remainder_formula", remainder_formula)
    passed, _ = acceptance.criterion_2()
    assert passed
    assert seen == {_kernels.SMALL_UFUNC_BUFFER}


def _kept_sweep_blocks():
    """Copies of (drift, r, nodes) of the first block of criterion 2's sweep,
    the block that holds degree 2048 and the last block."""
    kept = {}
    for first, n, k, drift, r, nodes in acceptance._remainder_sweep(4096):
        block = tuple(a.copy() for a in (drift, r, nodes))
        if first == 2 or first <= 2048 < first + n.shape[0]:
            kept[first] = block
        kept["last"] = block
    assert len(kept) == 3
    return kept


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def test_sweep_blocks_are_the_same_under_the_default_and_the_small_buffer():
    assert np.getbufsize() != _kernels.SMALL_UFUNC_BUFFER
    default = _kept_sweep_blocks()
    with _kernels.small_ufunc_buffer():
        small = _kept_sweep_blocks()
    assert default.keys() == small.keys()
    for key in default:
        for a, b in zip(default[key], small[key]):
            _assert_same_bits(a, b)


_GRID_COLS = 128
_GRID_TILE = _kernels.CACHE_BLOCK_ELEMENTS // _GRID_COLS  # rows per tile


@pytest.mark.parametrize("partial", ["eval", "partials[0][0]"])
# one tile, four whole tiles, and three tiles and a part
@pytest.mark.parametrize("rows", [_GRID_TILE // 2, 4 * _GRID_TILE, 3 * _GRID_TILE + 7])
def test_grid_reduction_is_the_same_under_the_default_and_the_small_buffer(
    monkeypatch, partial, rows
):
    f = lookup("runge-2d").function
    func = f.eval if partial == "eval" else f.partials[0][0]
    rng = np.random.default_rng(rows)
    s, t = np.sort(rng.random(rows)), np.sort(rng.random(_GRID_COLS))
    wx, wy = rng.random(rows), rng.random(_GRID_COLS)
    seen = set()

    def recorded(s, t):
        seen.add(np.getbufsize())
        return func(s, t)

    def reduce_and_grid():
        return (
            np.array([tensor.tensor_reduce(recorded, s, t, wx, wy)]),
            tensor.eval_grid_block(recorded, s, t),
        )

    small = reduce_and_grid()
    assert seen == {_kernels.SMALL_UFUNC_BUFFER}
    seen.clear()
    monkeypatch.setattr(tensor, "small_ufunc_buffer", contextlib.nullcontext)
    default = reduce_and_grid()
    assert seen == {np.getbufsize()} != {_kernels.SMALL_UFUNC_BUFFER}
    for a, b in zip(default, small):
        _assert_same_bits(a, b)
