import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import akrvoro
from akrvoro import _kernels


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
    exact = math.fsum(np.multiply(a, b))
    assert _kernels.comp_dot(a, b) == pytest.approx(exact, abs=1e-13)


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


_MODERATE = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_bilinear_accumulate_equals_the_numpy_scalar_loop(data):
    rows = data.draw(st.integers(min_value=0, max_value=40))
    cols = data.draw(st.integers(min_value=1, max_value=12))
    block = data.draw(hnp.arrays(np.float64, (rows, cols), elements=_MODERATE))
    wx = data.draw(hnp.arrays(np.float64, rows, elements=_MODERATE))
    wy = data.draw(hnp.arrays(np.float64, cols, elements=_MODERATE))
    got = data.draw(hnp.arrays(np.float64, 2, elements=_MODERATE))
    frozen = got.copy()
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        # the state carries over from block to block
        _kernels.bilinear_accumulate(block, wx, wy, got)
        _frozen_bilinear_accumulate(block, wx, wy, frozen)
    np.testing.assert_array_equal(got.view(np.int64), frozen.view(np.int64))


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
        st.sampled_from([8192, 8193, 65536]),
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


def test_check_degree_bounds():
    assert _kernels.check_degree(np.int64(5)) == 5
    assert _kernels.check_degree(_kernels.MAX_DEGREE) == _kernels.MAX_DEGREE
    assert _kernels.check_degree(2, 2) == 2
    for n, least in ((0, 1), (1, 2), (_kernels.MAX_DEGREE + 1, 1), (10**15, 1)):
        with pytest.raises(akrvoro.DomainError):
            _kernels.check_degree(n, least)


_E3 = akrvoro.lookup("e3").function


@pytest.mark.parametrize(
    "call",
    [
        lambda v: akrvoro.apply(_E3, v, 2, 0.3),
        lambda v: akrvoro.apply(_E3, 8, v, 0.3),
        lambda v: akrvoro.build_node_table(v, 2).nodes.tolist(),
        lambda v: akrvoro.build_node_table(8, v).nodes.tolist(),
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


_TOO_BIG = 10**15
_ONES_1D = akrvoro.Function(eval=np.ones_like)
_ONES_2D = akrvoro.Function(eval=lambda s, t: 1.0,
                            grad=(lambda s, t: 0.0, lambda s, t: 0.0))


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
