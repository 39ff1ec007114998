import math
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from akrvoro import (
    DomainError,
    Function,
    SupBounds,
    apply,
    decomposition,
    lookup,
    residual_series,
)
from akrvoro import akr, asymptotics, tensor
from akrvoro._kernels import CACHE_BLOCK_ELEMENTS, bilinear_accumulate, check_point
from akrvoro.basis import eval_on
from akrvoro.tensor import eval_grid_block


def test_coords_accepts_any_sequence_and_a_bare_number_in_1d():
    assert check_point((0.0, 1.0), 2) == (0.0, 1.0)
    assert check_point([0.25, np.float64(0.75)], 2) == (0.25, 0.75)
    assert check_point(np.array([0.25, 0.75]), 2) == (0.25, 0.75)
    for p in (0.3, np.float64(0.3), np.array(0.3), (0.3,), [0.3]):
        got = check_point(p, 1)
        assert got == (0.3,) and all(type(x) is float for x in got)


def test_coords_takes_the_arity_from_the_point():
    assert check_point(0.3) == check_point([0.3]) == (0.3,)
    pair = (0.25, 0.75)
    assert check_point(pair) == check_point(np.array(pair)) == pair
    for point in ((), (0.1, 0.2, 0.3), "x", None):
        with pytest.raises(DomainError, match=r"must have 1 or 2 numeric"):
            check_point(point)
    with pytest.raises(DomainError, match=r"must lie in \[0, 1\]\^2"):
        check_point((0.5, 1.5))


@pytest.mark.parametrize(
    "point, arity",
    [
        ((-0.1, 0.5), 2),
        ((0.5, 1.1), 2),
        ((0.5, math.nan), 2),
        ((0.5,), 2),
        ((0.5, 0.5, 0.5), 2),
        (0.5, 2),
        (("a", 0.5), 2),
        ((None, 0.5), 2),
        (1.5, 1),
        (-0.0001, 1),
        (math.nan, 1),
        ((0.3, 0.4), 1),
        ((), 1),
        ("x", 1),
        (None, 1),
        ([0.5, [0.1, 0.2]], 1),
        # text is not a number, even text that float() would read
        ("0.4", None),
        (b"0.4", 1),
        (("0.3",), 1),
        ((0.3, "0.7"), 2),
        (np.array(["0.3"]), 1),
        (np.array("0.3"), None),
    ],
)
def test_coords_refuses_a_point_of_the_wrong_shape_or_range(point, arity):
    with pytest.raises(DomainError):
        check_point(point, arity)


def test_tensor_bernstein_frozen_values():
    const = lookup("monomial(0,0)").function
    assert apply(const, 16, 1, (0.3, 0.7)) == pytest.approx(1.0, abs=1e-13)
    st = lookup("monomial(1,1)").function
    assert apply(st, 8, 1, (0.4, 0.6)) == pytest.approx(0.24, abs=1e-13)
    s2 = lookup("monomial(2,0)").function
    assert apply(
        replace(s2, factors=None), 2, 1, (0.5, 0.5)
    ) == pytest.approx(0.375, abs=1e-14)


def test_tensor_bernstein_square_against_rational_brute_force():
    # nine-term sum at n = 2 in exact rational arithmetic
    x = y = Fraction(1, 2)
    oracle = sum(
        Fraction(math.comb(2, k)) * x**k * (1 - x) ** (2 - k)
        * Fraction(math.comb(2, l)) * y**l * (1 - y) ** (2 - l)
        * Fraction(k, 2) ** 2
        for k in range(3)
        for l in range(3)
    )
    s2 = replace(lookup("monomial(2,0)").function, factors=None)
    got = apply(s2, 2, 1, (0.5, 0.5))
    assert got == pytest.approx(float(oracle), abs=1e-14)


def test_tensor_akr_frozen_values():
    const = lookup("monomial(0,0)").function
    assert apply(const, 8, 2, (0.3, 0.9)) == pytest.approx(1.0, abs=1e-13)
    s2 = lookup("monomial(2,0)").function
    assert apply(s2, 32, 2, (0.4, 0.9)) == pytest.approx(0.16, abs=1e-12)
    st = lookup("monomial(1,1)").function
    assert apply(st, 2, 2, (0.5, 0.5)) == pytest.approx(0.0625, abs=1e-15)
    # general path must agree with the product fast path
    assert apply(
        replace(st, factors=None), 2, 2, (0.5, 0.5)
    ) == pytest.approx(0.0625, abs=1e-14)


@pytest.mark.parametrize(
    "name, point",
    [("e2", 0.3), ("exp-sum", (0.7, 0.3)), ("runge-2d", (0.7, 0.3))],
    ids=["1-d", "separable", "double-sum"],
)
@pytest.mark.parametrize("j", [1, 2])
def test_apply_returns_a_plain_float_on_every_path(name, point, j):
    assert type(apply(lookup(name).function, 64, j, point)) is float


def test_domain_errors():
    f = lookup("monomial(1,1)").function
    with pytest.raises(DomainError):
        apply(f, 0, 1, (0.5, 0.5))
    with pytest.raises(DomainError):
        apply(f, 1, 2, (0.5, 0.5))
    with pytest.raises(DomainError):
        apply(f, 8, 2, (1.5, 0.5))


@pytest.mark.parametrize("name", ["exp-sum", "sinpix-cospiy", "monomial(2,3)"])
@pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
def test_separable_fast_path_matches_general_sum(name, n):
    f = lookup(name).function
    assert f.factors is not None
    double_sum = replace(f, factors=None)
    for point in ((0.21, 0.83), (0.5, 0.5), (1.0, 0.35)):
        for fast, general in (
            (apply(f, n, 1, point),
             apply(double_sum, n, 1, point)),
            (apply(f, n, 2, point),
             apply(double_sum, n, 2, point)),
        ):
            assert general == pytest.approx(fast, rel=1e-12, abs=1e-12)


def test_separable_fast_path_is_the_1d_product():
    f = lookup("exp-sum").function
    g, h = f.factors
    got = apply(f, 16, 2, (0.3, 0.8))
    assert got == apply(g, 16, 2, 0.3) * apply(h, 16, 2, 0.8)
    got = apply(f, 16, 1, (0.3, 0.8))
    assert got == apply(g, 16, 1, 0.3) * apply(h, 16, 1, 0.8)


@pytest.mark.parametrize("count", [1, 3])
def test_factors_not_one_per_axis_are_a_domain_error(count):
    # zipped with the axes' windows, one factor dropped the second axis
    # (2.0123 against 2.7056 here) and a third was cut off
    f = lookup("exp-sum").function
    with pytest.raises(DomainError, match=f"'partials': 2, .*'factors': {count}"):
        wrong = replace(f, factors=(f.factors * 2)[:count])
        apply(wrong, 64, 2, (0.7, 0.3))
    with pytest.raises(DomainError, match=r"f has arity 2, but the point has 1 coordinate"):
        apply(f, 64, 2, 0.7)


_EV = lambda s, t: s + t
_E3 = lookup("e3").function


def test_arity_is_read_from_the_tables_f_declares():
    assert Function(eval=np.exp).arity is None
    assert Function(eval=_EV, partials=((_EV,), (_EV,))).arity == 2
    assert Function(eval=_EV, partials=((_EV, _EV),) * 3).arity == 3
    assert Function(eval=_EV, sup_bounds=SupBounds(((1.0,),))).arity == 1
    assert Function(eval=_EV, factors=(_E3, _E3)).arity == 2
    f = lookup("exp-sum").function
    assert replace(f, factors=None).arity == 2
    with pytest.raises(TypeError):
        Function(eval=_EV, arity=2)


@pytest.mark.parametrize(
    "tables, message",
    [
        (dict(partials=((_EV, _EV),), sup_bounds=SupBounds(((1.0, 1.0), (1.0, 1.0)))),
         "got {'partials': 1, 'sup bounds': 2}"),
        (dict(partials=((_EV,), (_EV,)), sup_bounds=SupBounds(((1.0,),))),
         "got {'partials': 2, 'sup bounds': 1}"),
        (dict(partials=((_EV,), (_EV,)), factors=(_E3,) * 3),
         "got {'partials': 2, 'factors': 3}"),
        (dict(factors=(_E3, lookup("runge-2d").function)),
         "factors must each have arity 1, got [1, 2]"),
        (dict(factors=(_E3, Function(eval=np.exp))),
         "factors must each have arity 1, got [1, None]"),
    ],
    ids=["partials", "sup bounds", "factors", "factor of 2", "factor of none"],
)
def test_tables_of_different_arities_are_refused_at_construction(tables, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        Function(eval=_EV, **tables)


def test_rows_of_partials_may_differ_in_length():
    # a row holds the partials of its axis up to the highest order declared
    assert Function(eval=_EV, partials=((_EV, _EV), (_EV,))).arity == 2
    assert Function(eval=_EV, partials=((), (None, _EV), (_EV,))).arity == 3


@pytest.mark.parametrize(
    "tables, message",
    [
        (dict(partials=np.cos), "f's partials must be a sequence, got ufunc"),
        (dict(partials=(np.cos,)), "f's partials[0] must be a sequence, got ufunc"),
        (dict(partials=((_EV,), None)), "f's partials[1] must be a sequence, got NoneType"),
        (dict(partials={0: (_EV,)}), "f's partials must be a sequence, got dict"),
        (dict(factors=_E3), "f's factors must be a sequence, got Function"),
    ],
    ids=["table", "row", "None row", "dict", "factors"],
)
def test_a_table_or_row_that_is_not_a_sequence_is_refused_at_construction(tables, message):
    # such a table once raised a raw TypeError from len(), and a dict's keys
    # were read as its rows
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        Function(eval=np.sin, **tables)


@pytest.mark.parametrize("hess", [((1.0, 1.0), (1.0,)), ((1.0, 1.0),), ((1.0,), (1.0,))])
def test_sup_bounds_not_d_rows_of_d_are_refused_at_construction(hess):
    # a ragged table once reached taylor_constant, which raised IndexError
    with pytest.raises(DomainError, match="sup bounds must be d rows of d"):
        SupBounds(hess).taylor_constant()


@pytest.mark.parametrize("table", ["partials", "factors"])
def test_an_empty_table_is_refused_at_construction(table):
    # an empty table once gave arity 0, which every point refused
    with pytest.raises(DomainError, match=f"f's {table} table is empty"):
        Function(eval=_EV, **{table: ()})
    assert Function(eval=_EV).arity is None


def test_empty_sup_bounds_are_refused_at_construction():
    # they were accepted, with taylor_constant() 0
    with pytest.raises(DomainError, match="sup bounds must be d rows of d for some d >= 1"):
        SupBounds(())


@pytest.mark.parametrize("n", [1, 2, 16, 128, 1024])
def test_partition_of_unity_on_square(n):
    const = replace(lookup("monomial(0,0)").function, factors=None)
    for point in ((0.5, 0.5), (0.05, 0.93)):
        got = apply(const, n, 1, point)
        assert got == pytest.approx(1.0, abs=1e-12)
        if n >= 2:
            got = apply(const, n, 2, point)
            assert got == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 16, 256])
def test_akr_tensor_fixed_point_set(n):
    # 1, s^2, t^2 and s^2 t^2 are all reproduced exactly for j = 2
    cases = {
        "monomial(0,0)": lambda x, y: 1.0,
        "monomial(2,0)": lambda x, y: x**2,
        "monomial(0,2)": lambda x, y: y**2,
        "monomial(2,2)": lambda x, y: x**2 * y**2,
    }
    for name, target in cases.items():
        f = replace(lookup(name).function, factors=None)
        for point in ((0.3, 0.7), (1.0, 0.2)):
            got = apply(f, n, 2, point)
            assert got == pytest.approx(target(*point), abs=1e-12)


def test_blocked_reduction_matches_direct_double_sum():
    f = lookup("runge-2d").function
    n = 100
    got = apply(f, n, 1, (0.41, 0.77))
    u = np.arange(n + 1) / n
    from akrvoro.basis import weight_vector

    wx = weight_vector(n, 0.41)
    wy = weight_vector(n, 0.77)
    grid = f.eval(u[:, None], u[None, :])
    oracle = math.fsum((wx[:, None] * grid * wy[None, :]).ravel())
    assert got == pytest.approx(oracle, rel=1e-13)


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


_COLS = 100
_TILE = CACHE_BLOCK_ELEMENTS // _COLS  # rows per tile at _COLS columns


@pytest.mark.parametrize("name", ["runge-2d", "exp-sum", "sinpix-cospiy", "monomial(2,3)"])
@pytest.mark.parametrize(
    "rows, cols",
    [(r, _COLS) for r in (1, _TILE - 1, _TILE, _TILE + 1, 3 * _TILE + 7)]
    # rows wider than a tile are evaluated one at a time
    + [(3, CACHE_BLOCK_ELEMENTS + 5)],
)
def test_tiled_grid_equals_the_one_shot_grid_bit_for_bit(name, rows, cols):
    func = lookup(name).function.eval
    rng = np.random.default_rng(rows)
    s, t = rng.random(rows), rng.random(cols)
    got = eval_grid_block(func, s, t)
    assert got.flags.c_contiguous and got.dtype == np.float64
    _assert_same_bits(got, np.asarray(func(s[:, None], t[None, :]), dtype=np.float64))


_REDUCE_ROWS, _REDUCE_COLS = 50, 37


@pytest.mark.parametrize("name", ["runge-2d", "exp-sum", "sinpix-cospiy"])
@pytest.mark.parametrize(
    "block_elements, block_rows",
    [
        # below one row, and exactly one row: blocks of one row each
        (1, [1] * 50),
        (_REDUCE_COLS, [1] * 50),
        (2 * _REDUCE_COLS, [2] * 25),
        # uneven last blocks
        (7 * _REDUCE_COLS, [7] * 7 + [1]),
        (13 * _REDUCE_COLS + 5, [13] * 3 + [11]),
    ],
)
def test_multi_block_reduction_matches_an_fsum_reference(
    name, block_elements, block_rows, monkeypatch
):
    # tensor_reduce carries its Kahan state from block to block; the default
    # blocks of 2^22 cells bind only from n of about 45000 on the square
    func = lookup(name).function.eval
    rng = np.random.default_rng(block_elements)
    s, t = rng.random(_REDUCE_ROWS), rng.random(_REDUCE_COLS)
    wx, wy = rng.random(_REDUCE_ROWS), rng.standard_normal(_REDUCE_COLS)
    terms = (func(s[:, None], t[None, :]) * wx[:, None] * wy[None, :]).ravel()
    value, scale = math.fsum(terms.tolist()), math.fsum(np.abs(terms).tolist())
    rows = []

    def spy(block, wx_block, wy, state):
        rows.append(block.shape[0])
        bilinear_accumulate(block, wx_block, wy, state)

    monkeypatch.setattr(tensor, "_BLOCK_ELEMENTS", block_elements)
    monkeypatch.setattr(tensor, "bilinear_accumulate", spy)
    got = tensor.tensor_reduce(func, s, t, wx, wy)
    assert rows == block_rows
    # as in tests/test_window.py: BLAS row sums depend on a block's row
    # count, so the bound is relative to sum |terms|, not the one-block bits
    assert abs(got - value) <= 1e-14 * scale, (got, value, scale)


def test_scalar_valued_grid_is_a_contiguous_block():
    # the one-shot block was a zero-stride broadcast view of the scalar; the
    # values are the same, but BLAS now reads a contiguous block
    got = eval_grid_block(lambda s, t: 2.5, np.linspace(0, 1, 7), np.linspace(0, 1, 9))
    assert got.flags.c_contiguous and got.flags.writeable
    _assert_same_bits(got, np.broadcast_to(np.float64(2.5), (7, 9)).copy())


@pytest.mark.parametrize("point", [(0.3,), (0.2, 0.9)], ids=["1d", "2d"])
def test_nonvectorized_constant_return_is_broadcast(point):
    f = Function(eval=lambda *coords: 1.0)
    assert apply(f, 8, 1, point) == pytest.approx(1.0, abs=1e-13)
    # every node gets the value: eval_on on [0, 1], eval_grid_block on the square
    nodes = np.linspace(0.0, 1.0, 9)
    if len(point) == 1:
        got = eval_on(f.eval, nodes)
    else:
        got = eval_grid_block(f.eval, nodes, nodes)
    assert got.shape == (9,) * len(point) and np.all(got == 1.0)


def test_general_path_against_high_precision_oracle():
    import mpmath as mp

    n = 24
    x, y = mp.mpf(0.3), mp.mpf(0.7)

    def w(k, t):
        return mp.binomial(n, k) * t**k * (1 - t) ** (n - k)

    def node(k):
        return mp.sqrt(mp.mpf(k * (k - 1)) / (n * (n - 1)))

    def runge(s, t):
        return 1 / (1 + 25 * (s - mp.mpf(0.5)) ** 2 + 25 * (t - mp.mpf(0.5)) ** 2)

    f = lookup("runge-2d").function
    with mp.workdps(40):
        exact_akr = float(
            mp.fsum(
                w(k, x) * w(l, y) * runge(node(k), node(l))
                for k in range(n + 1)
                for l in range(n + 1)
            )
        )
        exact_bern = float(
            mp.fsum(
                w(k, x) * w(l, y) * runge(mp.mpf(k) / n, mp.mpf(l) / n)
                for k in range(n + 1)
                for l in range(n + 1)
            )
        )
    got = apply(f, n, 2, (0.3, 0.7))
    assert got == pytest.approx(exact_akr, rel=1e-14)
    got = apply(f, n, 1, (0.3, 0.7))
    assert got == pytest.approx(exact_bern, rel=1e-14)


# --------------------------------------------------------------------------
# The memo of one acceptance run.
# --------------------------------------------------------------------------


def test_a_bare_drift_series_computes_both_weight_vectors_at_every_degree(
    tensor_log_weights_calls,
):
    # outside a memo scope the two operators of each degree share nothing
    calls = tensor_log_weights_calls
    residual_series("akr-minus-bernstein-2d", lookup("runge-2d").function, (0.7, 0.3),
                    n0=16, doublings=3)
    degrees = Counter((n, x) for n, x, _, _ in calls.elements())
    assert sorted(degrees) == [(16 * 2**m, x) for m in range(4) for x in (0.3, 0.7)]
    assert set(degrees.values()) == {2}


def test_weights_kept_in_the_memo_are_read_only():
    with tensor.memo_scope():
        _, _, windows = tensor._axis_windows(64, (0.5, 0.3))
        for _, w in windows:
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
    _, _, windows = tensor._axis_windows(64, (0.5, 0.3))
    assert all(w.flags.writeable for _, w in windows)


def test_a_memo_scope_shares_its_values_and_is_dropped_on_exit(tensor_log_weights_calls):
    f = lookup("runge-2d").function
    calls = tensor_log_weights_calls
    expected = apply(f, 64, 2, (0.7, 0.3))
    calls.clear()
    with pytest.raises(RuntimeError):
        with tensor.memo_scope():
            assert apply(f, 64, 2, (0.7, 0.3)) == expected
            with tensor.memo_scope():  # an inner scope shares the outer memo
                assert apply(f, 64, 2, (0.7, 0.3)) == expected
                assert apply(f, 64, 1, (0.7, 0.3)) == apply(f, 64, 1, (0.7, 0.3))
            assert tensor._MEMO.get() is not None
            raise RuntimeError("boom")
    assert sum(calls.values()) == 2
    assert tensor._MEMO.get() is None
    apply(f, 64, 2, (0.7, 0.3))
    assert sum(calls.values()) == 4


def test_one_decomposition_builds_each_orders_node_table_once(monkeypatch):
    calls = Counter()
    build = akr.build_node_table

    def counted(n, j=2, lo=0, hi=None):
        calls[n, j, lo, hi] += 1
        return build(n, j, lo, hi)

    # every module that binds it
    for module in (akr, asymptotics, tensor):
        if hasattr(module, "build_node_table"):
            monkeypatch.setattr(module, "build_node_table", counted)
    f = lookup("runge-2d").function
    # the drift terms' tables serve the total's two operators
    decomposition(f, 256, (0.7, 0.3))
    assert sorted(j for _, j, _, _ in calls) == [1, 2]
    assert set(calls.values()) == {1}
    # outside a scope each operator builds its own table
    calls.clear()
    assert apply(f, 256, 2, (0.7, 0.3)) == apply(f, 256, 2, (0.7, 0.3))
    assert list(calls.values()) == [2]
