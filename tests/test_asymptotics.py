import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from akrvoro import (
    CapabilityError,
    ConvergenceSeries,
    DomainError,
    Function,
    SupBounds,
    apply,
    decomposition,
    extrapolate,
    lemma_sum,
    limit,
    lookup,
    residual_series,
)
from akrvoro.acceptance import check_limit
from akrvoro.asymptotics import KINDS


def drift_limit(f, point):
    return KINDS["akr-minus-bernstein-2d"].limit(f, point, 2)


# --------------------------------------------------------------------------
# lemma_sum
# --------------------------------------------------------------------------


def test_lemma_sum_frozen_values():
    # two-term brute force at n=2: 2 * (w1 R(2,1) + w2 R(2,2))
    assert lemma_sum(2, 0.5) == pytest.approx(0.375, rel=1e-13)
    assert lemma_sum(100, 1.0) == 0.0


def test_lemma_sum_brute_force_small_degree():
    from akrvoro import remainder, weight_vector

    n, x = 7, 0.3
    w = weight_vector(n, x)
    oracle = n * math.fsum(w[k] * remainder(n, k) for k in range(1, n + 1))
    assert lemma_sum(n, x) == pytest.approx(oracle, rel=1e-14, abs=1e-18)


def test_lemma_sum_positive_and_decreasing():
    values = [lemma_sum(n, 0.5) for n in (64, 256, 1024, 4096)]
    assert all(v >= -1e-13 for v in values)
    assert values == sorted(values, reverse=True)
    assert values[-1] < 1e-3


def test_lemma_sum_domain_errors():
    with pytest.raises(DomainError):
        lemma_sum(1, 0.5)
    with pytest.raises(DomainError):
        lemma_sum(16, 0.0)
    with pytest.raises(DomainError):
        lemma_sum(16, 1.5)


@pytest.mark.parametrize("x", ["a", "", None, object(), [0.3, 0.4]])
def test_lemma_sum_refuses_a_non_numeric_point(x):
    message = r"^point must have 1 numeric coordinate\(s\), got "
    with pytest.raises(DomainError, match=message):
        lemma_sum(64, x)


# --------------------------------------------------------------------------
# limit expressions
# --------------------------------------------------------------------------


def test_limit_1d_values():
    const1 = lookup("const1").function
    assert limit(const1, 0.37, 2) == 0.0
    e1 = lookup("e1").function
    assert limit(e1, 0.5, 2) == -0.25
    f = Function(eval=np.exp, partials=((np.exp, np.exp),))
    assert limit(f, 0.5, 2) == pytest.approx(-0.125 * math.exp(0.5), rel=1e-15)
    with pytest.raises(DomainError):
        limit(e1, 0.0, 2)


def test_classical_limit_1d_value():
    e2 = lookup("e2").function
    assert limit(e2, 0.5, 1) == pytest.approx(0.25, rel=1e-15)


def test_limit_2d_values():
    const = lookup("monomial(0,0)").function
    assert limit(const, (0.3, 0.9), 2) == 0.0
    es = lookup("exp-sum").function
    assert limit(es, (0.5, 0.5), 2) == pytest.approx(-0.25 * math.e, rel=1e-14)
    s = lookup("monomial(1,0)").function
    for x, y in ((0.25, 0.6), (0.9, 0.9)):
        assert limit(s, (x, y), 2) == pytest.approx(
            -(1.0 - x) / 2.0, rel=1e-14, abs=1e-16
        )
    with pytest.raises(DomainError):
        limit(es, (0.0, 0.5), 2)


def test_classical_limit_2d_values():
    const = lookup("monomial(0,0)").function
    assert limit(const, (0.2, 0.8), 1) == 0.0
    two = lambda s, t: 2.0 + 0.0 * s * t
    s2t2 = Function(
        eval=lambda s, t: s**2 + t**2,
        partials=((lambda s, t: 2.0 * s + 0.0 * t, two),
                  (lambda s, t: 2.0 * t + 0.0 * s, two)),
    )
    assert limit(s2t2, (0.5, 0.5), 1) == pytest.approx(0.5, rel=1e-15)
    es = lookup("exp-sum").function
    assert limit(es, (0.5, 0.5), 1) == pytest.approx(0.25 * math.e, rel=1e-14)


def test_drift_limit_equals_difference_of_limits():
    for name in ("exp-sum", "sinpix-cospiy", "runge-2d"):
        f = lookup(name).function
        for p in ((0.5, 0.5), (0.7, 0.3), (1.0, 0.4)):
            expected = limit(f, p, 2) - limit(f, p, 1)
            assert drift_limit(f, p) == pytest.approx(expected, rel=1e-12, abs=1e-13)


_EVAL_ONLY_1D = Function(eval=np.exp)
_EVAL_ONLY_2D = Function(eval=lambda s, t: np.exp(s + t))


@pytest.mark.parametrize(
    "target, f, point",
    [
        (lambda f, p: limit(f, p, 2), _EVAL_ONLY_1D, 0.5),
        (lambda f, p: limit(f, p, 1), _EVAL_ONLY_1D, 0.5),
        (lambda f, p: limit(f, p, 2), _EVAL_ONLY_2D, (0.5, 0.5)),
        (lambda f, p: limit(f, p, 1), _EVAL_ONLY_2D, (0.5, 0.5)),
        (drift_limit, _EVAL_ONLY_2D, (0.5, 0.5)),
    ],
)
def test_limits_require_exact_partials(target, f, point):
    with pytest.raises(CapabilityError):
        target(f, point)


@pytest.mark.parametrize(
    "call",
    [
        lambda f: limit(f, (0.5, 0.5), 2),
        lambda f: limit(f, (0.5, 0.5), 1),
        lambda f: drift_limit(f, (0.5, 0.5)),
        lambda f: decomposition(f, 64, (0.5, 0.5)),
    ],
)
def test_a_1d_function_at_a_point_of_the_square_is_a_domain_error(call):
    with pytest.raises(DomainError, match="2 coordinate"):
        call(lookup("e3").function)


def test_limits_read_only_the_partials_they_need():
    # the classical limits have no drift terms and need no first partials;
    # the drift limit has no diffusion terms and needs no second partials
    f1 = Function(eval=np.exp, partials=((None, np.exp),))
    assert limit(f1, 0.5, 1) == 0.125 * math.exp(0.5)
    with pytest.raises(CapabilityError):
        limit(f1, 0.5, 2)
    ev = lambda s, t: np.exp(s + t)
    second_only = Function(eval=ev, partials=((None, ev), (None, ev)))
    assert limit(second_only, (0.5, 0.5), 1) == 0.25 * math.e
    first_only = Function(eval=ev, partials=((ev,), (ev,)))
    assert drift_limit(first_only, (0.5, 0.5)) == -0.5 * math.e


def _monomial_limit(p, j, x):
    """x(1-x)/2 p(p-1) x^(p-2) - (j-1)(1-x)/2 p x^(p-1), the order-j limit of t^p."""
    return 0.5 * p * x ** (p - 1) * (1.0 - x) * (p - j)


@pytest.mark.parametrize("j", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_order_j_limit_of_monomials(p, j):
    f = lookup(f"e{p}").function
    limit = KINDS["akr-1d"].limit
    for x in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        got = limit(f, x, j)
        if p == j:
            # t^j is a fixed point of the order-j operator: its limit
            # cancels exactly and must not be left as rounding
            assert got == 0.0
        else:
            assert got == pytest.approx(_monomial_limit(p, j, x), rel=1e-14)


def test_order_j_limit_of_the_fixed_point_on_the_square():
    f = lookup("monomial(3,3)").function
    for p in ((0.3, 0.7), (0.7, 0.3), (0.5, 0.9)):
        assert KINDS["akr-2d"].limit(f, p, 3) == 0.0
        assert KINDS["akr-2d"].limit(f, p, 2) != 0.0


def test_limit_keeps_a_small_value_that_is_not_rounding():
    # at x = 1/2 the terms are 0.25 (1 + 2^-42) and -0.25, both exact: the
    # value 2^-44, 512 eps of the terms' sum, is no rounding and must survive
    f = Function(
        eval=np.exp,
        partials=((lambda t: np.ones_like(t),
                   lambda t: np.full_like(t, 2.0 * (1.0 + 2.0**-42))),),
    )
    assert limit(f, 0.5, 2) == 2.0**-44


@pytest.mark.parametrize("x", [5e-324, 1e-310, 2.0**-1023])
@pytest.mark.parametrize("j", [2, 3])
def test_the_fixed_point_limit_is_zero_at_a_subnormal_point(j, x):
    # 0.5 x rounds to a subnormal, and f_jj carries its loss of up to 2^-1075
    # on: the cancellation leaves 2^-1074, not 0, without the absolute floor
    assert limit(lookup(f"e{j}").function, x, j) == 0.0


def test_the_absolute_floor_keeps_a_subnormal_limit_that_is_not_rounding():
    # e2 at order 3: x(1-x)/2 * 2 - (1-x) * 2x = -x(1-x), far above 2^-1074
    assert limit(lookup("e2").function, 1e-310, 3) == pytest.approx(-1e-310, rel=1e-12)


_ORDER_J_CASES = [
    ("akr-1d", "e1", 0.3),
    ("akr-1d", "e3", 0.7),
    ("akr-2d", "runge-2d", (0.7, 0.3)),
    ("akr-2d", "exp-sum", (0.7, 0.3)),
    ("akr-minus-bernstein-2d", "runge-2d", (0.7, 0.3)),
    ("akr-minus-bernstein-2d", "exp-sum", (0.7, 0.3)),
]


@pytest.mark.parametrize("j", [3, 4, 5])
@pytest.mark.parametrize("kind, name, point", _ORDER_J_CASES)
def test_order_j_limit_matches_the_extrapolated_series(kind, name, point, j):
    check = check_limit(kind, lookup(name).function, point, 2e-3, j=j)
    assert check.passed, check.error


def test_drift_limit_scales_with_order():
    f = lookup("runge-2d").function
    base = KINDS["akr-minus-bernstein-2d"].limit(f, (0.7, 0.3), 2)
    assert base == drift_limit(f, (0.7, 0.3))
    for j in (3, 4, 5):
        got = KINDS["akr-minus-bernstein-2d"].limit(f, (0.7, 0.3), j)
        assert got == pytest.approx((j - 1) * base, rel=1e-14)


@pytest.mark.parametrize("point", [(0.7, 0.3), (1.0, 0.5)])
@pytest.mark.parametrize("name", ["runge-2d", "exp-sum", "monomial(0,0)"])
def test_drift_limit_at_order_one_is_exactly_zero(name, point):
    # the order-1 operator is Bernstein, so the difference has no drift
    got = KINDS["akr-minus-bernstein-2d"].limit(lookup(name).function, point, 1)
    assert repr(got) == "0.0"


# --------------------------------------------------------------------------
# decomposition
# --------------------------------------------------------------------------


def test_decomposition_constant_vanishes():
    const = lookup("monomial(0,0)").function
    d = decomposition(const, 16, (0.4, 0.8))
    for field in (d.e_term, d.f_term, d.g_residual, d.total):
        assert abs(field) <= 1e-12


@pytest.mark.parametrize("name", ["exp-sum", "runge-2d"])
def test_decomposition_fields_are_plain_floats(name):
    d = decomposition(lookup(name).function, 64, (0.7, 0.3))
    for field in fields(d):
        assert type(getattr(d, field.name)) is float, field.name


def test_decomposition_linear_in_x():
    s = lookup("monomial(1,0)").function
    d = decomposition(s, 8, (0.5, 0.5))
    assert d.f_term == 0.0
    assert abs(d.g_residual) <= 1e-12
    assert d.e_term == pytest.approx(d.total, abs=1e-12)


def test_decomposition_identity_and_remainder_bound():
    es = lookup("exp-sum").function
    double_sum = replace(es, factors=None)
    bound_const = es.sup_bounds.taylor_constant()
    assert bound_const == pytest.approx(4.0 * math.e**2, rel=1e-15)
    for n in (64, 256):
        d = decomposition(es, n, (0.5, 0.5))
        assert d.e_term + d.f_term + d.g_residual == pytest.approx(
            d.total, abs=1e-13
        )
        assert abs(d.g_residual) <= bound_const / (2.0 * n)
        # the identity survives recomputing the total through the general path
        recomputed = n * (
            apply(double_sum, n, 2, (0.5, 0.5))
            - apply(double_sum, n, 1, (0.5, 0.5))
        )
        assert recomputed == pytest.approx(d.total, abs=1e-10)


@pytest.mark.parametrize("name", ["exp-sum", "runge-2d"])
def test_decomposition_total_is_the_drift_series_entry(name):
    # bit for bit, on the separable path and on the double sum
    f = lookup(name).function
    point = (0.7, 0.3)
    series = residual_series("akr-minus-bernstein-2d", f, point, n0=16, doublings=3)
    for n, value in series.entries:
        assert decomposition(f, n, point).total.hex() == value.hex()


@pytest.mark.parametrize("name", ["exp-sum", "sinpix-cospiy"])
@pytest.mark.parametrize("n", [16, 64, 256, 1024, 4096])
def test_remainder_bound_across_degrees(name, n):
    f = lookup(name).function
    d = decomposition(f, n, (0.3, 0.7))
    assert abs(d.g_residual) <= f.sup_bounds.taylor_constant() / (2.0 * n)


@pytest.mark.parametrize("name", ["monomial(1,0)", "monomial(0,1)"])
@pytest.mark.parametrize("point", [(0.5, 0.5), (0.7, 0.3)])
def test_g_bound_covers_the_rounding_residue_of_a_linear_f(name, point):
    # the Taylor constant is 0, so G is rounding alone, and the bound is the
    # rounding allowance alone
    f = lookup(name).function
    residues = []
    for n in (64, 128, 256, 512):
        d = decomposition(f, n, point)
        assert abs(d.g_residual) <= d.g_bound < 1e-9
        residues.append(d.g_residual)
    assert any(residues)  # a bound of 0 would fail here


def test_g_bound_is_the_taylor_bound_plus_a_small_allowance():
    es = lookup("exp-sum").function
    taylor = es.sup_bounds.taylor_constant() / (2.0 * 1024)
    assert taylor < decomposition(es, 1024, (0.7, 0.3)).g_bound < taylor * (1.0 + 1e-6)
    assert decomposition(lookup("runge-2d").function, 64, (0.5, 0.5)).g_bound > 0.0
    # exact partials but no sup bounds
    bare = Function(eval=lambda s, t: s * t, partials=((lambda s, t: t,), (lambda s, t: s,)))
    assert decomposition(bare, 64, (0.5, 0.5)).g_bound is None
    with pytest.raises(DomainError):
        decomposition(es, 1, (0.5, 0.5))
    with pytest.raises(DomainError):
        decomposition(es, 64, (0.5,))


def test_decomposition_drift_terms_approach_their_limits():
    es = lookup("exp-sum").function
    p = (0.5, 0.5)
    d = decomposition(es, 4096, p)
    # E and F approach -(1-x)/2 fx and -(1-y)/2 fy
    target = -0.25 * math.exp(1.0)
    assert d.e_term == pytest.approx(target, rel=2e-3)
    assert d.f_term == pytest.approx(target, rel=2e-3)
    assert abs(d.g_residual) <= 1e-2


def test_decomposition_requires_exact_partials():
    eval_only = Function(eval=lambda s, t: np.exp(s + t))
    with pytest.raises(CapabilityError):
        decomposition(eval_only, 16, (0.5, 0.5))
    with pytest.raises(DomainError):
        decomposition(lookup("exp-sum").function, 1, (0.5, 0.5))


@pytest.mark.parametrize(
    "hess",
    [((1.0,),), ((1.0,) * 3,) * 3, ((1.0, 1.0), (1.0,))],
    ids=["1x1", "3x3", "ragged"],
)
def test_decomposition_refuses_sup_bounds_not_of_the_square(hess):
    # refused where they are declared: SupBounds takes d rows of d only, and
    # f's tables must agree on its arity
    with pytest.raises(DomainError, match="sup bounds"):
        f = replace(lookup("exp-sum").function, sup_bounds=SupBounds(hess))
        decomposition(f, 64, (0.5, 0.5))


@pytest.mark.parametrize("bound", [math.nan, math.inf, -1.0, "1.0", None])
def test_sup_bounds_refuse_an_entry_not_a_finite_number_at_least_zero(bound):
    # a nan or inf bound would make decomposition's g_bound nan or inf, which
    # criterion 7's test abs(G) > g_bound never fails
    with pytest.raises(DomainError, match="sup bounds must be finite and >= 0"):
        SupBounds(((bound, 1.0), (1.0, 1.0)))


def test_second_partials_not_of_the_square_are_a_domain_error():
    ev = lambda s, t: np.exp(s + t)
    cube = ((ev, ev),) * 3
    with pytest.raises(DomainError, match="tables must agree on its arity"):
        Function(eval=ev, partials=cube, sup_bounds=lookup("exp-sum").function.sup_bounds)
    with pytest.raises(DomainError, match="f has arity 3, but the point has 2 coordinate"):
        limit(Function(eval=ev, partials=cube), (0.5, 0.5), 2)


def test_a_missing_partial_is_refused_only_by_the_call_that_reads_it():
    es = lookup("exp-sum").function
    ev, p = es.eval, (0.5, 0.5)
    # axis 1 declares no second partial, by a row that is too short: the
    # diffusion terms read it, the drift terms and decomposition do not
    short = Function(eval=ev, partials=((ev, ev), (ev,)))
    assert drift_limit(short, p) == drift_limit(es, p)
    got, want = decomposition(short, 64, p), decomposition(es, 64, p)
    assert (got.e_term, got.f_term) == (want.e_term, want.f_term)
    for j in (1, 2):
        with pytest.raises(CapabilityError, match="^the limit requires exact second partials$"):
            limit(short, p, j)
    # axis 1's first partial is None: the classical limit reads none
    no_first = Function(eval=ev, partials=((ev, ev), (None, ev)))
    assert limit(no_first, p, 1) == limit(es, p, 1)
    with pytest.raises(CapabilityError, match="^the limit requires exact first partials$"):
        limit(no_first, p, 2)
    with pytest.raises(CapabilityError, match="^the limit requires exact first partials$"):
        drift_limit(no_first, p)
    with pytest.raises(CapabilityError, match="^decomposition requires exact first partials$"):
        decomposition(no_first, 64, p)


# --------------------------------------------------------------------------
# residual series
# --------------------------------------------------------------------------


def test_series_validation():
    with pytest.raises(DomainError, match="at least one entry"):
        ConvergenceSeries((), "akr-1d", (0.5,))
    with pytest.raises(DomainError):
        ConvergenceSeries(((4, 1.0), (9, 0.5)), "akr-1d", (0.5,))
    with pytest.raises(DomainError):
        ConvergenceSeries(((4, math.inf), (8, 0.5)), "akr-1d", (0.5,))
    # each degree is held to check_degree's rule: 4.5 and 9.0 would read as
    # [4, 9], and 0 or negative degrees double as well
    for entries, message in (
        (((4.5, 1.0), (9.0, 0.5)), "degree must be integral, got 4.5"),
        (((0, 1.0), (0, 0.5)), "degree must be >= 1, got 0"),
        (((-4, 1.0), (-8, 0.5)), "degree must be >= 1, got -4"),
    ):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ConvergenceSeries(entries, "akr-1d", (0.5,))
    series = ConvergenceSeries(((4, 1.0), (8, 0.5)), "akr-1d", (0.5,))
    assert list(series.ns) == [4, 8]
    assert list(series.values) == [1.0, 0.5]


def test_residual_series_argument_validation():
    e1 = lookup("e1").function
    with pytest.raises(DomainError):
        residual_series("no-such-kind", e1, 0.5)
    with pytest.raises(DomainError):
        residual_series("akr-1d", e1, 0.0)
    with pytest.raises(DomainError):
        residual_series("akr-1d", e1, 0.5, n0=2, j=3)
    with pytest.raises(DomainError):
        residual_series("lemma-sum", None, 0.5, j=3)
    es = lookup("exp-sum").function
    with pytest.raises(DomainError):
        residual_series("akr-2d", es, (0.0, 0.5))


def test_only_extrapolation_needs_four_entries():
    e1 = lookup("e1").function
    for doublings in (0, 1):
        series = residual_series("akr-1d", e1, 0.5, n0=8, doublings=doublings, j=1)
        assert list(series.ns) == [8, 16][: doublings + 1]
    short = residual_series("akr-1d", e1, 0.5, n0=8, doublings=2, j=1)
    message = "extrapolation needs at least 4 series entries (doublings >= 3), got 3"
    with pytest.raises(DomainError, match=re.escape(message)):
        extrapolate(short)
    with pytest.raises(DomainError, match=re.escape(message)):
        check_limit("akr-1d", e1, 0.5, 1e-2, n0=8, doublings=2, j=1)


def test_order_one_series_takes_a_zero_coordinate():
    # positivity is the rule of orders above 1 only, as for the limit
    e2 = lookup("e2").function
    # the Bernstein operator interpolates at the end point, so each entry is 0
    at_zero = residual_series("akr-1d", e2, 0.0, n0=8, doublings=3, j=1)
    assert at_zero.entries == ((8, 0.0), (16, 0.0), (32, 0.0), (64, 0.0))
    with pytest.raises(DomainError, match="order j >= 2 needs positive coordinates"):
        residual_series("akr-1d", e2, 0.0, n0=8, doublings=3, j=2)


@pytest.mark.parametrize("kind, point", [("akr-1d", 0.3), ("akr-2d", (0.3, 0.7))])
def test_order_one_series_start_at_degree_two(kind, point):
    f = lookup("e3" if kind == "akr-1d" else "runge-2d").function
    series = residual_series(kind, f, point, n0=2, doublings=3, j=1)
    assert list(series.ns) == [2, 4, 8, 16]
    with pytest.raises(DomainError, match="n0 must be >= 2"):
        residual_series(kind, f, point, n0=1, doublings=3, j=1)


@pytest.mark.parametrize("kind", ["akr-1d", "akr-2d", "lemma-sum"])
def test_residual_series_refuses_a_schedule_past_the_degree_cap(kind):
    def never(*args):
        raise AssertionError("an operator ran")

    f = Function(eval=never)
    point = 0.5 if kind != "akr-2d" else (0.5, 0.5)
    # 64 * 2^15 = 2 MAX_DEGREE; 2^(10^30) is never computed
    for doublings in (15, 20000, 10**30):
        with pytest.raises(DomainError, match="degree must be <="):
            residual_series(kind, f, point, n0=64, doublings=doublings)


E3 = lookup("e3").function
RUNGE = lookup("runge-2d").function

_POINT_CALLS_1D = {
    "apply j=1 1d": lambda p: apply(E3, 16, 1, p),
    "apply j=2 1d": lambda p: apply(E3, 16, 2, p),
    "limit j=2 1d": lambda p: limit(E3, p, 2),
    "limit j=1 1d": lambda p: limit(E3, p, 1),
    **{
        f"residual_series {kind} j={j}": (
            lambda p, kind=kind, j=j: residual_series(kind, E3, p, n0=8, doublings=2, j=j)
        )
        for kind, j in (("akr-1d", 1), ("akr-1d", 2))
    },
    "residual_series lemma-sum j=2": (
        lambda p: residual_series("lemma-sum", None, p, n0=8, doublings=2, j=2)
    ),
}
_POINT_CALLS_2D = {
    "apply j=1 2d": lambda p: apply(RUNGE, 16, 1, p),
    "apply j=2 2d": lambda p: apply(RUNGE, 16, 2, p),
    "limit j=2 2d": lambda p: limit(RUNGE, p, 2),
    "limit j=1 2d": lambda p: limit(RUNGE, p, 1),
    "drift limit": lambda p: drift_limit(RUNGE, p),
    "decomposition": lambda p: decomposition(RUNGE, 16, p),
    **{
        f"residual_series {kind} j={j}": (
            lambda p, kind=kind, j=j: residual_series(kind, RUNGE, p, n0=8, doublings=2, j=j)
        )
        for kind, j in (("akr-2d", 1), ("akr-2d", 2), ("akr-minus-bernstein-2d", 2))
    },
}
_BAD_POINTS_1D = ((0.3, 0.4), (), "x", None, 1.5, (1.5,), math.nan)
_BAD_POINTS_2D = ((0.5,), (0.5, 0.5, 0.5), 0.5, ("a", 0.5), (0.5, 1.1), (-0.1, 0.5))


@pytest.mark.parametrize(
    "name, point",
    [(name, p) for name in _POINT_CALLS_1D for p in _BAD_POINTS_1D]
    + [(name, p) for name in _POINT_CALLS_2D for p in _BAD_POINTS_2D],
)
def test_a_point_of_the_wrong_shape_or_range_is_a_domain_error(name, point):
    # ``apply`` takes its arity from the point, so a point of the other
    # arity is refused by f's own arity
    call = _POINT_CALLS_1D.get(name) or _POINT_CALLS_2D[name]
    with pytest.raises(DomainError):
        call(point)


# each entry point that takes f, with the arity d of its point, called with
# an f of the other arity: the arity rule refuses it before any weight is
# computed
_OTHER_ARITY = {1: (RUNGE, 0.3), 2: (E3, (0.3, 0.7))}
_OTHER_ARITY_CALLS = {
    **{
        f"{name} j={j} {d}d": (d, lambda f, p, call=call, j=j: call(f, p, j))
        for name, call in (("apply", lambda f, p, j: apply(f, 16, j, p)), ("limit", limit))
        for j in (1, 2)
        for d in (1, 2)
    },
    **{
        f"{name} {kind}": (spec.arity, lambda f, p, call=call, kind=kind: call(kind, f, p))
        for kind, spec in KINDS.items()
        if kind != "lemma-sum"
        for name, call in (
            ("residual_series", lambda k, f, p: residual_series(k, f, p, n0=8, doublings=3)),
            ("check_limit", lambda k, f, p: check_limit(k, f, p, 1e-2, n0=8, doublings=3)),
            ("KINDS limit", lambda k, f, p: KINDS[k].limit(f, p, 2)),
        )
    },
    "decomposition": (2, lambda f, p: decomposition(f, 16, p)),
}


def _refuse_weights(monkeypatch):
    def no_weights(*args):
        raise AssertionError("weights were computed")

    for module in ("_kernels", "akr", "asymptotics", "basis", "tensor"):
        monkeypatch.setattr(f"akrvoro.{module}.log_weights", no_weights)


@pytest.mark.parametrize("name", list(_OTHER_ARITY_CALLS))
def test_an_f_of_the_other_arity_is_refused_before_any_weight(name, monkeypatch):
    _refuse_weights(monkeypatch)
    d, call = _OTHER_ARITY_CALLS[name]
    with pytest.raises(DomainError, match=r"^f has arity \d, but the point has \d coordinate"):
        call(*_OTHER_ARITY[d])


# the same entry points, at a point of the arity each takes, with an f that
# is not a Function: the arity rule refuses it in the same place
@pytest.mark.parametrize(
    "f, shown", [(None, "NoneType"), (lambda *x: sum(x), "function")], ids=["None", "lambda"]
)
@pytest.mark.parametrize("name", list(_OTHER_ARITY_CALLS))
def test_an_f_that_is_not_a_function_is_refused_before_any_weight(name, f, shown, monkeypatch):
    _refuse_weights(monkeypatch)
    d, call = _OTHER_ARITY_CALLS[name]
    with pytest.raises(DomainError, match=f"^f must be a Function, got {shown}$"):
        call(f, _OTHER_ARITY[d][1])


# each kind's f and a point of its arity
_KIND_ARGS = {
    "akr-1d": (E3, 0.3),
    "akr-2d": (RUNGE, (0.7, 0.3)),
    "akr-minus-bernstein-2d": (RUNGE, (0.7, 0.3)),
    "lemma-sum": (None, 0.3),
}


@pytest.mark.parametrize("j", [0, -3, 2.5, 10**9], ids=["0", "-3", "2.5", "10^9"])
@pytest.mark.parametrize("kind", list(KINDS))
def test_a_kinds_limit_holds_j_to_the_order_rule(kind, j):
    # the limits of akr-1d at j = 0, -3, 2.5 and 10^9 read 0.42, 1.05,
    # -0.105 and -2.1e8 for e2 at 0.3, and lemma-sum's read 0.0
    f, point = _KIND_ARGS[kind]
    with pytest.raises(DomainError, match="^order j must be"):
        KINDS[kind].limit(f, point, j)


_LEMMA_CALLS = {
    "residual_series": lambda f, j: residual_series("lemma-sum", f, 0.3, n0=16, doublings=4,
                                                    j=j),
    "check_limit": lambda f, j: check_limit("lemma-sum", f, 0.3, 1e-2, n0=16, doublings=4,
                                            j=j),
    "KINDS limit": lambda f, j: KINDS["lemma-sum"].limit(f, 0.3, j),
}


@pytest.mark.parametrize(
    "f, j, message",
    [
        (E3, 2, "the remainder sum takes no f, got Function"),
        (RUNGE, 2, "the remainder sum takes no f, got Function"),
        (lambda x: x, 2, "the remainder sum takes no f, got function"),
        (None, 1, "the remainder sum is defined for j = 2 only"),
        (None, 3, "the remainder sum is defined for j = 2 only"),
        (None, 7, "the remainder sum is defined for j = 2 only"),
    ],
    ids=["e3", "runge-2d", "lambda", "j=1", "j=3", "j=7"],
)
@pytest.mark.parametrize("name", list(_LEMMA_CALLS))
def test_the_remainder_sum_takes_no_f_and_j_2_only(name, f, j, message, monkeypatch):
    # its series took runge-2d and passed; its limit read 0.0 at j = 7
    _refuse_weights(monkeypatch)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        _LEMMA_CALLS[name](f, j)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: apply(RUNGE, 16, 1, p),
        lambda p: apply(RUNGE, 16, 2, p),
        lambda p: limit(RUNGE, p, 1),
        lambda p: limit(RUNGE, p, 2),
    ],
)
@pytest.mark.parametrize("point", [(0.5, 0.5, 0.5), (0.1, 0.2, 0.3, 0.4), ()])
def test_apply_and_limit_name_the_arities_they_take(call, point):
    with pytest.raises(DomainError, match=r"must have 1 or 2 numeric coordinate"):
        call(point)


@pytest.mark.parametrize(
    "calls, good",
    [
        (_POINT_CALLS_1D, ((0.3,), [0.3], 0.3)),
        (_POINT_CALLS_2D, ((0.3, 0.7), [0.3, 0.7])),
    ],
)
def test_every_point_taker_accepts_its_coordinates_in_any_sequence(calls, good):
    for name, call in calls.items():
        values = [call(p) for p in good]
        assert all(v == values[0] for v in values[1:]), name


@pytest.mark.parametrize(
    "kind, f, point, coords",
    [
        ("akr-1d", E3, 0.3, (0.3,)),
        ("lemma-sum", None, [np.float64(0.3)], (0.3,)),
        ("akr-2d", RUNGE, [0.3, 0.7], (0.3, 0.7)),
    ],
)
def test_series_point_is_the_coordinate_tuple(kind, f, point, coords):
    series = residual_series(kind, f, point, n0=8, doublings=2)
    assert series.point == coords
    assert all(type(x) is float for x in series.point)


def test_bernstein_1d_series_vanishes_for_identity():
    e1 = lookup("e1").function
    series = residual_series("akr-1d", e1, 0.5, n0=64, doublings=5, j=1)
    assert np.max(np.abs(series.values)) <= 1e-12
    assert series.operator_kind == "akr-1d"


def test_akr_1d_series_approaches_drift_limit():
    e1 = lookup("e1").function
    series = residual_series("akr-1d", e1, 0.5, n0=64, doublings=5)
    limit = extrapolate(series).limit_estimate
    assert limit == pytest.approx(-0.25, rel=1e-3)


def test_bernstein_2d_series_approaches_classical_limit():
    es = lookup("exp-sum").function
    series = residual_series("akr-2d", es, (0.5, 0.5), n0=64, doublings=5, j=1)
    limit = extrapolate(series).limit_estimate
    assert limit == pytest.approx(0.25 * math.e, rel=1e-3)


def test_akr_2d_series_approaches_saturation_limit():
    es = lookup("exp-sum").function
    series = residual_series("akr-2d", es, (0.5, 0.5), n0=64, doublings=5)
    limit = extrapolate(series).limit_estimate
    assert limit == pytest.approx(-0.25 * math.e, rel=1e-3)


def test_difference_series_is_consistent_with_component_series():
    f = lookup("runge-2d").function
    point = (0.5, 0.5)
    kw = dict(n0=16, doublings=3)
    akr = residual_series("akr-2d", f, point, **kw).values
    bern = residual_series("akr-2d", f, point, j=1, **kw).values
    diff = residual_series("akr-minus-bernstein-2d", f, point, **kw).values
    np.testing.assert_allclose(diff, akr - bern, atol=1e-9)


def test_drift_series_extrapolates_to_drift_limit():
    es = lookup("exp-sum").function
    series = residual_series(
        "akr-minus-bernstein-2d", es, (0.5, 0.5), n0=64, doublings=5
    )
    limit = extrapolate(series).limit_estimate
    assert limit == pytest.approx(drift_limit(es, (0.5, 0.5)), rel=1e-3)


def test_lemma_kind_matches_lemma_sum():
    series = residual_series("lemma-sum", None, 0.25, n0=64, doublings=3)
    for n, value in series.entries:
        assert value == lemma_sum(n, 0.25)


# --------------------------------------------------------------------------
# extrapolation
# --------------------------------------------------------------------------


def _synthetic(values, n0=16):
    entries = tuple((n0 * 2**m, float(v)) for m, v in enumerate(values))
    return ConvergenceSeries(entries, "lemma-sum", (0.5,))


def test_extrapolate_requires_four_entries():
    with pytest.raises(DomainError):
        extrapolate(_synthetic([1.0, 0.5, 0.25]))


def test_extrapolate_constant_series():
    res = extrapolate(_synthetic([2.5] * 6))
    assert res.limit_estimate == 2.5
    assert res.rate_estimate is None
    assert res.residual_tail == 0.0
    assert res.monotone_tail


def test_extrapolate_geometric_series():
    m = np.arange(8, dtype=float)
    res = extrapolate(_synthetic(1.0 + 2.0**-m))
    assert res.limit_estimate == pytest.approx(1.0, abs=1e-10)
    assert res.rate_estimate == pytest.approx(1.0, abs=1e-6)
    assert res.monotone_tail


def test_extrapolate_half_rate_series():
    m = np.arange(8, dtype=float)
    res = extrapolate(_synthetic(3.0 + 2.0 ** (-m / 2.0)))
    assert res.limit_estimate == pytest.approx(3.0, abs=1e-6)
    assert res.rate_estimate == pytest.approx(0.5, abs=1e-3)


def test_extrapolate_alternating_tail_is_flagged():
    values = [1.0, -1.0, 1.0, -1.0, 1.0]
    res = extrapolate(_synthetic(values))
    assert not res.monotone_tail
    assert res.rate_estimate is None
    assert res.limit_estimate == values[-1]


def test_extrapolate_rate_positive_when_reported():
    m = np.arange(6, dtype=float)
    for series in (1.0 + 3.0**-m, -2.0 + 2.0**-m, 5.0 - 4.0**-m):
        res = extrapolate(_synthetic(series))
        if res.rate_estimate is not None:
            assert res.rate_estimate > 0.0
        assert res.residual_tail >= 0.0
