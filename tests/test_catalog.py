import math

import mpmath as mp
import numpy as np
import pytest

from akrvoro import (
    DomainError,
    SupBounds,
    UnknownFunctionError,
    apply,
    catalog_names,
    lookup,
)


def test_documented_names_resolve():
    for name in ("const1", "e1", "e2", "e3", "exp-sum", "sinpix-cospiy", "runge-2d"):
        entry = lookup(name)
        assert entry.name == name
    entry = lookup("monomial(2,3)")
    assert entry.name == "monomial(2,3)"
    assert "monomial(p,q)" in catalog_names()


def test_each_entry_is_built_once():
    # a memo scope finds an operator value again by its function's identity,
    # so every spelling of a name gives the one entry
    for name in ("runge-2d", "e3", "monomial(2,3)"):
        assert lookup(name) is lookup(name)
    for spelling in ("monomial(2,  3)", "monomial(02,3)", "monomial(2,003)"):
        assert lookup(spelling) is lookup("monomial(2,3)")


def test_unknown_name_lists_valid_names():
    with pytest.raises(UnknownFunctionError) as err:
        lookup("not-a-function")
    assert "runge-2d" in str(err.value)
    # the exponents are ASCII digits, only ASCII spaces may follow the comma,
    # the rule reads the whole name, and a name is a str
    for bad in ("monomial(2)", "monomial(a,b)", "monomial(-1,2)", "monomial(2,3)\n",
                "monomial(\u0662,3)", "monomial(\uff12,3)", "monomial(2,\n3)",
                "monomial(2,\t3)", None, 3, ["e1"], b"e1"):
        with pytest.raises(UnknownFunctionError):
            lookup(bad)
    assert lookup("monomial(2,  3)").name == "monomial(2,3)"


def test_arities():
    assert lookup("const1").arity == 1
    assert lookup("e3").arity == 1
    assert lookup("exp-sum").arity == 2
    assert lookup("monomial(0,0)").arity == 2


def test_frozen_values():
    e2 = lookup("e2").function
    assert float(e2.eval(0.5)) == 0.25
    assert float(e2.hess[0][0](0.9)) == 2.0
    es = lookup("exp-sum").function
    assert float(es.eval(0.25, 0.75)) == pytest.approx(math.e, rel=1e-15)
    assert float(es.hess[0][1](1.0, 1.0)) == pytest.approx(math.e**2, rel=1e-15)
    const = lookup("const1").function
    assert float(const.eval(0.123)) == 1.0
    assert float(const.grad[0](0.123)) == 0.0


def test_separability_declarations():
    assert lookup("exp-sum").separable
    assert lookup("sinpix-cospiy").separable
    assert lookup("monomial(1,4)").separable
    assert not lookup("runge-2d").separable
    assert lookup("const1").separable is False


@pytest.mark.parametrize("name", ["exp-sum", "sinpix-cospiy", "monomial(2,3)"])
def test_declared_factors_reproduce_the_function(name):
    f = lookup(name).function
    g, h = f.factors
    s = np.linspace(0.0, 1.0, 201)
    grid = f.eval(s[:, None], s[None, :])
    product = g.eval(s)[:, None] * h.eval(s)[None, :]
    assert np.max(np.abs(grid - product)) <= 1e-14


@pytest.mark.parametrize(
    "name",
    ["exp-sum", "sinpix-cospiy", "runge-2d", "monomial(3,2)", "monomial(2,3)",
     "monomial(0,4)"],
)
def test_sup_bounds_hold_on_verification_grid(name):
    f = lookup(name).function
    bounds = f.sup_bounds
    s = np.linspace(0.0, 1.0, 201)
    S, T = s[:, None], s[None, :]
    slack = 1.0 + 1e-12
    for i, l in ((0, 0), (0, 1), (1, 1)):
        sup = np.max(np.abs(np.broadcast_to(f.hess[i][l](S, T), (201, 201))))
        bound = bounds.hess[i][l]
        assert sup <= bound * slack + 1e-300
        # and the bound is the sup, not a loose constant: the grid holds
        # every maximiser but runge-2d's fxy one, which it misses by 1.2%
        assert bound <= 1.02 * sup


@pytest.mark.parametrize(
    "name", ["exp-sum", "sinpix-cospiy", "runge-2d", "monomial(3,2)", "monomial(0,4)"]
)
def test_sup_bounds_are_a_symmetric_table_summed_as_on_the_square(name):
    bounds = lookup(name).function.sup_bounds
    h = bounds.hess
    assert [len(row) for row in h] == [2, 2]
    assert h[0][1] == h[1][0]
    assert bounds.taylor_constant() == h[0][0] + 2.0 * h[0][1] + h[1][1]


def test_taylor_constant_sums_the_whole_table_in_the_square_order():
    # 1 + 2^-53 rounds to 1, so adding the diagonal first would give 1 + 2^-52
    tiny = 2.0**-54
    assert SupBounds(((1.0, tiny), (tiny, 2.0 * tiny))).taylor_constant() == 1.0
    cube = ((1.0, 2.0, 3.0), (2.0, 4.0, 5.0), (3.0, 5.0, 6.0))
    assert SupBounds(cube).taylor_constant() == sum(map(sum, cube)) == 31.0


def test_sup_bounds_refuse_an_asymmetric_table():
    # taylor_constant reads the upper triangle: this table gave C = 100
    # where its symmetric twin gives 130
    with pytest.raises(DomainError, match=r"symmetric, got hess\[0\]\[1\] = 0.0 "
                       r"and hess\[1\]\[0\] = 15.0"):
        SupBounds(((50.0, 0.0), (15.0, 50.0)))
    cube = ((1.0, 2.0, 3.0), (2.0, 4.0, 5.0), (3.0, 5.5, 6.0))
    with pytest.raises(DomainError, match=r"hess\[1\]\[2\] = 5.0"):
        SupBounds(cube)


@pytest.mark.parametrize(
    "name, exponent",
    [("monomial(" + "9" * 400 + ",1)", "p"), ("monomial(1," + "9" * 5000 + ")", "q")],
    ids=["400 digits", "5000 digits"],
)
def test_lookup_refuses_an_exponent_whose_sup_bounds_overflow(name, exponent):
    # 400 digits overflowed float(p * (p - 1)); 5000 passed int()'s limit
    with pytest.raises(DomainError, match=f"monomial exponent {exponent} must be"):
        lookup(name)


def test_the_largest_admitted_exponent_has_finite_sup_bounds():
    # p^2 rounds to a finite double exactly when p^2 < 2^1024 - 2^970
    p = math.isqrt(2**1024 - 2**970 - 1)
    hess = lookup(f"monomial({p},{p})").function.sup_bounds.hess
    assert all(map(math.isfinite, (*hess[0], *hess[1])))
    with pytest.raises(DomainError, match="exponent q"):
        lookup(f"monomial(0,{p + 1})")
    assert lookup("monomial(" + "0" * 5000 + "2,03)").name == "monomial(2,3)"


def test_runge_is_not_separable_in_value():
    # if f(s,t) = g(s) h(t) then f(a,a) f(b,b) = f(a,b) f(b,a); runge breaks it
    f = lookup("runge-2d").function
    a, b = 0.1, 0.6
    lhs = float(f.eval(a, a)) * float(f.eval(b, b))
    rhs = float(f.eval(a, b)) * float(f.eval(b, a))
    assert abs(lhs - rhs) > 1e-3


def test_monomial_zero_exponent_edge_cases():
    f = lookup("monomial(0,2)").function
    assert float(f.grad[0](0.0, 0.5)) == 0.0
    assert float(f.hess[0][0](0.0, 0.5)) == 0.0
    assert float(f.hess[1][1](0.3, 0.0)) == 2.0
    g = lookup("monomial(1,0)").function
    assert float(g.grad[0](0.0, 0.0)) == 1.0
    assert float(g.hess[0][0](0.5, 0.5)) == 0.0


_NAMES_2D = ("exp-sum", "sinpix-cospiy", "runge-2d", "monomial(2,3)", "monomial(0,4)")


@pytest.mark.parametrize("name", _NAMES_2D)
def test_hessian_is_symmetric(name):
    f = lookup(name).function
    s = np.linspace(0.0, 1.0, 41)
    S, T = s[:, None], s[None, :]
    np.testing.assert_array_equal(f.hess[0][1](S, T), f.hess[1][0](S, T))


@pytest.mark.parametrize("name", ("const1", "e1", "e2", "e3"))
def test_a_1d_entry_refuses_a_second_coordinate(name):
    # a keyword default for the exponent once took the second coordinate,
    # so the operators on the square returned a sum of s**t
    f = lookup(name).function
    s = np.array([0.5])
    for fn in (f.eval, f.grad[0], f.hess[0][0]):
        with pytest.raises(TypeError):
            fn(s, s)
    with pytest.raises(DomainError, match="f has arity 1"):
        apply(f, 64, 2, (0.5, 0.5))
    with pytest.raises(DomainError, match="f has arity 1"):
        apply(f, 64, 1, (0.5, 0.5))


@pytest.mark.parametrize("name", ("const1", "e3") + _NAMES_2D)
def test_partials_match_the_entry_arity(name):
    entry = lookup(name)
    f = entry.function
    assert len(f.grad) == entry.arity
    assert len(f.hess) == entry.arity
    assert all(len(row) == entry.arity for row in f.hess)


# --------------------------------------------------------------------------
# every exact partial against mpmath's numerical derivative at 50 digits
# --------------------------------------------------------------------------

_MP_1D = {
    "const1": lambda t: mp.mpf(1),
    "e1": lambda t: t,
    "e2": lambda t: t**2,
    "e3": lambda t: t**3,
}

_MP_2D = {
    "exp-sum": lambda s, t: mp.exp(s + t),
    "sinpix-cospiy": lambda s, t: mp.sin(mp.pi * s) * mp.cos(mp.pi * t),
    "runge-2d": lambda s, t: 1 / (1 + 25 * (s - mp.mpf(0.5)) ** 2
                                  + 25 * (t - mp.mpf(0.5)) ** 2),
    "monomial(2,3)": lambda s, t: s**2 * t**3,
    "monomial(0,4)": lambda s, t: t**4,
}

_EDGE = (0.0, 0.3, 0.5, 0.85, 1.0)


def _close(got, exact):
    exact = float(exact)
    assert abs(float(got) - exact) <= 1e-12 * abs(exact) + 1e-14, (got, exact)


@pytest.mark.parametrize("name", sorted(_MP_1D))
def test_1d_derivatives_match_mpmath(name):
    f = lookup(name).function
    g = _MP_1D[name]
    with mp.workdps(50):
        for x in _EDGE:
            _close(f.eval(x), g(mp.mpf(x)))
            _close(f.grad[0](x), mp.diff(g, mp.mpf(x), 1))
            _close(f.hess[0][0](x), mp.diff(g, mp.mpf(x), 2))


@pytest.mark.parametrize("name", sorted(_MP_2D))
def test_2d_partials_match_mpmath(name):
    f = lookup(name).function
    g = _MP_2D[name]

    def order(*axes):
        """mpmath's derivative order of the partial in these axes."""
        return tuple(axes.count(a) for a in range(2))

    # every grad[i] and every hess[i][l]
    partials = [(f.grad[i], order(i)) for i in range(2)]
    partials += [(f.hess[i][l], order(i, l)) for i in range(2) for l in range(2)]
    with mp.workdps(50):
        for x in _EDGE:
            for y in _EDGE:
                at = (mp.mpf(x), mp.mpf(y))
                _close(f.eval(x, y), g(*at))
                for partial, axes in partials:
                    _close(partial(x, y), mp.diff(g, at, axes))
