import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akrvoro import (
    DomainError,
    Function,
    apply,
    basis_weight,
    lookup,
    weight_vector,
)


def exact_weight(n, k, x):
    """Rational-arithmetic oracle for C(n,k) x^k (1-x)^(n-k)."""
    xf = Fraction(x)  # exact binary value of the float input
    return float(math.comb(n, k) * xf**k * (1 - xf) ** (n - k))


def test_context_rejects_bad_degree():
    with pytest.raises(DomainError):
        basis_weight(0, 0, 0.5)
    with pytest.raises(DomainError):
        weight_vector(0, 0.5)


@pytest.mark.parametrize("x", ["a", "", None, object(), [0.3, 0.4]])
def test_weights_refuse_a_non_numeric_point(x):
    message = r"^point must have 1 numeric coordinate\(s\), got "
    with pytest.raises(DomainError, match=message):
        weight_vector(8, x)
    with pytest.raises(DomainError, match=message):
        basis_weight(8, 2, x)


@pytest.mark.parametrize(
    "n,k,x",
    [(5, 2, 0.3), (7, 0, 0.11), (7, 7, 0.11), (12, 5, 0.5), (40, 13, 0.77)],
)
def test_basis_weight_against_rational_oracle(n, k, x):
    got = basis_weight(n, k, x)
    assert got == pytest.approx(exact_weight(n, k, x), rel=1e-13)


def test_basis_weight_frozen_values():
    assert basis_weight(2, 1, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert basis_weight(5, 0, 0.0) == 1.0
    assert basis_weight(5, 2, 0.3) == pytest.approx(0.3087, abs=1e-13)


def test_basis_weight_endpoints_exact():
    assert basis_weight(6, 0, 0.0) == 1.0
    assert basis_weight(6, 3, 0.0) == 0.0
    assert basis_weight(6, 6, 1.0) == 1.0
    assert basis_weight(6, 2, 1.0) == 0.0


def test_basis_weight_domain_errors():
    with pytest.raises(DomainError):
        basis_weight(4, -1, 0.5)
    with pytest.raises(DomainError):
        basis_weight(4, 5, 0.5)
    with pytest.raises(DomainError):
        basis_weight(4, 2, -0.01)
    with pytest.raises(DomainError):
        basis_weight(4, 2, 1.01)
    # one weight takes one index, though remainder takes an array of them
    for k in (np.array([2, 3]), [2], np.array([2])):
        with pytest.raises(DomainError, match="index must be integral"):
            basis_weight(8, k, 0.3)
    assert basis_weight(8, np.array(2), 0.3) == basis_weight(8, 2, 0.3)


def test_scalar_weight_agrees_with_vector():
    rng = np.random.default_rng(5)
    for n in (1, 3, 41, 700):
        x = float(rng.uniform(0.0, 1.0))
        w = weight_vector(n, x)
        for k in sorted({0, 1, n // 2, n}):
            assert basis_weight(n, k, x) == pytest.approx(
                w[k], rel=1e-13, abs=1e-300
            )


def test_partition_of_unity_full_sweep():
    # every degree through 2048 on a 101-point grid
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for n in range(1, 2049):
        for x in grid:
            worst = max(worst, abs(weight_vector(n, x).sum() - 1.0))
    assert worst <= 1e-12


def test_weights_non_negative():
    for n in (1, 2, 17, 333, 4096):
        for x in (0.0, 1e-9, 0.2, 0.5, 0.999999, 1.0):
            assert np.all(weight_vector(n, x) >= 0.0)


@given(
    n=st.integers(min_value=1, max_value=512),
    x=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=150, deadline=None)
def test_partition_of_unity_property(n, x):
    assert abs(weight_vector(n, x).sum() - 1.0) <= 1e-13


def test_bernstein_partition_and_linear_precision():
    const1 = lookup("const1").function
    e1 = lookup("e1").function
    for n in (1, 2, 7, 64, 511):
        for x in np.linspace(0.0, 1.0, 11):
            assert apply(const1, n, 1, x) == pytest.approx(1.0, abs=1e-13)
            assert apply(e1, n, 1, x) == pytest.approx(x, abs=1e-13)


def test_bernstein_square_frozen_value():
    e2 = lookup("e2").function
    assert apply(e2, 2, 1, 0.5) == pytest.approx(0.375, abs=1e-15)
    # closed form x^2 + x(1-x)/n for the square
    for n in (3, 10, 100):
        for x in (0.2, 0.9):
            assert apply(e2, n, 1, x) == pytest.approx(
                x * x + x * (1 - x) / n, abs=1e-13
            )


def test_bernstein_against_rational_brute_force():
    n, x = 7, 0.37
    oracle = float(
        sum(
            Fraction(math.comb(n, k))
            * Fraction(x) ** k
            * (1 - Fraction(x)) ** (n - k)
            * Fraction(k, n) ** 2
            for k in range(n + 1)
        )
    )
    e2 = lookup("e2").function
    assert apply(e2, n, 1, x) == pytest.approx(oracle, rel=1e-13)


def test_bernstein_monotone_in_the_integrand():
    # t^2 <= t on [0,1], so the operator values must be ordered too
    e1 = lookup("e1").function
    e2 = lookup("e2").function
    for n in (1, 2, 5, 31, 256):
        for x in np.linspace(0.0, 1.0, 9):
            assert apply(e2, n, 1, x) <= apply(e1, n, 1, x) + 1e-13


def test_bernstein_interpolates_endpoints_exactly():
    f = Function(eval=np.exp)
    for n in (1, 4, 33):
        assert apply(f, n, 1, 0.0) == 1.0
        assert apply(f, n, 1, 1.0) == float(np.exp(1.0))


def test_bernstein_domain_errors():
    f = lookup("e1").function
    with pytest.raises(DomainError):
        apply(f, 0, 1, 0.5)
    with pytest.raises(DomainError):
        apply(f, 4, 1, 1.5)
