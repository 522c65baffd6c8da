import numpy as np
import pytest
from hypothesis import given, strategies as st

from distprod.ratfun import RationalFunction, _power


def test_constant():
    f = RationalFunction(3.0)
    assert f(0.5) == 3.0
    assert f.order == 0 and f.power == 0
    assert f(np.zeros((2, 3))).shape == (2, 3)


def test_simple_pole_evaluation():
    f = RationalFunction(1.0, -1)  # 1/z
    assert f(2.0) == pytest.approx(0.5)
    assert f(1j) == pytest.approx(-1j)
    np.testing.assert_allclose(f(np.array([1.0, 2.0, 4.0])), [1.0, 0.5, 0.25])


def test_laurent_evaluation():
    """c times z^n for a power, c divided by z^|n| for a pole; z^3 is (z * z) * z."""
    z = np.array([0.6 - 1.1j, -2.5 + 0.3j, 1e-4 + 1e-7j])
    up = RationalFunction(0.5, 3)(z)
    assert up.tobytes() == ((0.5 + 0j) * ((z * z) * z)).tobytes()
    down = RationalFunction(2.0 - 1.0j, -3)(z)
    assert down.tobytes() == ((2.0 - 1.0j) / ((z * z) * z)).tobytes()
    assert RationalFunction(0.5, 3).power == 3
    assert RationalFunction(1.0, -3).order == 3 and RationalFunction(1.0, -3).power == -3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_power_is_the_product_chain_for_small_orders(n):
    # repeated squaring multiplies z * z, then (z * z) * z: the chain's order
    rng = np.random.default_rng(n)
    z = rng.normal(size=1000) + 1j * rng.normal(size=1000)
    chain = z
    for _ in range(n - 1):
        chain = chain * z
    assert _power(z, n).tobytes() == chain.tobytes()
    assert RationalFunction(2.0 - 1.0j, -n)(z).tobytes() == ((2.0 - 1.0j) / chain).tobytes()


def test_huge_power_by_repeated_squaring():
    # 2^40 + 3 in 40 squarings and 2 products, not 2^40 + 2 products; the
    # fourth roots of unity multiply exactly, and 1.5 overflows
    z = np.array([1.0, -1.0, 1j, -1j])
    assert np.array_equal(_power(z, 2**40 + 3), z**3)
    with np.errstate(all="ignore"):
        assert not np.isfinite(_power(np.array([1.5 + 0j]), 2**40)).any()


def test_derivative_of_inverse():
    f = RationalFunction(1.0, -1)
    df = f.deriv()
    # d/dz (1/z) = -1/z^2
    z = 0.7 + 0.3j
    assert df(z) == pytest.approx(-1.0 / z**2, rel=1e-14)
    assert df == RationalFunction(-1.0, -2)


def test_derivative_second_order():
    f = RationalFunction(1.0, -2)  # z^-2
    z = 1.5 - 0.2j
    assert f.deriv()(z) == pytest.approx(-2.0 / z**3, rel=1e-13)


def test_derivative_of_polynomial_keeps_order_zero():
    f = RationalFunction(0.5, 2)  # z^2 / 2
    assert f.deriv() == RationalFunction(1.0, 1)
    assert f.deriv().order == 0
    assert f.deriv().deriv().deriv().is_zero


def test_scalar_operations():
    f = RationalFunction(0.5, -1)
    assert (-f)(2.0) == pytest.approx(-0.25)
    assert -f == RationalFunction(-0.5, -1)
    assert -(-f) == f


def test_pole_order_must_be_nonnegative():
    """A positive power has no pole: the pole order is never negative."""
    for n in range(-3, 4):
        assert RationalFunction(1.0, n).order == max(0, -n)


def test_zero_function_normalization():
    z = RationalFunction(0.0, -2)
    assert z.is_zero and z.order == 0 and z.power == 0
    assert z(5.0) == 0.0
    assert z == RationalFunction(0.0)
    assert RationalFunction(3.0).deriv() == RationalFunction(0.0)


@given(st.integers(-5, 5), st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_derivative_matches_closed_form(n, c):
    f = RationalFunction(c, n)
    z = 1.1 + 0.7j
    assert f.deriv()(z) == pytest.approx(n * c * z ** (n - 1), rel=1e-12, abs=1e-12)


@given(st.integers(1, 4))
def test_inverse_power_derivative_chain(k):
    f = RationalFunction(1.0, -k)
    z = 1.1 + 0.7j
    assert f.deriv()(z) == pytest.approx(-k * z ** (-k - 1), rel=1e-12)
    assert f.deriv() == RationalFunction(-float(k), -k - 1)
