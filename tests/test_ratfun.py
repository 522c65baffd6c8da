import numpy as np
import pytest
from hypothesis import given, strategies as st

from distprod.ratfun import RationalFunction


def test_constant():
    f = RationalFunction([3.0])
    assert f(0.5) == 3.0
    assert f.order == 0 and f.top_power == 0


def test_simple_pole_evaluation():
    f = RationalFunction([1.0], 1)  # 1/z
    assert f(2.0) == pytest.approx(0.5)
    assert f(1j) == pytest.approx(-1j)
    np.testing.assert_allclose(f(np.array([1.0, 2.0, 4.0])), [1.0, 0.5, 0.25])


def test_laurent_evaluation():
    f = RationalFunction([2.0, -1.0, 0.0, 3.0], 2)  # 2/z^2 - 1/z + 3z
    z = 0.6 - 1.1j
    assert f(z) == pytest.approx(2.0 / z**2 - 1.0 / z + 3.0 * z, rel=1e-14)
    assert f.order == 2 and f.top_power == 1


def test_derivative_of_inverse():
    f = RationalFunction([1.0], 1)
    df = f.deriv()
    # d/dz (1/z) = -1/z^2
    z = 0.7 + 0.3j
    assert df(z) == pytest.approx(-1.0 / z**2, rel=1e-14)
    assert df == RationalFunction([-1.0], 2)


def test_derivative_second_order():
    f = RationalFunction([1.0], 2)  # z^-2
    z = 1.5 - 0.2j
    assert f.deriv()(z) == pytest.approx(-2.0 / z**3, rel=1e-13)


def test_derivative_of_polynomial_keeps_order_zero():
    f = RationalFunction([5.0, 0.0, 0.5])  # 5 + z^2 / 2
    assert f.deriv() == RationalFunction([0.0, 1.0])
    assert f.deriv().deriv().deriv().is_zero


def test_product_and_sum():
    f = RationalFunction([1.0], 1)      # 1/z
    g = RationalFunction([0.0, 1.0])    # z
    assert f * g == RationalFunction([1.0])
    assert (f * g)(123.0) == pytest.approx(1.0)
    h = f + g
    assert h == RationalFunction([1.0, 0.0, 1.0], 1)
    z = 2.0 + 1.0j
    assert h(z) == pytest.approx(1.0 / z + z, rel=1e-14)


def test_sum_aligns_pole_orders():
    f = RationalFunction([1.0], 3)           # z^-3
    g = RationalFunction([2.0, 1.0], 1)      # 2/z + 1
    assert f + g == RationalFunction([1.0, 0.0, 2.0, 1.0], 3)
    assert g + f == f + g


def test_scalar_operations():
    f = RationalFunction([0.5], 1)
    g = 2.0 * f
    assert g(4.0) == pytest.approx(0.25)
    assert (-f)(2.0) == pytest.approx(-0.25)
    assert (f - f).is_zero
    assert (f + 1.0)(0.5) == pytest.approx(2.0)


def test_common_power_cancellation():
    # z/z^2 normalizes to 1/z: stored leading zeros cancel against the order
    f = RationalFunction([0.0, 1.0], 2)
    assert f.order == 1 and f.coeffs[0] != 0
    assert f == RationalFunction([1.0], 1)
    # cancellation stops at order 0: z^3/z is z^2
    assert RationalFunction([0.0, 0.0, 0.0, 1.0], 1) == RationalFunction([0.0, 0.0, 1.0])


def test_pole_order_must_be_nonnegative():
    with pytest.raises(ValueError):
        RationalFunction([1.0], -1)


def test_zero_function_normalization():
    z = RationalFunction([0.0], 2)
    assert z.is_zero and z.order == 0
    assert z(5.0) == 0.0
    assert RationalFunction([1.0], 2) * 0.0 == RationalFunction([0.0])


@given(st.lists(st.floats(-5, 5), min_size=1, max_size=4),
       st.lists(st.floats(-5, 5), min_size=1, max_size=4))
def test_product_rule(num_a, num_b):
    """(fg)' = f'g + fg' as Laurent polynomials, checked by evaluation."""
    f = RationalFunction(num_a, 1)
    g = RationalFunction(num_b, 2)
    lhs = (f * g).deriv()
    rhs = f.deriv() * g + f * g.deriv()
    for z in (0.5 + 0.5j, 2.0, -1.3 + 0.1j):
        a, b = lhs(z), rhs(z)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


@given(st.integers(1, 4))
def test_inverse_power_derivative_chain(k):
    f = RationalFunction([1.0], k)
    z = 1.1 + 0.7j
    assert f.deriv()(z) == pytest.approx(-k * z ** (-k - 1), rel=1e-12)
    assert f.deriv() == RationalFunction([-float(k)], k + 1)
