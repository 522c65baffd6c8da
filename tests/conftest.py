import math

import pytest

from distprod.boundary import catalog
from distprod.expression import ProductExpression
from distprod.testfn import TestFunction


@pytest.fixture
def gauss():
    """exp(-x^2)"""
    return TestFunction((1.0,), sigma=math.sqrt(0.5))


@pytest.fixture
def odd_gauss():
    """x * exp(-x^2/2)"""
    return TestFunction((0.0, 1.0), sigma=1.0)


@pytest.fixture
def delta_sq():
    return ProductExpression((catalog("delta"), catalog("delta")))


@pytest.fixture
def delta_pv():
    return ProductExpression((catalog("delta"), catalog("pv_inv_x")))


@pytest.fixture
def i0_sq():
    return ProductExpression((catalog("plus_i0_pow", 1), catalog("plus_i0_pow", 1)))
