import math

import numpy as np
import pytest

from distprod.boundary import (
    CatalogError,
    RegulatorError,
    catalog,
    combine,
    required_order,
    verify_growth_bound,
)

ALL_ATOMS = [
    catalog("delta"),
    catalog("pv_inv_x"),
    catalog("plus_i0_pow", 1),
    catalog("plus_i0_pow", 2),
    catalog("minus_i0_pow", 1),
    catalog("monomial", 0),
    catalog("monomial", 1),
    catalog("monomial", 2),
]


class TestCatalog:
    def test_delta_is_poisson_kernel(self):
        d = catalog("delta")
        assert d.regulated(0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert d.regulated(0.0, 0.1) == pytest.approx(10.0 / math.pi, rel=1e-14)
        xs = np.linspace(-3, 3, 25)
        y = 0.2
        np.testing.assert_allclose(
            d.regulated(xs, y).real, y / (math.pi * (xs**2 + y**2)), rtol=1e-13
        )
        np.testing.assert_allclose(d.regulated(xs, y).imag, 0.0, atol=1e-16)

    def test_pv_representative(self):
        pv = catalog("pv_inv_x")
        xs = np.linspace(-3, 3, 25)
        y = 0.3
        np.testing.assert_allclose(
            pv.regulated(xs, y).real, xs / (xs**2 + y**2), rtol=1e-13
        )
        assert pv.regulated(0.0, 0.5) == 0.0
        # approaches 1/x away from the axis
        vals = [pv.regulated(2.0, y).real for y in (0.1, 0.01, 0.001)]
        assert vals[-1] == pytest.approx(0.5, abs=1e-6)

    def test_plus_i0_pow(self):
        p = catalog("plus_i0_pow", 1)
        assert p.regulated(0.0, 1.0) == pytest.approx(-1j, rel=1e-14)
        z = 0.4 + 0.2j
        p2 = catalog("plus_i0_pow", 2)
        assert p2.regulated(0.4, 0.2) == pytest.approx(1.0 / z**2, rel=1e-13)

    def test_minus_i0_pow(self):
        m = catalog("minus_i0_pow", 1)
        # 1/(x - iy) at x = 0, y = 1 is +i (the delta part enters with +i pi)
        assert m.regulated(0.0, 1.0) == pytest.approx(1j, rel=1e-14)
        assert m.regulated(2.0, 0.5) == pytest.approx(1.0 / (2.0 - 0.5j), rel=1e-13)

    def test_monomial_one_is_x(self):
        mono = catalog("monomial", 1)
        xs = np.linspace(-5, 5, 21)
        np.testing.assert_allclose(mono.regulated(xs, 0.7).real, xs, atol=1e-15)

    def test_monomial_two_regulates(self):
        mono = catalog("monomial", 2)
        # Re((x+iy)^2) = x^2 - y^2
        assert mono.regulated(3.0, 0.5) == pytest.approx(9.0 - 0.25, rel=1e-14)

    def test_unity(self):
        one = catalog("one")
        xs = np.linspace(-10, 10, 11)
        np.testing.assert_allclose(one.regulated(xs, 0.3), 1.0, rtol=0)
        np.testing.assert_allclose(one.regulated(xs, 2.0), 1.0, rtol=0)

    def test_unknown_name(self):
        with pytest.raises(CatalogError):
            catalog("heaviside")

    def test_bad_parameters(self):
        with pytest.raises(CatalogError):
            catalog("plus_i0_pow", 0)
        with pytest.raises(CatalogError):
            catalog("monomial", -1)
        with pytest.raises(CatalogError):
            catalog("delta", 3)


def test_regulator_error_on_bad_height():
    d = catalog("delta")
    for y in (0.0, -0.1, math.inf):
        with pytest.raises(RegulatorError):
            d.regulated(0.0, y)


def test_normalized_representation_has_no_common_factor():
    """A stored pole order is the true one: no common power of z is left."""
    for pair in ALL_ATOMS + [a.derivative() for a in ALL_ATOMS]:
        for f in (pair.f_plus, pair.f_minus):
            if f.order > 0:
                assert f.coeffs[0] != 0


class TestDerivative:
    def test_pv_derivative_closed_form(self):
        dpv = catalog("pv_inv_x").derivative()
        z = 1.3 + 0.4j
        assert dpv.f_plus(z) == pytest.approx(-0.5 / z**2, rel=1e-13)
        assert dpv.f_minus(z) == pytest.approx(0.5 / z**2, rel=1e-13)

    def test_derivative_of_unity_vanishes(self):
        done = catalog("one").derivative()
        assert done.f_plus.is_zero and done.f_minus.is_zero
        xs = np.linspace(-2, 2, 9)
        np.testing.assert_allclose(done.regulated(xs, 0.5), 0.0, atol=0)

    def test_commutes_with_x_derivative(self):
        """F^y of the derivative pair equals d/dx of F^y, by finite differences."""
        h = 1e-5
        xs = np.array([-1.7, -0.4, 0.3, 1.1, 2.6])
        for pair in (catalog("delta"), catalog("pv_inv_x"), catalog("plus_i0_pow", 1)):
            d = pair.derivative()
            for y in (0.5, 0.15):
                fd = (pair.regulated(xs + h, y) - pair.regulated(xs - h, y)) / (2 * h)
                exact = d.regulated(xs, y)
                scale = np.max(np.abs(exact))
                np.testing.assert_allclose(fd, exact, atol=1e-6 * scale)

    def test_growth_exponent_bumped(self):
        d = catalog("delta")
        assert d.derivative().alpha == d.alpha + 1.0

    def test_label(self):
        assert catalog("delta").derivative().label == "d(delta)"


def test_combine_linearity():
    a, b = catalog("delta"), catalog("pv_inv_x")
    lin = combine([a, b], [2.0, -1.5j])
    xs = np.linspace(-2, 2, 17)
    for y in (0.4, 0.05):
        expect = 2.0 * a.regulated(xs, y) - 1.5j * b.regulated(xs, y)
        got = lin.regulated(xs, y)
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=1e-15)


def test_cauchy_riemann_proxy():
    """f_plus is holomorphic: FD Cauchy-Riemann residual is tiny off the axis."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-3, 3, 10) + 1j * rng.uniform(0.2, 2.0, 10)
    h = 1e-6
    for pair in ALL_ATOMS:
        f = pair.f_plus
        if f.is_zero:
            continue
        for z in pts:
            df_dx = (f(z + h) - f(z - h)) / (2 * h)
            df_dy = (f(z + 1j * h) - f(z - 1j * h)) / (2 * h)
            # Cauchy-Riemann in complex form: d/dy f = i d/dx f
            assert abs(df_dy - 1j * df_dx) <= 1e-8 * (1.0 + abs(df_dx))


class TestGrowthBound:
    def test_plus_i0_alpha(self):
        rep = verify_growth_bound(catalog("plus_i0_pow", 1))
        assert rep.alpha == pytest.approx(1.0, abs=0.05)
        assert rep.beta == pytest.approx(0.0, abs=0.05)
        assert rep.ok and rep.residual <= 1.01

    def test_unity_flat(self):
        rep = verify_growth_bound(catalog("one"))
        assert rep.alpha == pytest.approx(0.0, abs=0.05)
        assert rep.beta == pytest.approx(0.0, abs=0.05)
        assert rep.C == pytest.approx(1.0, rel=1e-6)

    def test_monomial_beta(self):
        rep = verify_growth_bound(catalog("monomial", 1))
        assert rep.beta == pytest.approx(1.0, abs=0.05)
        assert rep.ok

    def test_all_catalog_entries_within_bound(self):
        for pair in ALL_ATOMS:
            rep = verify_growth_bound(pair)
            assert rep.ok, f"{pair.label}: residual {rep.residual}"
            assert rep.residual <= 1.01

    @pytest.mark.filterwarnings("error")  # the zero pairs d(1), d(d(x)) must fit cleanly
    def test_declared_exponents_cover_fits(self):
        # the exponents read off the representatives are the fitted ones
        for atom in ALL_ATOMS:
            for pair in (atom, atom.derivative(), atom.derivative().derivative()):
                rep = verify_growth_bound(pair)
                assert rep.alpha == pytest.approx(pair.alpha, abs=0.05), pair.label
                assert rep.beta == pytest.approx(pair.beta, abs=0.05), pair.label

    def test_exponents_of_monomial_derivative(self):
        d = catalog("monomial", 2).derivative()
        assert (d.alpha, d.beta) == (0, 1)

    def test_bad_region(self):
        with pytest.raises(ValueError):
            verify_growth_bound(catalog("delta"), y_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            verify_growth_bound(catalog("delta"), x_range=(3.0, -3.0))


class TestRequiredOrder:
    def test_reference_point(self):
        assert required_order(1, 0) == 5

    def test_origin(self):
        assert required_order(0, 0) == 4

    def test_fractional(self):
        assert required_order(1.5, 0.2) == 6

    def test_near_integer_sum_not_bumped(self):
        assert required_order(1.0 + 1e-12, 0.0) == 5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            required_order(-0.5, 0.0)
