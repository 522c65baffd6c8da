import math

import numpy as np
import pytest

from distprod.boundary import (
    CatalogError,
    HyperfunctionPair,
    Points,
    RegulatorError,
    catalog,
    required_order,
    verify_growth_bound,
)
from distprod.ratfun import RationalFunction

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
    for y in (0.0, -0.1, -0.5, math.inf, math.nan):
        with pytest.raises(RegulatorError):
            d.regulated(0.0, y)
        heights = np.full(5, 0.1)
        heights[3] = y
        with pytest.raises(RegulatorError):
            d.regulated(np.linspace(-1.0, 1.0, 5), heights)


def test_regulated_heights_point_by_point():
    """An array of heights gives, bit for bit, each height's own values,
    whether it matches x point by point or is broadcast one per row."""
    xs = np.linspace(-2.0, 2.0, 9)
    ys = (0.3, 0.01)
    for pair in (catalog("pv_inv_x"), catalog("delta").derivative()):
        assert not (pair.f_plus.is_zero or pair.f_minus.is_zero)
        got = pair.regulated(np.concatenate([xs, xs]), np.repeat(ys, len(xs)))
        expect = np.concatenate([pair.regulated(xs, y) for y in ys])
        assert got.tobytes() == expect.tobytes()
        rows = pair.regulated(np.stack([xs, xs]), np.array(ys)[:, None])
        assert rows.shape == (2, len(xs))
        assert rows.tobytes() == expect.tobytes()


class _CountingTerm(RationalFunction):
    """A single term that records every evaluation."""

    def __call__(self, z):
        self.calls.append(z)
        return super().__call__(z)


def _spy(coeff):
    f = _CountingTerm(coeff)
    f.calls = []
    return f


def test_zero_representative_not_evaluated():
    xs = np.linspace(-3.0, 3.0, 41)
    y = 0.01
    plus = catalog("plus_i0_pow", 2)
    assert plus.f_minus.is_zero
    spy = _spy(0.0)
    got = HyperfunctionPair(plus.f_plus, spy, plus.label).regulated(xs, y)
    assert got.tobytes() == plus.f_plus(xs + 1j * y).tobytes()
    assert got.tobytes() == plus.regulated(xs, y).tobytes()
    assert spy.calls == []

    minus = catalog("minus_i0_pow", 2)
    spy = _spy(0.0)
    got = HyperfunctionPair(spy, minus.f_minus, minus.label).regulated(xs, y)
    assert got.tobytes() == (-minus.f_minus(xs - 1j * y)).tobytes()
    assert spy.calls == []


def _through_depth(atoms, depth):
    for _ in range(depth):
        atoms += [a.derivative() for a in atoms[-4:]]
    return atoms


# delta, pv(1/x), 1, x^2 and their derivatives; d(1), d(d(1)) and d^3(x^2)
# are the zero pair, left out
_TWO_SIDED = [a for a in _through_depth(
    [catalog("delta"), catalog("pv_inv_x"), catalog("one"), catalog("monomial", 2)], 3)
    if not a.f_plus.is_zero]
_ONE_SIDED = _through_depth([catalog(name, k) for name, k in (
    ("plus_i0_pow", 1), ("plus_i0_pow", 2), ("minus_i0_pow", 1), ("minus_i0_pow", 3))], 3)
_GRID = np.concatenate([np.linspace(-10.0, 10.0, 41), [1e-8, -1e-8, 0.37, -2.9, 1e-3, 3e-7]])


@pytest.mark.parametrize("pair", _TWO_SIDED, ids=lambda a: a.label)
def test_two_sided_pair_is_real_bit_for_bit(pair):
    # f- = -conj(c+) z^n, so f+(x + iy) - f-(x - iy) is exactly (2w, 0) with
    # w = Re f+(x + iy): regulated returns a float, and never reads x - iy.
    # delta and pv(1/x) are bit for bit the Poisson forms
    # 2 (Re c x + Im c y) / (x^2 + y^2), c = c+, within 4 ulp of 2w.  Every
    # other pair is the float 2w, bit for bit up to the sign of a zero: where
    # a part of f+(x + iy) is an exact 0 (x = 0 for d(pv(1/x)), x = +-y for
    # d(delta) and d(d(d(delta)))), the complex formula's zero parts may
    # carry either sign, and 2w = -0.0 where the formula reads +0.0
    assert pair.is_real
    assert pair.is_poisson == (pair.label in ("delta", "pv(1/x)"))
    c = pair.f_plus.coeff
    for y in (3.0, 0.1, 1e-3, 3e-7):
        got = pair.regulated(_GRID, y)
        assert got.dtype == np.float64
        old = pair.f_plus(_GRID + 1j * y) - pair.f_minus(_GRID - 1j * y)
        assert (old.imag == 0.0).all()
        if pair.is_poisson:
            want = (2.0 * c.real * _GRID + 2.0 * c.imag * y) / (_GRID * _GRID + y * y)
            assert np.array_equal(got, want)       # bitwise where nonzero
            assert (np.abs(got - old.real) <= 4.0 * np.spacing(np.abs(old.real))).all()
        else:
            assert np.array_equal(got, old.real)
        points = Points(_GRID, y)
        assert pair.at(points).tobytes() == got.tobytes()
        assert "z_minus" not in vars(points)
        assert isinstance(pair.regulated(0.37, y), float)


def test_poisson_pair_with_complex_coefficient():
    # a library pair c+ / z with f- = -conj(c+) / z, both parts of c+ nonzero:
    # real and Poisson, so at a real x it is bit for bit
    # 2 (Re c x + Im c y) / q; the two terms cancel near x = -Im c y / Re c,
    # so the complex formula's real part is within 4 ulp of their scale
    c = 0.3 + 0.2j
    pair = HyperfunctionPair(RationalFunction(c, -1), RationalFunction(-c.conjugate(), -1))
    assert pair.is_poisson
    for y in (3.0, 0.1, 1e-3, 3e-7):
        q = _GRID * _GRID + y * y
        got = pair.regulated(_GRID, y)
        assert got.dtype == np.float64
        assert np.array_equal(got, (2.0 * c.real * _GRID + 2.0 * c.imag * y) / q)
        old = pair.f_plus(_GRID + 1j * y) - pair.f_minus(_GRID - 1j * y)
        scale = (np.abs(2.0 * c.real * _GRID) + 2.0 * c.imag * y) / q
        assert (np.abs(got - old.real) <= 4.0 * np.spacing(scale)).all()


@pytest.mark.parametrize("pair", _ONE_SIDED, ids=lambda a: a.label)
def test_one_sided_pair_is_complex(pair):
    assert not pair.is_real
    points = Points(_GRID, 0.1)
    assert pair.at(points).dtype == np.complex128
    assert ("z_minus" in vars(points)) == (pair.side == "-")


@pytest.mark.parametrize("pair", [*_TWO_SIDED, *_ONE_SIDED], ids=lambda a: a.label)
def test_pair_on_a_line_takes_the_complex_formula(pair):
    # at points z = x + i eta shifted off the real axis the real-axis
    # shortcuts do not apply: every pair is f+(z + iy) - f-(z - iy), complex,
    # for eta a number or a column of rows, bit for bit
    # f+(x + i(eta + y)) - f-(x - i(y - eta)), a zero term left out
    y = np.array([0.3, 1e-3])[:, None]
    eta = np.array([0.7, -1.0])[:, None]
    x = np.stack([_GRID, _GRID])
    z = x + 1j * eta
    want = pair.f_plus(z + 1j * y) - pair.f_minus(z - 1j * y)
    got = pair.at(Points(z, y))
    assert got.dtype == np.complex128
    assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    assert np.array_equal(pair.at(Points(x[:1] + 1j * 0.7, y[:1])), got[:1])
    for xs, ys, etas in ((x, y, eta), (x[:1], y[:1], 0.7)):
        up, down = xs + 1j * (etas + ys), xs - 1j * (ys - etas)
        if pair.f_minus.is_zero:
            exact = pair.f_plus(up)
        elif pair.f_plus.is_zero:
            exact = -pair.f_minus(down)
        else:
            exact = pair.f_plus(up) - pair.f_minus(down)
        assert pair.at(Points(xs + 1j * etas, ys)).tobytes() == exact.tobytes()


def test_zero_pair_is_complex():
    zero = catalog("one").derivative()
    assert not zero.is_real
    points = Points(_GRID, 0.1)
    zero.at(points)
    assert "z_minus" not in vars(points)
    assert zero.regulated(_GRID, 0.1).tobytes() == np.zeros(len(_GRID), complex).tobytes()


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
