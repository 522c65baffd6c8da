import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distprod.testfn import (
    MAX_ORDER,
    OrderExceededError,
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)
from distprod.testfn import _PIECES, _transition_antiderivative

GAUSS = TestFunction((1.0,), sigma=math.sqrt(0.5))          # exp(-x^2)
ODD = TestFunction((0.0, 1.0), sigma=1.0)                   # x exp(-x^2/2)


class TestEvaluation:
    def test_gauss_at_zero(self):
        assert GAUSS(0.0) == 1.0

    def test_gauss_first_derivative_at_zero(self):
        assert GAUSS(0.0, 1) == 0.0

    def test_odd_first_derivative_at_zero(self):
        # d/dx [x e^{-x^2/2}] = (1 - x^2) e^{-x^2/2} -> 1 at x = 0
        assert ODD(0.0, 1) == pytest.approx(1.0)

    def test_values_match_closed_form(self):
        xs = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(GAUSS(xs), np.exp(-xs**2), rtol=1e-14)

    def test_order_exceeded(self):
        with pytest.raises(OrderExceededError):
            GAUSS(0.0, GAUSS.max_order + 1)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            TestFunction((1.0,), sigma=0.0)

    @pytest.mark.parametrize("poly, mu", [
        ((1.0,), math.nan), ((1.0,), math.inf), ((math.nan,), 0.0), ((1.0, -math.inf), 0.0),
    ])
    def test_non_finite_parameters(self, poly, mu):
        with pytest.raises(ValueError, match="finite"):
            TestFunction(poly, sigma=1.0, mu=mu)

    def test_offset_center(self):
        phi = TestFunction((1.0,), sigma=1.0, mu=2.0)
        assert phi(2.0) == pytest.approx(1.0)
        assert phi(0.0) == pytest.approx(math.exp(-2.0))


def test_derivative_matches_finite_differences():
    """Central differences of phi^(q) track phi^(q+1) at 20 points in [-5, 5]."""
    h = 1e-4
    pts = np.linspace(-5, 5, 20)
    for phi in REFERENCE_TEST_FUNCTIONS.values():
        for q in range(3):
            fd = (phi(pts + h, q) - phi(pts - h, q)) / (2 * h)
            exact = phi(pts, q + 1)
            scale = np.max(np.abs(exact)) + 1e-12
            np.testing.assert_allclose(fd, exact, atol=1e-6 * scale)


class TestVanishProbe:
    def test_p0_value(self):
        probe = vanish_probe(0, GAUSS)
        assert probe(0.0) == 0.0
        assert probe(1.0) == pytest.approx(math.exp(-1.0))

    def test_p2_derivatives_exactly_zero(self):
        probe = vanish_probe(2, GAUSS)
        for q in range(3):
            assert probe(0.0, q) == 0.0

    def test_p1_second_derivative(self):
        # x^2 * base: phi''(0) = 2 * base(0)
        probe = vanish_probe(1, GAUSS)
        assert probe(0.0, 2) == pytest.approx(2.0)

    def test_degenerate_base_rejected(self):
        with pytest.raises(ValueError):
            vanish_probe(1, ODD)

    @given(st.integers(0, 6), st.sampled_from(["gauss", "gauss_wide", "tilted", "offset"]))
    def test_exact_vanishing_any_base(self, p, name):
        probe = vanish_probe(p, REFERENCE_TEST_FUNCTIONS[name])
        for q in range(p + 1):
            assert probe(0.0, q) == 0.0


def _dense_transition_grid():
    """Sorted x in (1, 2): a uniform grid, 1e-3 at both ends, every piece boundary.

    For the cutoff (1, 2) the transition coordinate s = x - 1 is exact.
    """
    bounds = 1.0 + np.arange(1, _PIECES) / _PIECES
    x = np.concatenate([
        np.linspace(1.0, 2.0, 100001)[1:-1],
        1.0 + np.geomspace(1e-12, 1e-3, 2001),
        2.0 - np.geomspace(1e-12, 1e-3, 2001),
        bounds, np.nextafter(bounds, 1.0), np.nextafter(bounds, 2.0),
    ])
    return np.sort(x)


class TestPlateauCutoff:
    def setup_method(self):
        self.w = PlateauCutoff(1.0, 2.0)

    def test_plateau_is_exactly_one(self):
        xs = np.linspace(-1.0, 1.0, 41)
        assert np.all(self.w(xs) == 1.0)

    def test_tail_is_exactly_zero(self):
        for x in (2.0, 2.5, 3.0, -2.0, -10.0):
            assert self.w(x) == 0.0

    def test_transition_strictly_inside_unit_interval(self):
        v = self.w(1.5)
        assert 0.0 < v < 1.0

    def test_even_symmetry(self):
        assert self.w(1.5) == self.w(-1.5)
        assert self.w(1.21) == self.w(-1.21)

    def test_monotone_on_transition(self):
        xs = np.linspace(1.0, 2.0, 201)
        vals = self.w(xs)
        # nonincreasing up to rounding of the interpolated antiderivative
        assert np.all(np.diff(vals) <= 1e-12)

    def test_bounded_by_unit_interval(self):
        xs = np.linspace(-3, 3, 601)
        vals = self.w(xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_order_cap_is_the_shared_constant(self):
        assert self.w.max_order == GAUSS.max_order == MAX_ORDER

    def test_table_matches_degree_256_series(self):
        anti, mass = _transition_antiderivative()
        x = _dense_transition_grid()
        want = np.clip(1.0 - anti(x - 1.0) / mass, 0.0, 1.0)
        assert np.max(np.abs(self.w(x) - want)) <= 1e-15

    def test_table_nonincreasing_on_dense_grid(self):
        vals = self.w(_dense_transition_grid())
        assert np.all(np.diff(vals) <= 1e-15)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            PlateauCutoff(2.0, 1.0)
        with pytest.raises(ValueError):
            PlateauCutoff(0.0, 1.0)
        with pytest.raises(ValueError):
            PlateauCutoff(1.0, 1.0)

    def test_geometry_variants(self):
        for a, b in ((0.5, 1.0), (2.0, 3.0), (0.1, 4.0)):
            w = PlateauCutoff(a, b)
            assert w(0.9 * a) == 1.0
            assert w(1.1 * b) == 0.0
            assert 0.0 < w(0.5 * (a + b)) < 1.0


@settings(max_examples=25)
@given(st.floats(0.3, 3.0), st.floats(-1.5, 1.5),
       st.lists(st.floats(-3, 3), min_size=1, max_size=4))
def test_rapid_decay_on_wide_grid(sigma, mu, poly):
    phi = TestFunction(tuple(poly), sigma=sigma, mu=mu)
    xs = np.linspace(-50, 50, 501)
    for q in (0, 2):
        vals = np.abs(xs**3 * phi(xs, q))
        assert np.all(np.isfinite(vals))
        assert vals[0] < 1e-40 and vals[-1] < 1e-40  # dead at the far ends
