import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distprod.testfn import (
    OrderExceededError,
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    seminorm,
    vanish_probe,
)

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


def test_derivative_method_consistent_with_order_argument():
    d = ODD.derivative()
    xs = np.linspace(-3, 3, 11)
    np.testing.assert_allclose(d(xs), ODD(xs, 1), rtol=1e-14)
    assert d.max_order == ODD.max_order - 1


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

    def test_derivatives_vanish_exactly_off_transition(self):
        for q in range(1, 6):
            assert self.w(0.5, q) == 0.0
            assert self.w(2.5, q) == 0.0
            assert self.w(0.0, q) == 0.0

    def test_first_derivative_matches_finite_differences(self):
        h = 1e-6
        for x in (1.2, 1.5, 1.8, -1.3):
            fd = (self.w(x + h) - self.w(x - h)) / (2 * h)
            assert self.w(x, 1) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_higher_derivatives_match_finite_differences(self):
        # Richardson-extrapolated central differences (the plain stencil's
        # truncation term carries the huge higher bump derivatives)
        h = 1e-3
        for x in (1.3, 1.6, -1.45):
            for q in (1, 2, 3):
                fd1 = (self.w(x + h, q) - self.w(x - h, q)) / (2 * h)
                fd2 = (self.w(x + h / 2, q) - self.w(x - h / 2, q)) / h
                fd = (4 * fd2 - fd1) / 3
                assert self.w(x, q + 1) == pytest.approx(fd, rel=1e-6, abs=1e-7)

    def test_odd_symmetry_of_odd_derivatives(self):
        assert self.w(1.4, 1) == -self.w(-1.4, 1)
        assert self.w(1.4, 2) == self.w(-1.4, 2)

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


class TestSeminorm:
    def test_gauss_entry_00(self):
        rep = seminorm(GAUSS, 0)
        assert rep.entry(0, 0) == pytest.approx(1.0, abs=1e-9)

    def test_gauss_entry_10(self):
        # sup |x e^{-x^2}| attained at x = 1/sqrt(2): (2e)^{-1/2}
        rep = seminorm(GAUSS, 1)
        assert rep.entry(1, 0) == pytest.approx(0.4288819424803534, abs=1e-6)

    def test_zero_function(self):
        rep = seminorm(TestFunction((0.0,), sigma=1.0), 2)
        assert rep.max_value == 0.0

    def test_entries_finite_and_nonnegative(self):
        rep = seminorm(REFERENCE_TEST_FUNCTIONS["tilted"], 4)
        arr = np.array(rep.values)
        assert np.all(np.isfinite(arr)) and np.all(arr >= 0.0)

    def test_order_exceeded(self):
        with pytest.raises(OrderExceededError):
            seminorm(GAUSS, GAUSS.max_order + 1)

    def test_monotone_under_grid_growth(self):
        # a denser direct grid never beats the adaptive table by more than tol
        rep = seminorm(ODD, 2)
        xs = np.linspace(-12, 12, 30001)
        for k in range(3):
            for q in range(3):
                direct = float(np.max(np.abs(xs**k * ODD(xs, q))))
                assert direct <= rep.entry(k, q) * (1.0 + 1e-6) + 1e-12


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
