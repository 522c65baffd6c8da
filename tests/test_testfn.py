import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from distprod.testfn import (
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)
from distprod.testfn import _PIECES, _transition_antiderivative, _transition_table

GAUSS = TestFunction((1.0,), sigma=math.sqrt(0.5))          # exp(-x^2)
ODD = TestFunction((0.0, 1.0), sigma=1.0)                   # x exp(-x^2/2)


class TestEvaluation:
    def test_gauss_at_zero(self):
        assert GAUSS(0.0) == 1.0

    def test_gauss_first_derivative_at_zero(self):
        assert GAUSS.taylor(1)[1] == 0.0

    def test_odd_first_derivative_at_zero(self):
        # d/dx [x e^{-x^2/2}] = (1 - x^2) e^{-x^2/2} -> 1 at x = 0
        assert ODD.taylor(1)[1] == pytest.approx(1.0)

    def test_values_match_closed_form(self):
        xs = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(GAUSS(xs), np.exp(-xs**2), rtol=1e-14)

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            TestFunction((1.0,), sigma=0.0)

    @pytest.mark.parametrize("sigma", [1e-200, 1e-154, 1.4e154, 1e160])
    def test_sigma_without_a_normal_square(self, sigma):
        # sigma^2 overflows (sigma**2 raised OverflowError) or is subnormal or
        # 0 (taylor divided by it)
        with pytest.raises(ValueError, match=re.escape(f"sigma {sigma!r} has no finite")):
            TestFunction((1.0,), sigma)

    @pytest.mark.parametrize("sigma", [1.5e-154, 1.3e154])
    def test_sigma_with_a_normal_square(self, sigma):
        phi = TestFunction((1.0,), sigma)
        assert np.all(np.isfinite(phi.taylor(2)))
        assert math.isfinite(phi.decay_radius())

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

    @pytest.mark.parametrize("phi", [
        *REFERENCE_TEST_FUNCTIONS.values(), vanish_probe(2, REFERENCE_TEST_FUNCTIONS["offset"]),
    ], ids=[*REFERENCE_TEST_FUNCTIONS, "probe"])
    def test_values_are_numpy_polyval_bitwise(self, phi):
        # the in-place Horner loop runs numpy's polyval operations in its order
        x = np.concatenate([np.linspace(-6.0, 6.0, 449), [0.0, -0.0, 1e-300, -1e-12]])
        for points in (x, x.reshape(151, 3)):
            u = points - phi.mu
            want = npoly.polyval(points, phi.poly) * np.exp(-(u * u) / (2.0 * phi.sigma**2))
            assert phi(points).tobytes() == want.tobytes()
        assert phi(0.3) == float(npoly.polyval(0.3, phi.poly)
                                 * np.exp(-(0.3 - phi.mu) ** 2 / (2.0 * phi.sigma**2)))

    @pytest.mark.parametrize("phi", REFERENCE_TEST_FUNCTIONS.values(),
                             ids=list(REFERENCE_TEST_FUNCTIONS))
    def test_complex_points_match_mpmath(self, phi):
        # phi is entire: on the line Im z = +-sigma, where same-side pairings
        # run, and at real points, where the complex formula is the real one
        # to rounding; a real x stays real
        x = np.linspace(-6.0, 6.0, 25)
        for eta in (phi.sigma, -phi.sigma, 0.0):
            z = x + 1j * eta
            got = phi(z)
            with mpmath.workdps(30):
                want = [complex(mpmath.polyval(list(reversed(phi.poly)), w)
                                * mpmath.exp(-(w - phi.mu) ** 2 / (2 * mpmath.mpf(phi.sigma) ** 2)))
                        for w in map(mpmath.mpc, z)]
            assert (np.abs(got - want) <= 4e-15 * np.abs(want).max()).all()
        assert np.allclose(phi(x + 0j), phi(x), rtol=1e-14, atol=0.0)
        assert phi(x).dtype == np.float64 and type(phi(0.3)) is float
        assert type(phi(0.3 + 0.1j)) is complex

    @pytest.mark.parametrize("poly, mu, m, parity", [
        ((1.0,), 0.0, 0, 1), ((0.0, 2.0), 0.0, 1, -1), ((0.0, 0.0, 1.0, 0.0, 3.0), 0.0, 2, 1),
        ((1.0, 1.0, 0.25), 0.0, 0, None), ((0.0, 1.0), 0.7, 1, None), ((0.0, 0.0), 0.0, 2, 1),
    ])
    def test_vanishing_order_and_parity(self, poly, mu, m, parity):
        phi = TestFunction(poly, 1.0, mu)
        assert (phi.vanishing_order, phi.parity) == (m, parity)
        x = np.linspace(0.1, 3.0, 30)
        if parity is not None:
            assert phi(-x).tobytes() == (parity * phi(x)).tobytes()
        assert all(c == 0.0 for c in phi.taylor(m + 2)[:m])


def _mp_taylor(phi: TestFunction, n: int) -> list:
    """phi's Taylor coefficients at 0 through order n, by mpmath at 60 digits."""
    with mpmath.workdps(60):
        poly = [mpmath.mpf(c) for c in reversed(phi.poly)]
        sigma, mu = mpmath.mpf(phi.sigma), mpmath.mpf(phi.mu)
        return mpmath.taylor(
            lambda x: mpmath.polyval(poly, x) * mpmath.exp(-(x - mu) ** 2 / (2 * sigma**2)),
            0, n)


@pytest.mark.parametrize("phi", [
    *REFERENCE_TEST_FUNCTIONS.values(),
    TestFunction((0.3, -1.0, 0.5, 2.0), sigma=0.6, mu=-1.3),
], ids=[*REFERENCE_TEST_FUNCTIONS, "cubic_offset"])
def test_taylor_matches_mpmath_to_order_60(phi):
    """Relative error <= 1e-13 through order 20 (5.1e-14 measured, on the
    cubic), and |error| sigma^k <= 1e-16 through order 60 (8.5e-17 measured).
    An even phi's odd coefficients are exactly 0."""
    t = phi.taylor(60)
    assert t.shape == (61,)
    even = phi.mu == 0.0 and not any(phi.poly[1::2])
    if even:
        assert np.all(t[1::2] == 0.0)
    ref = _mp_taylor(phi, 60)
    for k in range(61):
        if even and k % 2:
            continue
        err = abs(float(t[k] - ref[k]))
        assert err * phi.sigma**k <= 1e-16, k
        if k <= 20:
            assert err <= 1e-13 * abs(float(ref[k])), k


class TestVanishProbe:
    def test_p0_value(self):
        probe = vanish_probe(0, GAUSS)
        assert probe(0.0) == 0.0
        assert probe(1.0) == pytest.approx(math.exp(-1.0))

    def test_p2_derivatives_exactly_zero(self):
        probe = vanish_probe(2, GAUSS)
        assert probe.taylor(2).tolist() == [0.0, 0.0, 0.0]

    def test_p1_second_derivative(self):
        # x^2 * base: phi''(0) = 2! t_2 = 2 * base(0)
        probe = vanish_probe(1, GAUSS)
        assert 2.0 * probe.taylor(2)[2] == pytest.approx(2.0)

    def test_degenerate_base_rejected(self):
        with pytest.raises(ValueError):
            vanish_probe(1, ODD)

    @given(st.integers(0, 6), st.sampled_from(["gauss", "gauss_wide", "tilted", "offset"]))
    def test_exact_vanishing_any_base(self, p, name):
        probe = vanish_probe(p, REFERENCE_TEST_FUNCTIONS[name])
        assert probe.taylor(p).tolist() == [0.0] * (p + 1)


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

    def test_table_matches_degree_256_series(self):
        anti, mass = _transition_antiderivative()
        x = _dense_transition_grid()
        want = np.clip(1.0 - anti(x - 1.0) / mass, 0.0, 1.0)
        assert np.max(np.abs(self.w(x) - want)) <= 1e-15

    def test_table_nonincreasing_on_dense_grid(self):
        vals = self.w(_dense_transition_grid())
        assert np.all(np.diff(vals) <= 1e-15)

    def test_transition_equals_the_clip_form_bitwise(self):
        # gathering each step's coefficients per step and clamping with
        # np.clip: the same operations on the same values
        left, coeffs, mass = _transition_table()
        s = _dense_transition_grid() - 1.0
        u = s * _PIECES
        j = np.minimum(u.astype(np.intp), _PIECES - 1)
        t = 2.0 * (u - j) - 1.0
        b1, b2 = coeffs[-1][j], 0.0
        for c in coeffs[-2:0:-1]:
            b1, b2 = 2.0 * t * b1 - b2 + c[j], b1
        want = np.clip(1.0 - (left[j] + (t * b1 - b2 + coeffs[0][j])) / mass, 0.0, 1.0)
        assert PlateauCutoff._transition(s).tobytes() == want.tobytes()
        assert self.w(s + 1.0).tobytes() == want.tobytes()

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
    vals = np.abs(xs**3 * phi(xs))
    assert np.all(np.isfinite(vals))
    assert vals[0] < 1e-40 and vals[-1] < 1e-40  # dead at the far ends


def _log_envelope(x, d, mu, sigma):
    """log of |x|^d * exp(-(|x| - |mu|)^2 / (2 sigma^2)), which bounds |x^d phi|."""
    ax = np.abs(x)
    with np.errstate(divide="ignore"):
        power = d * np.log(ax) if d else 0.0
    return power - (ax - abs(mu)) ** 2 / (2.0 * sigma**2)


@settings(max_examples=60)
@given(st.floats(0.05, 5.0), st.floats(-3.0, 3.0), st.integers(0, 400))
def test_decay_radius_bounds_the_envelope_tail(sigma, mu, d):
    # past L = decay_radius(d), x^d * phi is below 1e-22 of its peak on [-L, L]
    L = TestFunction((1.0,), sigma=sigma, mu=mu).decay_radius(d)
    peak = _log_envelope(np.linspace(-L, L, 20001), d, mu, sigma).max()
    t = np.array([1.0, 1.2, 1.5, 1.9])
    tail = _log_envelope(np.concatenate([t, -t]) * L, d, mu, sigma)
    assert np.all(tail <= math.log(1e-22) + peak)


@pytest.mark.parametrize("name", sorted(REFERENCE_TEST_FUNCTIONS))
def test_decay_radius_keeps_the_fixed_margin(name):
    phi = REFERENCE_TEST_FUNCTIONS[name]
    assert phi.decay_radius() == abs(phi.mu) + phi.sigma * (14.0 + 2.0 * len(phi.poly))
    assert phi.decay_radius(200) > phi.decay_radius()
