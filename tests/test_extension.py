import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import Chebyshev

from distprod.boundary import catalog
from distprod.cli import Job, run_job
from distprod.expression import ProductExpression, parse_expression
from distprod.extension import (
    ExtensionError,
    SubtractedFunction,
    counterterm_value,
    evaluate_extension,
    factorization_identity_check,
)
from distprod import extension, pairing, testfn
from distprod.pairing import (
    DEFAULT_TOLERANCES,
    limit_pairing,
    pair_at_y,
)
from distprod.testfn import (
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)

GAUSS = REFERENCE_TEST_FUNCTIONS["gauss"]
OMEGA = PlateauCutoff(1.0, 2.0)
SQRT_PI = 1.7724538509055160


def _assert_subtraction_structure(phi, p):
    """phibar is phi minus omega * T_p, with T_p's data phi's own, bit for bit.

    The polynomial is phi.taylor(p) exactly.  Near 0 (|x| <= sigma / 2, on
    the plateau) phibar is the tail of phi's Taylor series past order p,
    x^(p+1) times a polynomial, so its value and its derivatives through
    order p vanish at 0; on the rest of the plateau it is phi minus the
    Taylor polynomial; beyond the support it is phi.
    """
    bar = SubtractedFunction(phi, OMEGA, p)
    taylor = phi.taylor(p)
    assert bar.taylor.tobytes() == taylor.tobytes()
    plateau = np.linspace(-OMEGA.plateau, OMEGA.plateau, 41)
    near = np.abs(plateau) <= 0.5 * phi.sigma
    assert 0 < near.sum() < len(plateau)
    xn, xf = plateau[near], plateau[~near]
    tail = phi.taylor(p + 60)[p + 1:]
    assert bar(xn).tobytes() == (xn ** (p + 1) * npoly.polyval(xn, tail)).tobytes()
    assert bar(xf).tobytes() == (phi(xf) - npoly.polyval(xf, taylor)).tobytes()
    assert bar(0.0) == 0.0
    beyond = np.array([-4.0, -2.5, -OMEGA.support, OMEGA.support, 2.5, 4.0])
    assert bar(beyond).tobytes() == phi(beyond).tobytes()


def _phibar_mpmath(phi, p, x):
    """phi(x) minus its Taylor polynomial through order p, in 100-digit arithmetic."""
    with mpmath.workdps(100):
        x = mpmath.mpf(x)

        def f(t):
            poly = sum(mpmath.mpf(c) * t**k for k, c in enumerate(phi.poly))
            return poly * mpmath.exp(-(t - phi.mu) ** 2 / (2 * mpmath.mpf(phi.sigma) ** 2))

        jet = mpmath.taylor(f, 0, p)
        return float(f(x) - sum(c * x**k for k, c in enumerate(jet)))


class TestTaylorSubtract:
    def test_noop_on_vanishing_input(self):
        probe = vanish_probe(1, GAUSS)
        bar = SubtractedFunction(probe, OMEGA, 1)
        xs = np.linspace(-4, 4, 101)
        # identical bits: the subtracted Taylor polynomial is exactly zero
        assert np.array_equal(bar(xs), probe(xs))

    def test_plateau_shift_for_p0(self):
        bar = SubtractedFunction(GAUSS, OMEGA, 0)
        for x in (0.0, 0.3, -0.9):
            assert bar(x) == pytest.approx(math.exp(-x * x) - 1.0, abs=1e-15)

    def test_p1_same_as_p0_for_even_phi(self):
        # phi'(0) = 0, so the order-1 term adds nothing
        bar0 = SubtractedFunction(GAUSS, OMEGA, 0)
        bar1 = SubtractedFunction(GAUSS, OMEGA, 1)
        xs = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(bar1(xs), bar0(xs), atol=1e-16)

    def test_derivatives_vanish_bitwise_at_origin(self):
        for p in range(4):
            _assert_subtraction_structure(REFERENCE_TEST_FUNCTIONS["tilted"], p)

    def test_offcenter_phi_also_exact(self):
        _assert_subtraction_structure(REFERENCE_TEST_FUNCTIONS["offset"], 2)

    @pytest.mark.parametrize("name", ["gauss", "tilted", "offset"])
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_no_cancellation_near_origin(self, name, p):
        # the plain difference phi - T_p cancels to noise here: exp(-x^2)
        # minus 1 - x^2 is 0, not 5e-21, at x = 1e-5
        phi = REFERENCE_TEST_FUNCTIONS[name]
        bar = SubtractedFunction(phi, OMEGA, p)
        for x in (1e-8, -1e-5, 1e-3, -0.05, 0.3, 0.5 * phi.sigma):
            want = _phibar_mpmath(phi, p, x)
            assert bar(x) == pytest.approx(want, rel=1e-13, abs=0.0), x

    @pytest.mark.parametrize("name", ["gauss", "tilted", "offset"])
    @pytest.mark.parametrize("p", [0, 2, 4])
    def test_tail_is_numpy_polyval_bitwise(self, name, p):
        # the in-place Horner loop runs numpy's polyval operations in its
        # order, so phibar near 0 keeps its bits, signs of zeros included
        bar = SubtractedFunction(REFERENCE_TEST_FUNCTIONS[name], OMEGA, p)
        x = np.concatenate([np.linspace(-bar.near, bar.near, 449), [0.0, -0.0, 1e-300, -1e-12]])
        for points in (x, x.reshape(151, 3)):
            want = npoly.polyval(points, bar.tail)
            assert testfn._polyval(points, bar.tail).tobytes() == want.tobytes()
            assert bar(points).tobytes() == (points ** (p + 1) * want).tobytes()

    @pytest.mark.parametrize("name", ["gauss", "gauss_wide", "tilted", "offset"])
    @pytest.mark.parametrize("p", [0, 2, 4, 12])
    def test_trimmed_tail_keeps_the_60_term_bits(self, name, p):
        # the tail's trailing terms below 1e-30 of its largest are dropped;
        # phibar keeps every bit of the 60-term sum near 0, and the
        # difference on the rest of the cutoff's transition is untouched
        phi = REFERENCE_TEST_FUNCTIONS[name]
        bar = SubtractedFunction(phi, OMEGA, p)
        assert len(bar.tail) < 60
        x = np.concatenate([np.linspace(-bar.near, bar.near, 20001),
                            np.linspace(-OMEGA.support - 0.5, OMEGA.support + 0.5, 20001),
                            [0.0, -0.0, 1e-300, -1e-12]])
        near = np.abs(x) <= bar.near
        want = np.empty_like(x)
        want[near] = x[near] ** (p + 1) * npoly.polyval(x[near], phi.taylor(p + 60)[p + 1:])
        far = x[~near]
        want[~near] = phi(far) - OMEGA(far) * npoly.polyval(far, phi.taylor(p))
        assert bar(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("sigma", [1e-150, 1e-12, 1e-5, 1.0, 1e5, 1e150])
    def test_tail_trim_warns_nothing(self, sigma):
        # a tail coefficient may overflow and a power of near underflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bar = SubtractedFunction(TestFunction((1.0, 2.0), sigma), OMEGA, 2)
        assert 1 <= len(bar.tail) <= 60

    def test_decay_radius_is_phis_past_the_support(self):
        phibar = SubtractedFunction(GAUSS, OMEGA, 2)
        assert phibar.decay_radius() == max(GAUSS.decay_radius(), 3.0)
        assert phibar.decay_radius(200) == GAUSS.decay_radius(200) > 3.0
        assert SubtractedFunction(GAUSS, PlateauCutoff(1.0, 20.0), 0).decay_radius(2) == 21.0

    def test_cutoff_transition_ends_are_initial_panel_ends(self, monkeypatch):
        # phibar stops being analytic at +-plateau and +-support; phi nowhere.
        # delta^2 is even, as are both functions, so both schedules run on
        # [0, L]: +plateau and +support are ends of phibar's, and 2 is not
        # one of phi's
        phibar = SubtractedFunction(GAUSS, OMEGA, 0)
        assert phibar.breakpoints == (-2.0, -1.0, 1.0, 2.0) and GAUSS.breakpoints == ()
        endsets = []        # per schedule, each height's initial panel ends
        quadrature = pairing._adaptive_quadrature

        def integrate(f, ys, panels, epsabs):
            for a, b, size, copies in panels:
                assert (copies == 2).all()
                stops = np.cumsum(size)
                endsets.append([{*a[stop - n:stop].tolist(), *b[stop - n:stop].tolist()}
                                for n, stop in zip(size, stops)])
            return quadrature(f, ys, panels, epsabs)

        monkeypatch.setattr(pairing, "_adaptive_quadrature", integrate)
        pairing._evaluate_schedules(parse_expression("delta * delta"), [phibar, GAUSS],
                                    [(0.1, 0.01)] * 2, DEFAULT_TOLERANCES)
        assert [len(ends) for ends in endsets] == [2, 2]
        assert all(min(ends) == 0.0 for schedule in endsets for ends in schedule)
        assert all({1.0, 2.0} <= ends for ends in endsets[0])
        assert not any(2.0 in ends for ends in endsets[1])

    def test_outside_support_untouched(self):
        bar = SubtractedFunction(GAUSS, OMEGA, 0)
        for x in (2.5, 3.0, -4.0):
            assert bar(x) == GAUSS(x)

    def test_cutoff_evaluates_no_chebyshev_series(self, delta_sq, monkeypatch):
        """Once the table is built, the transition costs no degree-256 evaluation."""
        testfn._transition_table()
        counts = {"series": 0, "transition": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Chebyshev, "__call__", counting("series", Chebyshev.__call__))
        monkeypatch.setattr(PlateauCutoff, "_transition",
                            staticmethod(counting("transition", PlateauCutoff._transition)))
        pair_at_y(delta_sq, SubtractedFunction(GAUSS, OMEGA, 0), 0.1)
        assert counts["transition"] > 0
        assert counts["series"] == 0


class TestEvaluateExtension:
    def test_counterterm_linearity(self, delta_sq):
        # one pairing of phibar serves every c; (delta, phi) = phi(0) = 1
        base = evaluate_extension(delta_sq, GAUSS, 0)
        assert base == limit_pairing(delta_sq, SubtractedFunction(GAUSS, OMEGA, 0)).value
        for c0 in (1.0, -2.5 + 1j):
            assert base + counterterm_value([c0], GAUSS) == pytest.approx(base + c0, abs=1e-12)

    def test_vanishing_phi_ignores_c_and_equals_direct_limit(self, delta_sq):
        phi = vanish_probe(0, GAUSS)
        direct = limit_pairing(delta_sq, phi).value
        for c0 in (0j, 2.0, -1.5 + 0.5j):
            got = evaluate_extension(delta_sq, phi, 0) + counterterm_value([c0], phi)
            assert got == pytest.approx(direct, abs=1e-7)

    def test_underresolved_order_raises(self):
        # delta * d(delta) needs p = 1; p = 0 must fail loudly
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        with pytest.raises(ExtensionError, match=r"subtracted pairing for 'delta \* d\(delta\)' "
                                                 r"classified as \w+; the declared order p=0 "
                                                 r"is too small"):
            evaluate_extension(expr, REFERENCE_TEST_FUNCTIONS["offset"], 0)

    @pytest.mark.parametrize("name", ["gauss", "tilted", "offset"])
    @pytest.mark.parametrize(("text", "p"), [("delta * delta", 0), ("d(delta) * d(delta)", 2)])
    def test_continuation_supported_at_the_origin_is_zero(self, text, p, name):
        # T is supported at 0, where phibar vanishes to order p: the
        # continuation is 0.  With the cutoff's transition ends as panel ends
        # the quadrature lands within rounding of it (1.8e-12 on tilted without)
        phi = REFERENCE_TEST_FUNCTIONS[name]
        assert abs(evaluate_extension(parse_expression(text), phi, p)) <= 1e-14

    def test_delta_prime_product_with_correct_order(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        value = evaluate_extension(expr, REFERENCE_TEST_FUNCTIONS["offset"], 1)
        assert isinstance(value, complex) and math.isfinite(abs(value))


def test_counterterm_value_convention():
    # (delta^(k), phi) = (-1)^k phi^(k)(0)
    phi = TestFunction((0.0, 1.0), sigma=1.0)  # phi(0) = 0, phi'(0) = 1
    assert counterterm_value([0.0, 1.0], phi) == pytest.approx(-1.0, abs=1e-15)
    assert counterterm_value([2.0, 0.0], phi) == pytest.approx(0.0, abs=1e-15)
    # GAUSS(0) = 1: unit counterterms shift by exactly one unit
    for c0 in (0.0, 1.0, -1.0):
        assert counterterm_value([c0], GAUSS) == c0


def test_counterterm_value_kernel():
    """On a phi vanishing to order p at 0 every counterterm vector sums to exactly 0."""
    for p, c in ((0, [0j]), (0, [3.0]), (0, [-2.0 + 1j]), (1, [1.5, -0.5j])):
        assert counterterm_value(c, vanish_probe(p, GAUSS)) == 0j


@settings(max_examples=30, deadline=None)
@given(
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
)
def test_counterterm_additivity(c0, c1):
    phi = REFERENCE_TEST_FUNCTIONS["tilted"]
    total = counterterm_value([c0, c1], phi)
    parts = counterterm_value([c0, 0.0], phi) + counterterm_value([0.0, c1], phi)
    assert total == pytest.approx(parts, rel=1e-12, abs=1e-12)


def _scan_offsets(text, phis, c_grid):
    """Per phi, the report's c_grid values minus its c = 0 value."""
    report = run_job(Job(text, phis=[{"poly": list(phi.poly), "sigma": phi.sigma,
                                      "mu": phi.mu} for phi in phis],
                         c_grid=c_grid))
    table = []
    for res in report["results"]:
        base, *shifted = res["extensions"]
        table.append([complex(*b["value"]) - complex(*base["value"]) for b in shifted])
    return table


class TestNonuniquenessScan:
    """The report's extension blocks differ from the c = 0 block by the counterterms alone."""

    def test_offsets_match_counterterms(self):
        # (delta, phi) = phi(0), read here from phi's value, not its Taylor jet
        phis = [GAUSS, REFERENCE_TEST_FUNCTIONS["tilted"], REFERENCE_TEST_FUNCTIONS["offset"]]
        c_grid = [[0.0], [1.0], [-1.0]]
        table = _scan_offsets("delta * delta", phis, c_grid)
        assert sum(len(row) for row in table) == 9
        for phi, offsets in zip(phis, table):
            predicted = [c[0] * phi(0.0) for c in c_grid]
            assert offsets == pytest.approx(predicted, abs=1e-12)

    def test_unit_counterterm_offsets(self):
        (offsets,) = _scan_offsets("delta * delta", [GAUSS], [[0.0], [1.0], [-1.0]])
        # phi(0) = 1: offsets are exactly the counterterm values
        assert [z.real for z in offsets] == pytest.approx([0.0, 1.0, -1.0], abs=1e-12)

    def test_first_order_counterterm_sign(self):
        phi = TestFunction((0.0, 1.0), sigma=1.0)  # phi(0) = 0, phi'(0) = 1
        (offsets,) = _scan_offsets("delta * d(delta)", [phi], [[0.0, 0.0], [0.0, 1.0]])
        # (delta', phi) = -phi'(0)
        assert offsets[1].real == pytest.approx(-1.0, abs=1e-12)


def _cutoff_shift(expr, p, phi, omega2):
    """|c = 0 value with OMEGA - c = 0 value with omega2|."""
    return abs(evaluate_extension(expr, phi, p, OMEGA)
               - evaluate_extension(expr, phi, p, omega2))


class TestOmegaIndependence:
    def test_point_supported_product(self, delta_sq):
        for a, b in ((0.5, 1.0), (2.0, 3.0)):
            assert _cutoff_shift(delta_sq, 0, GAUSS, PlateauCutoff(a, b)) <= 1e-5

    def test_derivative_product_second_order(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        diff = _cutoff_shift(expr, 1, REFERENCE_TEST_FUNCTIONS["offset"],
                             PlateauCutoff(0.5, 1.0))
        assert diff <= 1e-5

    def test_vanishing_phi_exactly_independent(self, delta_sq):
        probe = vanish_probe(0, GAUSS)
        diff = _cutoff_shift(delta_sq, 0, probe, PlateauCutoff(0.5, 1.0))
        assert diff == 0.0  # subtraction inactive: identical integrands, same bits

    def test_off_origin_support_shifts_by_counterterm(self):
        """pv(1/x)^2 diverges with support off the origin: a cutoff change
        shifts the c = 0 value by a phi-independent multiple of phi(0) (a
        counterterm reshuffle), unlike the point-supported products above."""
        expr = ProductExpression((catalog("pv_inv_x"), catalog("pv_inv_x")))
        omega2 = PlateauCutoff(0.5, 1.0)
        shifts = []
        for phi in (GAUSS, REFERENCE_TEST_FUNCTIONS["tilted"]):
            v1 = evaluate_extension(expr, phi, 0, OMEGA)
            v2 = evaluate_extension(expr, phi, 0, omega2)
            shifts.append((v1 - v2) / phi(0.0))
        assert abs(shifts[0]) > 1e-3  # genuinely omega-dependent
        assert shifts[0].real == pytest.approx(shifts[1].real, rel=1e-5)
        assert abs(shifts[0].imag) < 1e-8 and abs(shifts[1].imag) < 1e-8


OMEGA2 = PlateauCutoff(0.5, 1.0)     # a job's halved cutoff


def _job_result(text, phi):
    return run_job(Job(text, phis=[{"poly": list(phi.poly), "sigma": phi.sigma,
                                    "mu": phi.mu}]))["results"][0]


def _pv_squared_shift():
    """2 * int_{1/2}^{2} (OMEGA - OMEGA2)(x) / x^2 dx, to 20 digits, with the package's cutoffs.

    pv(1/x)^2 tends to 1/x^2 off the origin, and on exp(-x^2) or tilted,
    phi(0) = 1 is the order-0 Taylor polynomial.
    """
    with mpmath.workdps(20):
        return float(2 * mpmath.quad(lambda x: (OMEGA(float(x)) - OMEGA2(float(x))) / x**2,
                                     [0.5, 1.0, 2.0]))


class TestCutoffShift:
    """A job's cutoff difference is the pairing of the cutoff change, not a
    second continuation."""

    @pytest.mark.parametrize("name", ["gauss", "tilted", "offset"])
    @pytest.mark.parametrize("text", ["pv(1/x) * pv(1/x)", "(x+i0)^-1 * (x-i0)^-1"])
    def test_shift_is_the_distance_of_two_continuations(self, text, name):
        phi = REFERENCE_TEST_FUNCTIONS[name]
        res = _job_result(text, phi)
        assert res["subtraction"] == {"p": 0, "needed": True}
        tbar = complex(*res["extensions"][0]["Tbar_phibar"])
        assert res["omega_independence"]["geometries"] == [[1.0, 2.0], [0.5, 1.0]]
        old = _cutoff_shift(parse_expression(text), 0, phi, OMEGA2)
        assert res["omega_independence"]["difference"] == pytest.approx(
            old, rel=0.0, abs=10 * DEFAULT_TOLERANCES.convergence * max(1.0, abs(tbar)))

    @pytest.mark.parametrize("text", ["delta * delta", "d(delta) * d(delta)",
                                      "delta * d(delta)"])
    def test_origin_support_shifts_by_exactly_zero(self, text):
        phi = REFERENCE_TEST_FUNCTIONS["tilted"]
        expr = parse_expression(text)
        assert expr.supported_at_origin
        res = _job_result(text, phi)
        assert res["omega_independence"]["difference"] == 0.0
        # the two continuations the exact 0 replaces agree as closely
        assert _cutoff_shift(expr, res["subtraction"]["p"], phi, OMEGA2) <= 1e-9

    @pytest.mark.parametrize("name", ["gauss", "tilted"])
    @pytest.mark.parametrize("text", ["pv(1/x) * pv(1/x)", "(x+i0)^-1 * (x-i0)^-1"])
    def test_pv_squared_shift_against_mpmath(self, text, name):
        res = _job_result(text, REFERENCE_TEST_FUNCTIONS[name])
        assert res["omega_independence"]["difference"] == pytest.approx(
            _pv_squared_shift(), rel=1e-12)

    def test_cutoff_change_values(self):
        phi = REFERENCE_TEST_FUNCTIONS["offset"]
        change = extension.CutoffChange(phi, OMEGA, OMEGA2, 2)
        x = np.linspace(-3.0, 3.0, 121)
        # phibar at omega2 is phibar at omega plus the change
        phibar, phibar2 = SubtractedFunction(phi, OMEGA, 2), SubtractedFunction(phi, OMEGA2, 2)
        assert change(x) == pytest.approx(phibar2(x) - phibar(x), abs=1e-15)
        assert (change(x[np.abs(x) <= 0.5]) == 0.0).all()
        assert (change(x[np.abs(x) >= 2.0]) == 0.0).all()
        assert change(0.75) == change(np.array([0.75]))[0] != 0.0
        assert (change.sigma, change.parity) == (phi.sigma, phi.parity)
        assert change.vanishing_order == math.inf
        assert change.decay_radius() == change.decay_radius(50) == 3.0
        # where omega or omega2 stops being analytic
        assert sorted(set(change.breakpoints)) == [-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]


def _dilated(phi, lam):
    """phi(x / lam), again a polynomial-Gaussian: coefficients c_j lam^-j,
    width and centre times lam."""
    return TestFunction(tuple(c * lam ** -j for j, c in enumerate(phi.poly)),
                        phi.sigma * lam, phi.mu * lam)


# The initial panel [10y, 1] lets the 7-15 rule converge falsely at the check
# schedule's deepest heights, so these continuations do not converge
_FALSE_CONVERGENCE = pytest.mark.xfail(
    strict=True, raises=ExtensionError,
    reason="false convergence on the initial panels (ROADMAP item 8)")


_DILATION_PHIS = ("gauss", "tilted", "offset")
_DILATION_CASES = [
    *((text, p, name) for text, p in (
        ("pv(1/x) * pv(1/x)", 0),
        ("delta * delta", 0),
        ("d(delta) * d(delta)", 2),
        ("pv(1/x) * pv(1/x) * pv(1/x) * pv(1/x)", 2),
        ("delta * delta * delta * delta", 2),
        ("delta * delta * delta", 2),
        ("(x+i0)^-3 * (x-i0)^-3", 4),
    ) for name in _DILATION_PHIS),
    ("d(delta) * d(delta) * delta", 2, "tilted"),
    ("d(delta) * d(delta) * delta", 2, "offset"),
    *(pytest.param("delta * delta * delta", 0, name, marks=_FALSE_CONVERGENCE)
      for name in _DILATION_PHIS),
    pytest.param("d(delta) * d(delta) * delta", 2, "gauss", marks=_FALSE_CONVERGENCE),
]


@pytest.mark.parametrize(("text", "p", "name"), _DILATION_CASES)
def test_dilation_law(text, p, name):
    # T is homogeneous of degree -sd, and omega(2x) is omega2, so a
    # continuation against phi(x / 2) is 2^(1 - sd) times the one against phi
    # moved to the cutoff omega2: (Tbar, phi(./2)) = 2^(1 - sd) (Tbar + shift),
    # checked at phi(2x) and at phi, all from one batch
    expr = parse_expression(text)
    phi = REFERENCE_TEST_FUNCTIONS[name]
    family = [_dilated(phi, 0.5), phi, _dilated(phi, 2.0)]
    pairs = extension.evaluate_extensions(expr, p, family, (OMEGA, OMEGA2))
    for entry in pairs:
        if isinstance(entry, Exception):
            raise entry
    scale = 2.0 ** (1 - expr.scaling_degree)
    for (tbar, shift), (dilated, _) in zip(pairs, pairs[1:]):
        want = scale * (tbar + shift)
        assert abs(dilated - want) <= 1e-9 * max(1.0, abs(want))


class TestFactorizationIdentity:
    def test_delta_squared_kappa0(self, delta_sq):
        rep = factorization_identity_check(delta_sq, 0, GAUSS)
        assert rep.ok
        assert rep.lhs_status == rep.rhs_status == "converged"
        assert rep.difference <= 1e-7
        assert abs(rep.lhs_value) < 1e-6  # x * delta^2 annihilates

    def test_single_delta_kappa0(self):
        expr = ProductExpression((catalog("delta"),))
        rep = factorization_identity_check(expr, 0, GAUSS)
        assert rep.ok and abs(rep.lhs_value) < 1e-7

    def test_unity_kappa1_gaussian_moment(self):
        expr = ProductExpression((catalog("one"),))
        rep = factorization_identity_check(expr, 1, GAUSS)
        assert rep.ok
        assert rep.lhs_value.real == pytest.approx(SQRT_PI / 2, abs=1e-7)
        assert rep.rhs_value.real == pytest.approx(SQRT_PI / 2, abs=1e-7)

    def test_derivative_product_kappa1(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        rep = factorization_identity_check(expr, 1, REFERENCE_TEST_FUNCTIONS["offset"])
        assert rep.ok


class TestContinuationProperty:
    """On test functions vanishing to order p at 0 the extension must agree
    with the direct limit, whatever c and omega are."""

    def test_five_probes(self, delta_sq):
        bases = [GAUSS, REFERENCE_TEST_FUNCTIONS["gauss_wide"],
                 REFERENCE_TEST_FUNCTIONS["tilted"],
                 REFERENCE_TEST_FUNCTIONS["offset"],
                 TestFunction((2.0, 0.0, 1.0), sigma=1.2)]
        omega2 = PlateauCutoff(0.7, 1.4)
        for base in bases:
            probe = vanish_probe(0, base)
            direct = limit_pairing(delta_sq, probe).value
            for c0, om in ((0j, OMEGA), (1.5 - 2j, OMEGA), (0.5j, omega2)):
                got = evaluate_extension(delta_sq, probe, 0, om) + counterterm_value([c0], probe)
                assert got == pytest.approx(direct, abs=1e-7)
