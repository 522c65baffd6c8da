import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import Chebyshev

from distprod.boundary import catalog
from distprod.extension import (
    Extension,
    ExtensionError,
    SubtractedFunction,
    counterterm_value,
    evaluate_extension,
    extension_report,
    factorization_identity_check,
    nonuniqueness_scan,
)
from distprod import testfn
from distprod.pairing import ProductExpression, limit_pairing, pair_at_y
from distprod.testfn import (
    OrderExceededError,
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

    The coefficients are phi^(k)(0) exactly; on the plateau (omega = 1)
    phibar is phi minus the Taylor polynomial, so its value and its
    derivatives through order p vanish at 0; beyond the support it is phi.
    """
    bar = SubtractedFunction(phi, OMEGA, p)
    coeffs = np.array([phi(0.0, k) for k in range(p + 1)])
    assert np.array(bar.coeffs).tobytes() == coeffs.tobytes()
    plateau = np.linspace(-OMEGA.plateau, OMEGA.plateau, 41)
    taylor = coeffs / np.array([math.factorial(k) for k in range(p + 1)])
    assert bar(plateau).tobytes() == (phi(plateau) - npoly.polyval(plateau, taylor)).tobytes()
    assert bar(0.0) == 0.0
    beyond = np.array([-4.0, -2.5, -OMEGA.support, OMEGA.support, 2.5, 4.0])
    assert bar(beyond).tobytes() == phi(beyond).tobytes()


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

    def test_order_shortfall_rejected(self):
        with pytest.raises(OrderExceededError):
            SubtractedFunction(GAUSS, OMEGA, GAUSS.max_order + 1)


class TestExtensionObject:
    def test_counterterm_length_enforced(self, delta_sq):
        with pytest.raises(ValueError):
            Extension(delta_sq, 1, (0j,), OMEGA)

    def test_minimal_constructor(self, delta_sq):
        ext = Extension.minimal(delta_sq, 2)
        assert ext.c == (0j, 0j, 0j)
        assert ext.subtract

    def test_with_counterterms(self, delta_sq):
        ext = Extension.minimal(delta_sq, 0).with_counterterms([1 + 2j])
        assert ext.c == (1 + 2j,)


class TestEvaluateExtension:
    def test_counterterm_linearity(self, delta_sq):
        base = evaluate_extension(Extension.minimal(delta_sq, 0), GAUSS)
        shifted = evaluate_extension(
            Extension.minimal(delta_sq, 0).with_counterterms([1.0]), GAUSS
        )
        # (delta, phi) = phi(0) = 1
        assert shifted.value == pytest.approx(base.value + 1.0, abs=1e-12)
        assert shifted.tbar_phibar == base.tbar_phibar

    def test_vanishing_phi_ignores_c_and_equals_direct_limit(self, delta_sq):
        phi = vanish_probe(0, GAUSS)
        direct = limit_pairing(delta_sq, phi).value
        for c0 in (0j, 2.0, -1.5 + 0.5j):
            ext = Extension.minimal(delta_sq, 0).with_counterterms([c0])
            got = evaluate_extension(ext, phi).value
            assert got == pytest.approx(direct, abs=1e-7)

    def test_convergent_expression_without_subtraction(self):
        expr = ProductExpression((catalog("delta"),))
        ext = Extension.minimal(expr, 0, subtract=False)
        res = evaluate_extension(ext, GAUSS)
        assert res.value.real == pytest.approx(1.0, abs=1e-6)
        assert res.counterterm_part == 0j

    def test_underresolved_order_raises(self):
        # delta * d(delta) needs p = 1; p = 0 must fail loudly
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        ext = Extension.minimal(expr, 0)
        with pytest.raises(ExtensionError):
            evaluate_extension(ext, REFERENCE_TEST_FUNCTIONS["offset"])

    def test_delta_prime_product_with_correct_order(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        ext = Extension.minimal(expr, 1)
        res = evaluate_extension(ext, REFERENCE_TEST_FUNCTIONS["offset"])
        assert res.pairing.status == "converged"


def test_counterterm_value_convention():
    # (delta^(k), phi) = (-1)^k phi^(k)(0)
    phi = TestFunction((0.0, 1.0), sigma=1.0)  # phi'(0) = 1
    assert counterterm_value([0.0, 1.0], phi) == pytest.approx(-1.0)
    assert counterterm_value([2.0, 0.0], phi) == pytest.approx(0.0)


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


def _cutoff_shift(expr, p, phi, omega2):
    """|c = 0 value with OMEGA - c = 0 value with omega2|."""
    v1 = evaluate_extension(Extension.minimal(expr, p, OMEGA), phi).value
    v2 = evaluate_extension(Extension.minimal(expr, p, omega2), phi).value
    return abs(v1 - v2)


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
            v1 = evaluate_extension(Extension.minimal(expr, 0, OMEGA), phi).value
            v2 = evaluate_extension(Extension.minimal(expr, 0, omega2), phi).value
            shifts.append((v1 - v2) / phi(0.0))
        assert abs(shifts[0]) > 1e-3  # genuinely omega-dependent
        assert shifts[0].real == pytest.approx(shifts[1].real, rel=1e-5)
        assert abs(shifts[0].imag) < 1e-8 and abs(shifts[1].imag) < 1e-8


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


class TestNonuniquenessScan:
    def test_offsets_match_counterterms(self, delta_sq):
        ext = Extension.minimal(delta_sq, 0)
        phis = [GAUSS, REFERENCE_TEST_FUNCTIONS["tilted"],
                REFERENCE_TEST_FUNCTIONS["offset"]]
        table = nonuniqueness_scan(ext, [[0.0], [1.0], [-1.0]], phis)
        assert table.ok
        assert table.max_discrepancy <= 1e-12
        assert len(table.rows) == 9

    def test_unit_counterterm_offsets(self, delta_sq):
        ext = Extension.minimal(delta_sq, 0)
        table = nonuniqueness_scan(ext, [[0.0], [1.0], [-1.0]], [GAUSS])
        offsets = [row.offset.real for row in table.rows]
        # phi(0) = 1: offsets are exactly the counterterm values
        assert offsets == pytest.approx([0.0, 1.0, -1.0], abs=1e-12)

    def test_first_order_counterterm_sign(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        ext = Extension.minimal(expr, 1)
        phi = TestFunction((0.0, 1.0), sigma=1.0)  # phi(0)=0, phi'(0)=1
        table = nonuniqueness_scan(ext, [[0.0, 0.0], [0.0, 1.0]], [phi])
        assert table.rows[1].offset.real == pytest.approx(-1.0, abs=1e-12)

    def test_kernel_of_counterterms(self, delta_sq):
        probe = vanish_probe(0, GAUSS)
        ext = Extension.minimal(delta_sq, 0)
        table = nonuniqueness_scan(ext, [[0.0], [3.0], [-2.0 + 1j]], [probe])
        assert all(row.offset == 0j for row in table.rows)

    def test_wrong_grid_arity_rejected(self, delta_sq):
        ext = Extension.minimal(delta_sq, 0)
        with pytest.raises(ValueError):
            nonuniqueness_scan(ext, [[0.0, 1.0]], [GAUSS])


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
                ext = Extension(delta_sq, 0, (c0,), om)
                got = evaluate_extension(ext, probe).value
                assert got == pytest.approx(direct, abs=1e-7)


def test_extension_report_shape(delta_sq):
    ext = Extension.minimal(delta_sq, 0).with_counterterms([0.5 + 0.25j])
    res = evaluate_extension(ext, GAUSS)
    doc = extension_report(ext, res)
    assert set(doc) == {"p", "c", "omega", "value", "Tbar_phibar", "counterterm_part"}
    assert doc["p"] == 0
    assert doc["c"] == [[0.5, 0.25]]
    assert doc["omega"] == {"plateau": 1.0, "support": 2.0}
    assert doc["value"][0] == pytest.approx(
        doc["Tbar_phibar"][0] + doc["counterterm_part"][0], abs=1e-15
    )
