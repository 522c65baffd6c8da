"""Pairing engine tests.

Numerical reference values were computed with an independent route
(scipy.integrate.quad on the raw integrands, or closed forms) and frozen
here, so the adaptive Gauss-Kronrod engine is never checked against itself.
"""

import math

import numpy as np
import pytest

from distprod import pairing
from distprod.boundary import RegulatorError, catalog
from distprod.extension import Extension, SubtractedFunction, evaluate_extension
from distprod.pairing import (
    CHECK_RATIO,
    DEFAULT_SCHEDULE,
    DEFAULT_TOLERANCES,
    InconclusivePairingError,
    NotExtendableError,
    PairingResult,
    ProductExpression,
    QuadratureError,
    Schedule,
    SubtractionOrder,
    Tolerances,
    limit_pairing,
    pair_at_y,
    parse_expression,
    ring_axiom_check,
    subtraction_order,
)
from distprod.testfn import REFERENCE_TEST_FUNCTIONS, PlateauCutoff, TestFunction

SQRT_PI = 1.7724538509055160

# closed form 2*pi*y*exp(y^2)*erfc(y) - 2*sqrt(pi); cross-checked with quad
I0SQ_GAUSS = {0.1: -2.9816471693049715, 0.05: -3.247716164690896,
              0.01: -3.482778594047448}
# closed form exp(y^2)*erfc(y)
DELTA_GAUSS = {0.01: 0.9888154610463425, 0.1: 0.8964569799691265}
# scipy.integrate.quad on the explicit integrands
DELTASQ_GAUSS_Y01 = 1.5778076065120898
PV_ODD_Y01 = 2.21604428377091
DELTA_PV_ODD_Y005 = 0.4619161859530308
I0_GAUSS_Y005 = -2.9719153712013555j


class TestPairAtY:
    def test_unity_gives_gaussian_integral(self, gauss):
        expr = ProductExpression((catalog("one"),))
        for y in (1.0, 0.1, 0.003):
            assert pair_at_y(expr, gauss, y) == pytest.approx(SQRT_PI, abs=1e-10)

    def test_delta_smearing_closed_form(self, gauss):
        expr = ProductExpression((catalog("delta"),))
        for y, expect in DELTA_GAUSS.items():
            got = pair_at_y(expr, gauss, y)
            assert got.real == pytest.approx(expect, abs=1e-11)
            assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_pv_even_test_function_vanishes(self, gauss):
        expr = ProductExpression((catalog("pv_inv_x"),))
        for y in (0.5, 0.02):
            assert abs(pair_at_y(expr, gauss, y)) < 1e-12

    def test_pv_odd_test_function(self, odd_gauss):
        expr = ProductExpression((catalog("pv_inv_x"),))
        assert pair_at_y(expr, odd_gauss, 0.1).real == pytest.approx(
            PV_ODD_Y01, abs=1e-10
        )

    def test_two_factor_product_against_quad(self, delta_pv, odd_gauss):
        got = pair_at_y(delta_pv, odd_gauss, 0.05)
        assert got.real == pytest.approx(DELTA_PV_ODD_Y005, abs=1e-10)

    def test_squared_kernel_against_quad(self, delta_sq, gauss):
        got = pair_at_y(delta_sq, gauss, 0.1)
        assert got.real == pytest.approx(DELTASQ_GAUSS_Y01, abs=1e-9)

    def test_complex_pairing(self, gauss):
        expr = ProductExpression((catalog("plus_i0_pow", 1),))
        got = pair_at_y(expr, gauss, 0.05)
        assert got == pytest.approx(I0_GAUSS_Y005, abs=1e-10)

    def test_small_height_accuracy(self, i0_sq, gauss):
        for y, expect in I0SQ_GAUSS.items():
            got = pair_at_y(i0_sq, gauss, y)
            assert got.real == pytest.approx(expect, abs=5e-10)
            assert got.imag == pytest.approx(0.0, abs=5e-10)

    def test_rejects_bad_height(self, delta_sq, gauss):
        for y in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(RegulatorError):
                pair_at_y(delta_sq, gauss, y)

    def test_linearity_in_phi(self, delta_pv):
        # a*phi1 + b*phi2 stays in the family when the Gaussian factor is shared
        p1, p2 = (0.0, 1.0, 0.0), (1.0, 0.5, -0.25)
        a, b = -0.5, 2.0
        phi1 = TestFunction(p1, sigma=1.0)
        phi2 = TestFunction(p2, sigma=1.0)
        combo = TestFunction(tuple(a * c1 + b * c2 for c1, c2 in zip(p1, p2)), sigma=1.0)
        y = 0.07
        lhs = pair_at_y(delta_pv, combo, y)
        rhs = a * pair_at_y(delta_pv, phi1, y) + b * pair_at_y(delta_pv, phi2, y)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_prefactor_equivalence_first_power(self, gauss):
        # x^1 attached vs explicit monomial factor: identical representatives
        attached = ProductExpression((catalog("delta"),), (1,))
        explicit = ProductExpression((catalog("monomial", 1), catalog("delta")))
        for y in (0.2, 0.01):
            va = pair_at_y(attached, gauss, y)
            vb = pair_at_y(explicit, gauss, y)
            assert va == pytest.approx(vb, abs=1e-10)


class TestLimitPairing:
    def test_convergent_complex_product(self, i0_sq, gauss):
        res = limit_pairing(i0_sq, gauss)
        assert res.status == "converged"
        assert res.value.real == pytest.approx(-2.0 * SQRT_PI, abs=1e-6)
        assert res.value.imag == pytest.approx(0.0, abs=1e-6)

    def test_mixed_product_half_derivative(self, delta_pv, odd_gauss):
        res = limit_pairing(delta_pv, odd_gauss)
        assert res.status == "converged"
        assert res.value.real == pytest.approx(0.5, abs=1e-6)

    def test_known_value_three_test_functions(self, delta_pv):
        # delta * pv(1/x) pairs to phi'(0)/2
        for poly, sigma in (((0.0, 1.0), 1.0), ((0.0, 2.0, 0.0, 1.0), 1.3),
                            ((0.5, -1.0, 0.25), 0.8)):
            phi = TestFunction(poly, sigma=sigma)
            expect = 0.5 * phi(0.0, 1)
            res = limit_pairing(delta_pv, phi)
            assert res.status == "converged"
            assert res.value.real == pytest.approx(expect, abs=1e-6)

    def test_divergence_classification(self, delta_sq, gauss):
        res = limit_pairing(delta_sq, gauss)
        assert res.status == "diverged"
        assert res.s == pytest.approx(1.0, abs=0.05)
        lo, hi = res.s_ci
        assert lo < res.s < hi
        assert res.leading_coeff.real == pytest.approx(1.0 / (2 * math.pi), rel=0.01)

    def test_divergent_integrals_blow_up(self, delta_sq, gauss):
        res = limit_pairing(delta_sq, gauss)
        mags = np.abs(res.integrals)
        assert mags[-1] > 100 * mags[0]

    def test_monomial_annihilates_delta(self, gauss):
        expr = ProductExpression((catalog("delta"),), (1,))
        res = limit_pairing(expr, gauss)
        assert res.status == "converged"
        assert abs(res.value) < 1e-8

    def test_schedule_independence_of_converged_value(self, i0_sq, gauss):
        res = limit_pairing(i0_sq, gauss)
        assert res.check_value is not None
        assert abs(res.check_value - res.value) <= 10 * 1e-7

    def test_custom_schedule(self, delta_pv, odd_gauss):
        sched = Schedule(y0=0.2, ratio=0.4, count=10)
        res = limit_pairing(delta_pv, odd_gauss, schedule=sched)
        assert res.status == "converged"
        assert res.value.real == pytest.approx(0.5, abs=1e-6)

    def test_result_json_shape(self, delta_sq, gauss):
        doc = limit_pairing(delta_sq, gauss).to_json_dict()
        assert set(doc) == {"y", "I_re", "I_im", "status", "value", "s", "s_ci"}
        assert doc["status"] == "diverged"
        assert doc["value"] is None
        assert len(doc["y"]) == len(doc["I_re"]) == len(doc["I_im"]) == 12
        assert isinstance(doc["s"], float) and len(doc["s_ci"]) == 2

    def test_converged_json_value(self, delta_pv, odd_gauss):
        doc = limit_pairing(delta_pv, odd_gauss).to_json_dict()
        assert doc["s"] is None and doc["s_ci"] is None
        assert doc["value"][0] == pytest.approx(0.5, abs=1e-6)
        assert doc["value"][1] == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("pair", [
        limit_pairing,
        lambda expr, phi: evaluate_extension(Extension.minimal(expr, 0), phi),
    ], ids=["limit_pairing", "evaluate_extension"])
    def test_sigma_below_smallest_height_refused(self, pair):
        # no height resolves such a phi: delta paired to a "converged" 0, not 1;
        # evaluate_extension meets the same check through phibar
        phi = TestFunction((1.0,), sigma=1e-12)
        with pytest.raises(ValueError, match=r"sigma 1e-12 is below the schedule's "
                                             r"smallest height 4\.8828125e-05"):
            pair(parse_expression("delta"), phi)


class TestScheduleValidation:
    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            Schedule(ratio=1.0)

    def test_bad_y0(self):
        with pytest.raises(ValueError):
            Schedule(y0=-0.1)

    def test_equal_ratios(self):
        with pytest.raises(ValueError):
            Schedule(ratio=CHECK_RATIO)

    def test_heights_geometric(self):
        h = Schedule(y0=1.0, ratio=0.5, count=4).heights()
        assert h == (1.0, 0.5, 0.25, 0.125)


class TestDivergenceOrder:
    def test_monomial_damping_law(self, gauss):
        # prefactor power q on delta*delta: rate max(0, 1-q), 0 meaning converged
        for q, status in ((0, "diverged"), (1, "converged"), (2, "converged")):
            expr = ProductExpression(
                (catalog("delta"), catalog("delta")), (q, 0)
            )
            result = limit_pairing(expr, gauss)
            assert result.status == status
            if status == "diverged":
                assert result.s == pytest.approx(1.0 - q, abs=0.1)


class TestSubtractionOrder:
    def test_delta_squared(self, delta_sq):
        so = subtraction_order(delta_sq)
        assert so == SubtractionOrder(p=0, needed=True)

    def test_already_convergent_sentinel(self):
        so = subtraction_order(ProductExpression((catalog("delta"),)))
        assert so.p == 0 and so.needed is False

    def test_delta_times_delta_prime(self):
        expr = ProductExpression((catalog("delta"), catalog("delta").derivative()))
        so = subtraction_order(expr)
        assert so == SubtractionOrder(p=1, needed=True)

    def test_search_cap_exhausted(self):
        # (x+i0)^-4 * delta diverges too hard for a p_max=0 search
        expr = ProductExpression((catalog("plus_i0_pow", 4), catalog("delta")))
        with pytest.raises(NotExtendableError):
            subtraction_order(expr, p_max=0)


class TestRingAxioms:
    THREE = (catalog("delta"), catalog("pv_inv_x"), catalog("monomial", 1))

    def test_commutativity_two_factors(self, odd_gauss):
        a = ProductExpression((catalog("delta"), catalog("pv_inv_x")))
        b = a.permuted((1, 0))
        rep = ring_axiom_check(a, b, odd_gauss, 0.1)
        assert rep.ok and rep.difference <= rep.tolerance

    def test_unity_padding(self, gauss):
        a = ProductExpression((catalog("delta"),))
        rep = ring_axiom_check(a, a.padded_with_unity(), gauss, 0.1)
        assert rep.ok

    def test_three_factor_rearrangements(self, gauss):
        base = ProductExpression(self.THREE)
        for y in (0.1, 0.01):
            for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
                rep = ring_axiom_check(base, base.permuted(order), gauss, y)
                assert rep.ok, f"order {order} at y={y}: diff {rep.difference}"
            rep = ring_axiom_check(base, base.padded_with_unity(2), gauss, y)
            assert rep.ok

    def test_mismatched_multisets_rejected(self, gauss):
        a = ProductExpression((catalog("delta"),))
        b = ProductExpression((catalog("pv_inv_x"),))
        with pytest.raises(ValueError):
            ring_axiom_check(a, b, gauss, 0.1)

    def test_mismatched_powers_rejected(self, gauss):
        a = ProductExpression((catalog("delta"),), (1,))
        b = ProductExpression((catalog("delta"),), (2,))
        with pytest.raises(ValueError):
            ring_axiom_check(a, b, gauss, 0.1)


class TestProductExpression:
    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            ProductExpression(())

    def test_power_bookkeeping(self):
        expr = ProductExpression((catalog("delta"), catalog("one")), (2, 1))
        assert expr.total_power == 3
        assert expr.with_extra_power(2).total_power == 5

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ProductExpression((catalog("delta"),), (-1,))

    def test_label_round_trips_structure(self):
        expr = ProductExpression(
            (catalog("delta"), catalog("pv_inv_x")), (2, 0)
        )
        assert expr.label == "x^2 * delta * pv(1/x)"


def test_tolerances_env_scaling():
    t = Tolerances(1e-5)
    assert t.convergence == 1e-5
    assert t.quad_abs == pytest.approx(1e-8)
    assert Tolerances().quad_abs == 1e-10
    assert Tolerances(1e-12).quad_abs == 1e-13
    assert hash(Tolerances()) == hash(Tolerances(1e-7))


@pytest.mark.parametrize("field, value", [
    ("quad_abs", 0.0), ("convergence", -1e-7), ("schedule_factor", 0.0),
    ("convergence", math.inf), ("r2_min", math.nan), ("s_min", -math.inf),
    ("convergence", 0.0), ("convergence", math.nan),
])
def test_tolerances_rejects_invalid_values(field, value):
    # convergence is the one setting; the others are constants, not arguments
    error = ValueError if field == "convergence" else TypeError
    with pytest.raises(error, match=field):
        Tolerances(**{field: value})


# ---------------------------------------------------------------------------
# a whole schedule in one lockstep quadrature
# ---------------------------------------------------------------------------


def _one_at_a_time(expr, phi, ys):
    """The schedule evaluated height by height, with the truncation rule."""
    values = []
    for k, y in enumerate(ys):
        try:
            values.append(pair_at_y(expr, phi, y))
        except QuadratureError:
            if k < 6:
                raise
            return tuple(ys[:k]), tuple(values)
    return tuple(ys), tuple(values)


def _schedule(expr, phi, ys):
    return pairing._evaluate_schedule(expr, phi, ys, DEFAULT_TOLERANCES)


def _subtracted_gauss(p):
    return SubtractedFunction(REFERENCE_TEST_FUNCTIONS["gauss"], PlateauCutoff(1.0, 2.0), p)


@pytest.mark.parametrize("phi_name", ["gauss", "offset"])
@pytest.mark.parametrize("text", [
    "delta * delta",
    "pv(1/x) * pv(1/x)",
    "(x+i0)^-1 * (x-i0)^-1",
    "d(delta) * d(delta)",
])
def test_schedule_equals_heights_one_at_a_time(text, phi_name):
    expr = parse_expression(text)
    phi = REFERENCE_TEST_FUNCTIONS[phi_name]
    ys = DEFAULT_SCHEDULE.heights()
    got_ys, got = _schedule(expr, phi, ys)
    assert got_ys == ys
    assert [repr(v) for v in got] == [repr(pair_at_y(expr, phi, y)) for y in ys]


def _lone_height(f, y, points, epsabs):
    """One height refined on its own by the plain loop: panels kept in the
    order [kept, lower halves, upper halves], every sum pairwise in that
    order, the value summed over the panels sorted by left endpoint."""
    pts = np.asarray(sorted(points), dtype=float)
    a, b = pts[:-1], pts[1:]
    vals, errs, roughs = pairing._panel_rule(f, a, b, [y], [len(a)])
    for _ in range(pairing._MAX_ROUNDS):
        target = max(epsabs, 2e-14 * roughs.sum())
        if errs.sum() <= target:
            break
        floor = pairing._MIN_PANEL_REL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
        split = (errs > target / (2.0 * len(a))) & (b - a > floor)
        assert split.any() and len(a) + split.sum() <= pairing._MAX_PANELS
        mids = 0.5 * (a[split] + b[split])
        na = np.concatenate([a[split], mids])
        nb = np.concatenate([mids, b[split]])
        nvals, nerrs, nroughs = pairing._panel_rule(f, na, nb, [y], [len(na)])
        keep = ~split
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        vals = np.concatenate([vals[keep], nvals])
        errs = np.concatenate([errs[keep], nerrs])
        roughs = np.concatenate([roughs[keep], nroughs])
    return complex(vals[np.argsort(a, kind="stable")].sum())


@pytest.mark.parametrize("phi_name", ["gauss", "offset"])
@pytest.mark.parametrize("text", [
    "delta * delta",
    "pv(1/x) * pv(1/x)",
    "d(delta) * d(delta)",
    "(x+i0)^-3 * (x-i0)^-3",
])
def test_schedule_equals_lone_height_loop(monkeypatch, text, phi_name):
    # the packed rows sum their decisions in another order than the loop; a
    # decision flipped by that rounding would show here as a changed value
    expr = parse_expression(text)
    phi = REFERENCE_TEST_FUNCTIONS[phi_name]
    ys = DEFAULT_SCHEDULE.heights()
    got = _schedule(expr, phi, ys)

    def reference(f, ys, pointsets, epsabs):
        return [_lone_height(f, y, points, epsabs) for y, points in zip(ys, pointsets)]

    monkeypatch.setattr(pairing, "_adaptive_quadrature", reference)
    want = _schedule(expr, phi, ys)
    assert [repr(v) for v in got[1]] == [repr(v) for v in want[1]]


@pytest.mark.parametrize("text", ["delta * delta", "d(delta) * d(delta)"])
def test_waiting_heights_equal_heights_one_at_a_time(monkeypatch, text):
    # a 64-panel budget takes 7 of the 12 heights in the first round (6 rows,
    # 9 panels in flight each), so from then on heights sit out rounds with
    # their fresh halves, and the batch shrinks and grows again
    expr = parse_expression(text)
    phi = REFERENCE_TEST_FUNCTIONS["offset"]
    ys = DEFAULT_SCHEDULE.heights()
    want = [repr(pair_at_y(expr, phi, y)) for y in ys]
    heights_per_call = []
    rule = pairing._panel_rule

    def counting(f, a, b, ys, sizes):
        heights_per_call.append(len(sizes))
        return rule(f, a, b, ys, sizes)

    monkeypatch.setattr(pairing, "_PANEL_BUDGET", 64)
    monkeypatch.setattr(pairing, "_panel_rule", counting)
    got_ys, got = _schedule(expr, phi, ys)
    assert got_ys == ys
    assert [repr(v) for v in got] == want
    assert heights_per_call[0] < len(ys)


def test_budget_refines_lower_heights_first(monkeypatch):
    # d(delta)^2 against its order-2 subtraction needs more than the real
    # budget: rounds take heights in schedule order while they fit, so the
    # small heights, where the schedule stalls and is cut to 6, wait for rows
    # to leave instead of being refined in every round
    expr = parse_expression("d(delta) * d(delta)")
    phi = _subtracted_gauss(2)
    calls = []
    rule = pairing._panel_rule

    def counting(f, a, b, ys, sizes):
        calls.append((len(sizes), len(a)))
        return rule(f, a, b, ys, sizes)

    monkeypatch.setattr(pairing, "_panel_rule", counting)
    got_ys, _ = _schedule(expr, phi, DEFAULT_SCHEDULE.heights())
    assert len(got_ys) == 6
    assert [h for h, _ in calls] == [12, 12, 12, 12, 12, 9, 6, 6, 5, 4, 2, 2, 1, 1, 1, 1]
    # refining every live height in every round would evaluate 39,358 panels
    assert sum(n for _, n in calls) == 11774


def test_truncated_schedule_equals_heights_one_at_a_time():
    # delta^3 against its order-2 subtraction stalls at the tenth check height
    expr = parse_expression("delta * delta * delta")
    phi = _subtracted_gauss(2)
    ys = DEFAULT_SCHEDULE.heights(CHECK_RATIO)
    want_ys, want = _one_at_a_time(expr, phi, ys)
    assert 6 <= len(want_ys) < len(ys)
    got_ys, got = _schedule(expr, phi, ys)
    assert got_ys == want_ys
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_failing_schedule_raises_like_heights_one_at_a_time():
    # d(delta)^2 against its order-2 subtraction stalls before the sixth check height
    expr = parse_expression("d(delta) * d(delta)")
    phi = _subtracted_gauss(2)
    ys = DEFAULT_SCHEDULE.heights(CHECK_RATIO)
    with pytest.raises(QuadratureError) as want:
        _one_at_a_time(expr, phi, ys)
    with pytest.raises(QuadratureError) as got:
        _schedule(expr, phi, ys)
    assert str(got.value) == str(want.value)
    assert repr(got.value.partial_value) == repr(want.value.partial_value)
    assert got.value.height < 6


@pytest.fixture
def integrand_calls(monkeypatch):
    """Points handed to each integrand call, in order."""
    sizes = []
    factory = pairing._integrand

    def counting(*args):
        f = factory(*args)

        def counted(x, y):
            sizes.append(np.size(x))
            return f(x, y)

        return counted

    monkeypatch.setattr(pairing, "_integrand", counting)
    return sizes


def test_schedule_work_count(integrand_calls, delta_sq, gauss):
    counts = []
    for _ in range(2):
        integrand_calls.clear()
        limit_pairing(delta_sq, gauss)
        counts.append((len(integrand_calls), sum(integrand_calls)))
    assert counts[0] == counts[1]
    calls, points = counts[0]
    # the points the heights need one at a time (in 120 calls), in few calls
    assert points == 15102
    assert calls <= 16
