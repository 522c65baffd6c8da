"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line (bypassing capture so the lines
always reach the terminal) and then asserts, so a red run shows exactly
which guarantees moved.
"""

import math
import sys

import mpmath
import numpy as np

from distprod.boundary import catalog, required_order, verify_growth_bound
from distprod.cli import Job, run_job
from distprod.expression import ProductExpression
from distprod.extension import (
    counterterm_value,
    evaluate_extension,
    factorization_identity_check,
)
from distprod.pairing import (
    limit_pairing,
    ring_axiom_check,
    subtraction_order,
)
from distprod.testfn import (
    PlateauCutoff,
    REFERENCE_TEST_FUNCTIONS,
    TestFunction,
    vanish_probe,
)

GAUSS = TestFunction((1.0,), sigma=math.sqrt(0.5))          # exp(-x^2)
ODD_GAUSS = TestFunction((0.0, 1.0), sigma=1.0)             # x exp(-x^2/2)

DELTA = catalog("delta")
PV = catalog("pv_inv_x")
X = catalog("monomial", 1)
I0 = catalog("plus_i0_pow", 1)


def _report(tag: str, ok: bool, summary: str, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{tag} {status}  {summary}  [{detail}]", file=sys.__stdout__)
    assert ok, f"{tag}: {summary} ({detail})"


def test_c01_convergent_product_oracle():
    result = limit_pairing(ProductExpression((I0, I0)), GAUSS)
    target = -2.0 * math.sqrt(math.pi)
    err_re = abs(result.value.real - target)
    err_im = abs(result.value.imag)
    ok = (result.status == "converged" and err_re <= 1e-6 and err_im <= 1e-6)
    _report("C01", ok, "(x+i0)^-1 * (x+i0)^-1 -> -2*sqrt(pi)",
            f"re err {err_re:.2e}, im err {err_im:.2e}")


def test_c02_mixed_product_oracle():
    result = limit_pairing(ProductExpression((DELTA, PV)), ODD_GAUSS)
    err = abs(result.value - 0.5)
    ok = result.status == "converged" and err <= 1e-6
    _report("C02", ok, "delta * pv(1/x) on x*exp(-x^2/2) -> 0.5",
            f"err {err:.2e}")


def test_c03_divergence_detection():
    result = limit_pairing(ProductExpression((DELTA, DELTA)), GAUSS)
    target = 1.0 / (2.0 * math.pi)  # phi(0)/(2 pi)
    s_err = abs(result.s - 1.0) if result.s is not None else float("inf")
    c_rel = (abs(result.leading_coeff - target) / target
             if result.leading_coeff is not None else float("inf"))
    ok = result.status == "diverged" and s_err <= 0.05 and c_rel <= 0.01
    _report("C03", ok, "delta * delta diverges with s = 1, coeff phi(0)/(2pi)",
            f"s err {s_err:.2e}, coeff rel err {c_rel:.2e}")


def test_c04_subtraction_order_and_factorization():
    expr = ProductExpression((DELTA, DELTA))
    order = subtraction_order(expr)
    rep = factorization_identity_check(expr, 0, GAUSS)
    diff = rep.difference if rep.difference is not None else float("inf")
    ok = order == 0 and rep.ok and diff <= 1e-7
    _report("C04", ok, "subtraction order 0 for delta * delta; moving x^1 "
            "across the pairing agrees",
            f"p = {order}, factorization diff {diff:.2e}")


def test_c05_cutoff_independence():
    expr = ProductExpression((DELTA, DELTA))
    values = []
    for plateau, support in ((1.0, 2.0), (0.5, 1.0), (2.0, 3.0)):
        values.append(evaluate_extension(expr, GAUSS, 0, PlateauCutoff(plateau, support)))
    spread = max(abs(a - b) for a in values for b in values)
    scale = max(1.0, max(abs(v) for v in values))
    ok = spread / scale <= 1e-5
    _report("C05", ok, "c = 0 continuation of delta * delta is cutoff-shape "
            "independent", f"rel spread {spread / scale:.2e}")


def _mp_derivative_at_zero(phi: TestFunction, k: int):
    """phi^(k)(0), differentiated by mpmath from phi's formula."""
    def f(x):
        return (mpmath.polyval(list(reversed(phi.poly)), x)
                * mpmath.exp(-(x - phi.mu) ** 2 / (2 * mpmath.mpf(phi.sigma) ** 2)))
    with mpmath.workdps(30):
        return complex(mpmath.diff(f, 0, k))


def test_c06_counterterm_structure():
    cases = [("delta * delta", ("gauss", "tilted", "offset"), [[0.75], [-1.25 + 0.5j]]),
             ("delta * d(delta)", ("offset",), [[0.75, 0.0], [0.0, -1.25], [1.0, 2.0j]])]
    worst, rows, orders = 0.0, 0, []
    for text, keys, c_grid in cases:
        phis = [REFERENCE_TEST_FUNCTIONS[k] for k in keys]
        report = run_job(Job(text, phis=[{"poly": list(phi.poly), "sigma": phi.sigma,
                                          "mu": phi.mu} for phi in phis],
                             c_grid=c_grid))
        for phi, res in zip(phis, report["results"]):
            orders.append(res["subtraction"]["p"])
            base, *shifted = res["extensions"]
            for c, block in zip(c_grid, shifted):
                offset = complex(*block["value"]) - complex(*base["value"])
                predicted = sum(ck * (-1) ** k * _mp_derivative_at_zero(phi, k)
                                for k, ck in enumerate(c))
                worst = max(worst, abs(offset - predicted) / (1.0 + abs(predicted)))
                rows += 1
    ok = orders == [0, 0, 0, 1] and rows == 9 and worst <= 1e-12
    _report("C06", ok, "counterterm offsets match sum(c_k (-1)^k phi^(k)(0)), "
            "phi^(k)(0) from mpmath", f"max rel discrepancy {worst:.2e}, {rows} rows")


def test_c07_ring_axioms():
    base = ProductExpression((DELTA, PV, X))
    worst = 0.0
    all_ok = True
    for y in (0.1, 0.01):
        for other in (ProductExpression((X, DELTA, PV)), ProductExpression((PV, X, DELTA)),
                      ProductExpression((catalog("one"), DELTA, PV, X))):
            rep = ring_axiom_check(base, other, GAUSS, y, rtol=1e-12)
            worst = max(worst, rep.difference)
            all_ok = all_ok and rep.ok
    _report("C07", all_ok, "3-factor reorderings and unity padding pair "
            "identically at y in {0.1, 0.01}", f"worst rel diff {worst:.2e}")


def test_c08_annihilation_oracle():
    expr = ProductExpression((DELTA,), (1,))  # x^1 * delta
    worst = 0.0
    statuses = []
    for key in ("gauss", "gauss_wide", "tilted"):
        result = limit_pairing(expr, REFERENCE_TEST_FUNCTIONS[key])
        statuses.append(result.status)
        worst = max(worst, abs(result.value))
    ok = all(s == "converged" for s in statuses) and worst <= 1e-8
    _report("C08", ok, "x^1 * delta annihilates for 3 test functions",
            f"worst |value| {worst:.2e}")


def test_c09_order_formula():
    m = required_order(1.0, 0.0)
    ok = m == 5
    _report("C09", ok, "required order for (alpha, beta) = (1, 0) is 5",
            f"got {m}")


def test_c10_growth_bound():
    rep = verify_growth_bound(I0, x_range=(-10.0, 10.0), y_range=(1e-3, 1.0))
    a_err = abs(rep.alpha - 1.0)
    ok = a_err <= 0.05 and rep.residual <= 1.01
    _report("C10", ok, "fitted growth of (x+i0)^-1 is alpha = 1 with residual "
            "inside bound", f"alpha err {a_err:.2e}, residual {rep.residual:.6f}")


def test_c11_continuation_property():
    expr = ProductExpression((DELTA, DELTA))
    bases = [REFERENCE_TEST_FUNCTIONS[k]
             for k in ("gauss", "gauss_wide", "tilted", "offset")]
    bases.append(TestFunction((2.0, 0.0, 1.0), sigma=1.2))
    worst = 0.0
    for base in bases:
        probe = vanish_probe(0, base)
        direct = limit_pairing(expr, probe).value
        for c, (plateau, support) in (((0.0,), (1.0, 2.0)),
                                      ((2.5,), (1.0, 2.0)),
                                      ((-1.0,), (0.75, 1.5))):
            got = (evaluate_extension(expr, probe, 0, PlateauCutoff(plateau, support))
                   + counterterm_value(c, probe))
            worst = max(worst, abs(got - direct))
    ok = worst <= 1e-7
    _report("C11", ok, "extension equals the naive limit on vanishing probes, "
            "for any c and cutoff", f"worst diff {worst:.2e}")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(globals().items()):
        if name.startswith("test_c"):
            try:
                fn()
            except AssertionError:
                failures += 1
    sys.exit(1 if failures else 0)
