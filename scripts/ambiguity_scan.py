#!/usr/bin/env python3
"""Map the counterterm ambiguity of one continued product.

Sweeps the counterterm coefficient c_0 (and c_1 when the subtraction order
calls for it) over a grid for several test functions, prints each continued
value (Tbar, phibar) + sum(c_k (-1)^k phi^(k)(0)) with its offset from the
c = 0 value, and then shows the cutoff-geometry sweep that the continued
values must survive unchanged.

Usage:
    python scripts/ambiguity_scan.py
    python scripts/ambiguity_scan.py --expr "delta * d(delta)" --c-span 2
"""

import argparse

import numpy as np

from distprod.extension import ExtensionError, counterterm_value, evaluate_extension
from distprod.pairing import limit_pairing, parse_expression, subtraction_order
from distprod.testfn import PlateauCutoff, REFERENCE_TEST_FUNCTIONS

PHI_KEYS = ("gauss", "tilted", "offset")
GEOMETRIES = ((1.0, 2.0), (0.5, 1.0), (2.0, 3.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expr", default="delta * delta")
    ap.add_argument("--c-span", type=float, default=1.0,
                    help="scan c_k over [-span, span]")
    ap.add_argument("--c-num", type=int, default=5, help="grid points per c_k")
    args = ap.parse_args()

    expr = parse_expression(args.expr)
    order = subtraction_order(expr)
    print(f"expression        : {expr.label}")
    print(f"subtraction order : p = {order.p} (needed: {order.needed})")

    ticks = np.linspace(-args.c_span, args.c_span, args.c_num)
    if order.p == 0:
        grid = [[t] for t in ticks]
    else:
        # vary c_0 along the grid, c_1 on a coarse alternation
        grid = [[t, (-1.0) ** i * args.c_span / 2] for i, t in enumerate(ticks)]

    def tbar(phi, omega):
        """(Tbar, phibar); without subtraction, phi's own converged pairing."""
        if order.needed:
            return evaluate_extension(expr, phi, order.p, omega)
        pairing = limit_pairing(expr, phi)
        if pairing.status != "converged":
            raise ExtensionError(f"pairing for {expr.label!r} classified as "
                                 f"{pairing.status}; nothing to continue")
        return pairing.value

    phis = [REFERENCE_TEST_FUNCTIONS[k] for k in PHI_KEYS]
    omegas = [PlateauCutoff(plateau, support) for plateau, support in GEOMETRIES]
    bases = [tbar(phi, omegas[0]) for phi in phis]

    print(f"\ncounterterm grid ({len(grid)} points x {len(phis)} test functions)")
    print(f"{'phi':8s} {'c':>28s} {'value':>24s} {'offset':>13s} {'predicted':>13s}")
    for c in grid:
        for key, phi, base in zip(PHI_KEYS, phis, bases):
            predicted = counterterm_value(c, phi)
            value = base + predicted
            offset = value - base
            c_str = ", ".join(f"{v:+.2f}" for v in c)
            print(f"{key:8s} [{c_str:>26s}] {value.real:+24.12f} "
                  f"{offset.real:+13.6f} {predicted.real:+13.6f}")

    print("\ncutoff-geometry sweep (same continuation, c = 0)")
    values = [bases[0]] + [tbar(phis[0], omega) for omega in omegas[1:]]
    for (plateau, support), v in zip(GEOMETRIES, values):
        print(f"  plateau {plateau:4.2f}, support {support:4.2f} -> "
              f"{v.real:+.12f}{v.imag:+.2e}j")
    spread = max(abs(a - b) for a in values for b in values)
    print(f"spread across geometries: {spread:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
