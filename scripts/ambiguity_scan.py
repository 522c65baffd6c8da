#!/usr/bin/env python3
"""Map the counterterm ambiguity of one continued product.

Formats `distprod.cli.run_job` reports.  One job finds the subtraction order
p; one job per cutoff geometry then continues the product at p for three
test functions over a counterterm grid (c_0 swept, c_1 alternating, higher
c_k zero), and checks each cutoff against its halved one.  A failed
continuation prints its error; bad input and a stalled quadrature exit 2,
as in `distprod`.

Usage:
    python scripts/ambiguity_scan.py
    python scripts/ambiguity_scan.py --expr "delta * d(delta)" --c-span 2
"""

import argparse

import numpy as np

from distprod.cli import Job, run_job
from distprod.pairing import QuadratureError
from distprod.testfn import REFERENCE_TEST_FUNCTIONS

PHI_KEYS = ("gauss", "tilted", "offset")
GEOMETRIES = ((1.0, 2.0), (2.0, 3.0))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expr", default="delta * delta")
    ap.add_argument("--c-span", type=float, default=1.0,
                    help="scan c_k over [-span, span]")
    ap.add_argument("--c-num", type=int, default=5, help="grid points per c_k")
    args = ap.parse_args()

    phis = [{"poly": list(phi.poly), "sigma": phi.sigma, "mu": phi.mu}
            for phi in (REFERENCE_TEST_FUNCTIONS[k] for k in PHI_KEYS)]
    try:
        probe = run_job(Job(args.expr, phis))
        # the search is shared by every phi, so any subtraction block holds
        # its outcome; a product that converges for every phi needs p = 0
        order = next((e["subtraction"] for e in probe["results"] if e["subtraction"]),
                     {"p": 0, "needed": False})
        print(f"expression        : {probe['normalized']}")
        if "p" not in order:
            print(f"subtraction order : {order['error']}")
            return 0
        p = order["p"]
        print(f"subtraction order : p = {p} (needed: {order['needed']})")
        ticks = np.linspace(-args.c_span, args.c_span, args.c_num)
        grid = [([t, (-1.0) ** i * args.c_span / 2] + [0.0] * p)[:p + 1]
                for i, t in enumerate(ticks)]
        reports = [run_job(Job(args.expr, phis, plateau=plateau, support=support,
                               p_override=p, c_grid=grid))
                   for plateau, support in GEOMETRIES]
    except (ValueError, QuadratureError) as exc:
        ap.error(str(exc))

    results = reports[0]["results"]
    print(f"\ncounterterm grid ({len(grid)} points x {len(phis)} test functions)")
    print(f"{'phi':8s} {'c':>28s} {'value':>24s} {'counterterm':>13s}")
    for row in range(1, len(grid) + 1):
        for key, entry in zip(PHI_KEYS, results):
            if entry["extensions"]:
                block = entry["extensions"][row]
                c_str = ", ".join(f"{re:+.2f}" for re, _ in block["c"])
                print(f"{key:8s} [{c_str:>26s}] {block['value'][0]:+24.12f} "
                      f"{block['counterterm_part'][0]:+13.6f}")
    for key, entry in zip(PHI_KEYS, results):
        if not entry["extensions"]:
            print(f"{key:8s} not continued: {entry['subtraction']['error']}")

    print("\ncutoff-geometry sweep (c = 0; difference from the halved cutoff)")
    for i, key in enumerate(PHI_KEYS):
        for (plateau, support), report in zip(GEOMETRIES, reports):
            entry = report["results"][i]
            if entry["extensions"]:
                re, im = entry["extensions"][0]["value"]
                print(f"  {key:8s} plateau {plateau:4.2f}, support {support:4.2f} -> "
                      f"{re:+.12f}{im:+.2e}j, difference "
                      f"{entry['omega_independence']['difference']:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
