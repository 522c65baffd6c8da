#!/usr/bin/env python3
"""Classify a catalog of distribution products in one table.

For every expression the smeared pairing is driven down the height
schedule and classified; divergent products additionally get their fitted
rate, subtraction order, and the value of the minimal (c = 0) continuation.

Usage:
    python scripts/survey_products.py
    python scripts/survey_products.py --expr "d(delta) * d(delta)" --steps 14
"""

import argparse
import math

from distprod.extension import Extension, ExtensionError, evaluate_extension
from distprod.pairing import (
    InconclusivePairingError,
    NotExtendableError,
    Schedule,
    limit_pairing,
    parse_expression,
    require_resolved,
    subtraction_order,
)
from distprod.testfn import TestFunction

DEFAULT_CATALOG = [
    "1",
    "delta",
    "pv(1/x)",
    "x^1 * delta",
    "delta * pv(1/x)",
    "(x+i0)^-1 * (x+i0)^-1",
    "(x-i0)^-1 * (x-i0)^-1",
    "(x+i0)^-1 * (x-i0)^-1",
    "delta * delta",
    "delta * d(delta)",
    "pv(1/x) * pv(1/x)",
    "x^2 * delta * delta",
    "delta * delta * delta",
]


def classify(text, phi, schedule):
    expr = parse_expression(text)
    result = limit_pairing(expr, phi, schedule)
    row = {"expr": text, "status": result.status, "value": result.value,
           "s": result.s, "p": None, "cont": None}
    if result.status == "converged":
        return row
    # order determination probes with its own parity-safe test function, so
    # it also settles products this phi is blind to (inconclusive rows)
    try:
        order = subtraction_order(expr, 6, schedule)
    except (InconclusivePairingError, NotExtendableError) as exc:
        row["p"] = f"? ({type(exc).__name__})"
        return row
    row["p"] = order.p
    try:
        ext = Extension.minimal(expr, order.p)
        row["cont"] = evaluate_extension(ext, phi, schedule).value
    except ExtensionError:
        row["cont"] = None
    return row


def fmt_complex(z):
    if z is None:
        return "-"
    if abs(z.imag) < 1e-10:
        return f"{z.real:+.6f}"
    return f"{z.real:+.4f}{z.imag:+.4f}j"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--expr", action="append", default=[],
                    help="additional expression (repeatable)")
    ap.add_argument("--sigma", type=float, default=math.sqrt(0.5),
                    help="width of the Gaussian test function")
    ap.add_argument("--y0", type=float, default=0.1)
    ap.add_argument("--ratio", type=float, default=0.5)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args()

    phi = TestFunction((1.0,), sigma=args.sigma)
    schedule = Schedule(y0=args.y0, ratio=args.ratio, count=args.steps)
    try:
        require_resolved(phi, schedule)
    except ValueError as exc:
        ap.error(str(exc))

    print(f"{'expression':28s} {'status':13s} {'value':>22s} "
          f"{'s':>7s} {'p':>4s} {'c=0 continuation':>22s}")
    print("-" * 100)
    for text in DEFAULT_CATALOG + args.expr:
        row = classify(text, phi, schedule)
        s = f"{row['s']:.3f}" if row["s"] is not None else "-"
        p = str(row["p"]) if row["p"] is not None else "-"
        value = fmt_complex(row["value"]) if row["status"] != "diverged" else "-"
        print(f"{row['expr']:28s} {row['status']:13s} {value:>22s} "
              f"{s:>7s} {p:>4s} {fmt_complex(row['cont']):>22s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
