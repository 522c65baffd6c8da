#!/usr/bin/env python3
"""Classify a catalog of distribution products in one table.

Each row formats the report of one `distprod.cli.run_job` job: the pairing's
status, its limit or fitted rate, and for a divergent product the
subtraction order and the minimal (c = 0) continuation.  A search that
fails prints p as "?", a continuation that fails prints "-", and the table
is followed by each failure's message.  Bad input, and a pairing the
quadrature cannot resolve, exit 2 as they do in `distprod`.

Usage:
    python scripts/survey_products.py
    python scripts/survey_products.py --expr "d(delta) * d(delta)" --steps 14
"""

import argparse
import math

from distprod.cli import Job, run_job
from distprod.pairing import QuadratureError, Schedule

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


def fmt_complex(pair):
    if pair is None:
        return "-"
    z = complex(*pair)
    if abs(z.imag) < 1e-10:
        return f"{z.real:+.6f}"
    return f"{z.real:+.4f}{z.imag:+.4f}j"


def fmt_row(text, entry):
    pairing, subtraction = entry["pairing"], entry["subtraction"] or {}
    s = f"{pairing['s']:.3f}" if pairing["s"] is not None else "-"
    p = str(subtraction.get("p", "?")) if subtraction else "-"
    value = fmt_complex(pairing["value"]) if pairing["status"] != "diverged" else "-"
    cont = fmt_complex(entry["extensions"][0]["value"]) if entry["extensions"] else "-"
    return (f"{text:28s} {pairing['status']:13s} {value:>22s} "
            f"{s:>7s} {p:>4s} {cont:>22s}")


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

    catalog = DEFAULT_CATALOG + args.expr
    try:
        schedule = Schedule(y0=args.y0, ratio=args.ratio, count=args.steps)
        phi = {"poly": [1.0], "sigma": args.sigma}
        reports = [run_job(Job(text, [phi], schedule)) for text in catalog]
    except (ValueError, QuadratureError) as exc:
        ap.error(str(exc))

    print(f"{'expression':28s} {'status':13s} {'value':>22s} "
          f"{'s':>7s} {'p':>4s} {'c=0 continuation':>22s}")
    print("-" * 100)
    errors = []
    for text, report in zip(catalog, reports):
        entry = report["results"][0]
        print(fmt_row(text, entry))
        if "error" in (entry["subtraction"] or {}):
            errors.append(f"{text}: {entry['subtraction']['error']}")
    if errors:
        print("\n" + "\n".join(errors))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
