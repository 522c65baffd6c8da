"""Command-line front end: job running and JSON reports.

A job names a product expression (parsed by ``pairing.parse_expression``),
its test functions, a height schedule and a cutoff.  Reports are single JSON
documents, written atomically, with fixed key order and no timestamps:
identical jobs produce byte-identical output.  Exit code 0 covers every
classified outcome (including mathematically inconclusive pairings, which are
reported in-band); 2 flags bad input (syntax, config, I/O); 1 is reserved for
internal failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field

from .extension import (
    Extension,
    ExtensionError,
    evaluate_extension,
    extension_report,
    extension_result,
)
from .pairing import (
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
    parse_expression,
    require_resolved,
    subtraction_order,
)
from .testfn import MAX_ORDER, PlateauCutoff, TestFunction


class ConfigError(ValueError):
    """Invalid job configuration (flags or job file)."""


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

_DEFAULT_PHI = {"poly": [1.0], "sigma": 0.7071067811865476, "mu": 0.0}


@dataclass
class Job:
    expression: str
    phis: list[dict] = field(default_factory=lambda: [dict(_DEFAULT_PHI)])
    schedule: Schedule = Schedule()
    plateau: float = 1.0
    support: float = 2.0
    p_override: int | None = None
    c_grid: list[list[complex]] = field(default_factory=list)
    out: str | None = None


def _phi_from_descriptor(desc: dict) -> TestFunction:
    """The test function of a descriptor; each value must be a JSON number."""
    extra = set(desc) - {"poly", "sigma", "mu"}
    if extra:
        raise ConfigError(f"unknown test function keys {sorted(extra)}")
    missing = {"poly", "sigma"} - set(desc)
    if missing:
        raise ConfigError(f"test function descriptor {desc!r} lacks {sorted(missing)}")
    poly = desc["poly"]
    if not (isinstance(poly, list) and poly):
        raise ConfigError(f"test function key 'poly' must be a non-empty list, got {poly!r}")
    return TestFunction(
        tuple(_json_number(c, float, "a 'poly' coefficient") for c in poly),
        _json_number(desc["sigma"], float, "test function key 'sigma'"),
        _json_number(desc.get("mu", 0.0), float, "test function key 'mu'"),
    )


def _complex_from_json(v) -> complex:
    """A finite number, [re, im] pair of numbers or string such as '1+2j'."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(_json_number(v[0], float, "a counterterm part"),
                    _json_number(v[1], float, "a counterterm part"))
    elif isinstance(v, str):
        try:
            z = complex(v.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"cannot read {v!r} as a complex number") from None
    else:
        z = complex(_json_number(v, float, "a counterterm"))
    if not cmath.isfinite(z):
        raise ConfigError(f"counterterm {v!r} is not finite")
    return z


def _json_number(v, kind, what: str):
    """v as kind (int or float); a bool, or a float where an int is due, is an error."""
    allowed = int if kind is int else (int, float)
    if isinstance(v, bool) or not isinstance(v, allowed):
        raise ConfigError(f"{what} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {v!r}")
    return kind(v)


_JOB_KEYS = {"expression", "phi", "y0", "ratio", "steps", "plateau", "support",
             "p", "c_grid", "out"}


def job_from_file(path: str) -> Job:
    with open(path, encoding="utf-8") as fh:
        return job_from_doc(json.load(fh))


def job_from_doc(doc) -> Job:
    """The job a job-file document describes; absent keys keep Job's defaults.

    Every value is checked for its type here: a wrong one is a ConfigError,
    never a silent conversion.
    """
    if not isinstance(doc, dict):
        raise ConfigError("job file must hold a JSON object")
    unknown = set(doc) - _JOB_KEYS
    if unknown:
        raise ConfigError(f"unknown job keys {sorted(unknown)}")
    if not isinstance(doc.get("expression"), str):
        raise ConfigError(f"job needs an 'expression' string, got {doc.get('expression')!r}")

    def number(key, kind):
        return _json_number(doc[key], kind, f"job key {key!r}")

    schedule = {name: number(key, kind) for key, name, kind in
                (("y0", "y0", float), ("ratio", "ratio", float), ("steps", "count", int))
                if key in doc}
    fields = {key: number(key, float) for key in ("plateau", "support") if key in doc}
    if doc.get("p") is not None:
        p = number("p", int)
        if not 0 <= p <= MAX_ORDER:
            raise ConfigError(f"job key 'p' must lie in [0, {MAX_ORDER}], got {p}")
        fields["p_override"] = p
    if "phi" in doc:
        phis = doc["phi"]
        if not (isinstance(phis, list) and phis and all(isinstance(d, dict) for d in phis)):
            raise ConfigError(f"'phi' must be a non-empty list of objects, got {phis!r}")
        fields["phis"] = [dict(d) for d in phis]
    if "c_grid" in doc:
        grid = doc["c_grid"]
        if not (isinstance(grid, list) and all(isinstance(row, list) for row in grid)):
            raise ConfigError(f"'c_grid' must be a list of lists, got {grid!r}")
        fields["c_grid"] = [[_complex_from_json(v) for v in row] for row in grid]
    if doc.get("out") is not None:
        if not isinstance(doc["out"], str):
            raise ConfigError(f"'out' must be a path string, got {doc['out']!r}")
        fields["out"] = doc["out"]
    return Job(expression=doc["expression"], schedule=Schedule(**schedule), **fields)


def _cgrid_rows(job: Job, p: int) -> list[list[complex]]:
    rows = []
    for row in job.c_grid:
        if len(row) != p + 1:
            raise ConfigError(
                f"counterterm vector {row} has {len(row)} entries, need {p + 1}"
            )
        rows.append(list(row))
    return rows


def _extension_blocks(job: Job, expr: ProductExpression, phi: TestFunction,
                      pairing: PairingResult, order: SubtractionOrder,
                      omegas: tuple[PlateauCutoff, PlateauCutoff],
                      tol: Tolerances) -> tuple[list, dict]:
    """The c = 0 block, one block per c_grid row, and the cutoff check.

    (Tbar, phibar) does not depend on c, so every row is the c = 0 pairing
    plus its counterterm sum, and the cutoff check pairs only at omega2.
    Without subtraction the continuation pairs phi itself: `pairing`.
    """
    omega, omega2 = omegas
    base = Extension.minimal(expr, order.p, omega, subtract=order.needed)
    rows = _cgrid_rows(job, order.p)
    c0 = (evaluate_extension(base, phi, job.schedule, tol) if order.needed
          else extension_result(base, phi, pairing))
    blocks = [extension_report(base, c0)]
    for c in rows:
        ext = base.with_counterterms(c)
        blocks.append(extension_report(ext, extension_result(ext, phi, c0.pairing)))
    difference = 0.0
    if order.needed:
        shifted = evaluate_extension(Extension.minimal(expr, order.p, omega2), phi,
                                     job.schedule, tol)
        difference = abs(c0.value - shifted.value)
    independence = {
        "geometries": [[omega.plateau, omega.support],
                       [omega2.plateau, omega2.support]],
        "difference": difference,
    }
    return blocks, independence


def _subtraction_search(expr: ProductExpression, job: Job, tol: Tolerances):
    """subtraction_order's outcome: the order, or the error it raised.

    The search pairs only reference functions and probes, never a job's phi,
    so one outcome serves every phi of the job.
    """
    try:
        return subtraction_order(expr, 6, job.schedule, tol)
    except (InconclusivePairingError, NotExtendableError, QuadratureError) as exc:
        return exc


def run_job(job: Job, tol: Tolerances | None = None) -> dict:
    """Execute a job and return the report document (not yet serialized)."""
    if tol is None:
        tol = _tolerances_from_env()
    expr = parse_expression(job.expression)
    omegas = (PlateauCutoff(job.plateau, job.support),
              PlateauCutoff(job.plateau / 2.0, job.support / 2.0))
    phis = [_phi_from_descriptor(desc) for desc in job.phis]
    for phi in phis:
        # every phi is checked before the first pairing runs
        require_resolved(phi, job.schedule)
    search = None
    results = []
    for desc, phi in zip(job.phis, phis):
        entry: dict = {"phi": desc}
        pairing = limit_pairing(expr, phi, job.schedule, tol)
        entry["pairing"] = pairing.to_json_dict()
        entry["subtraction"] = None
        entry["extensions"] = None
        entry["omega_independence"] = None
        if job.c_grid and pairing.status != "diverged" and job.p_override is None:
            entry["notes"] = [f"c_grid ignored: the pairing is {pairing.status}, "
                              "so nothing is continued"]
        if pairing.status == "diverged" or job.p_override is not None:
            try:
                if job.p_override is not None:
                    order = SubtractionOrder(job.p_override,
                                             needed=pairing.status == "diverged")
                else:
                    if search is None:
                        search = _subtraction_search(expr, job, tol)
                    if isinstance(search, Exception):
                        raise search
                    order = search
                entry["subtraction"] = {"p": order.p, "needed": order.needed}
                blocks, independence = _extension_blocks(job, expr, phi, pairing,
                                                         order, omegas, tol)
                entry["extensions"] = blocks
                entry["omega_independence"] = independence
            except (InconclusivePairingError, NotExtendableError,
                    ExtensionError, QuadratureError) as exc:
                entry["subtraction"] = {"error": str(exc)}
        results.append(entry)
    return {
        "expression": job.expression,
        "normalized": expr.label,
        "schedule": {"y0": job.schedule.y0, "ratio": job.schedule.ratio,
                     "count": job.schedule.count},
        "cutoff": {"plateau": job.plateau, "support": job.support},
        "tolerances": {"quad_abs": tol.quad_abs, "convergence": tol.convergence},
        "results": results,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _tolerances_from_env() -> Tolerances:
    raw = os.environ.get("DISTPROD_TOL")
    if raw is None:
        return DEFAULT_TOLERANCES
    try:
        convergence = float(raw)
    except ValueError as exc:
        raise ConfigError(f"DISTPROD_TOL={raw!r} is not a number") from exc
    try:
        return Tolerances(convergence)
    except ValueError as exc:
        raise ConfigError(f"DISTPROD_TOL={raw!r}: {exc}") from exc


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".distprod-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="distprod",
        description="Products of 1-D distributions: pairings, limits, "
                    "subtracted continuations, counterterm scans.",
    )
    ap.add_argument("--expr", help="product expression, e.g. 'delta * pv(1/x)'")
    ap.add_argument("--job", help="JSON job file (overrides the other flags)")
    ap.add_argument("--phi", action="append", default=None, metavar="JSON",
                    help="test function descriptor "
                         "'{\"poly\": [c0, c1, ...], \"sigma\": s, \"mu\": m}' "
                         "(repeatable)")
    ap.add_argument("--y0", type=float, help="initial height (default 0.1)")
    ap.add_argument("--ratio", type=float, help="schedule ratio (default 0.5)")
    ap.add_argument("--steps", type=int, help="schedule length (default 12)")
    ap.add_argument("--plateau", type=float, help="cutoff plateau radius (default 1.0)")
    ap.add_argument("--support", type=float, help="cutoff support radius (default 2.0)")
    ap.add_argument("--p", type=int, default=None, help="override subtraction order")
    ap.add_argument("--c", action="append", default=None, metavar="COMPLEX",
                    help="counterterm c_k (repeat for k = 0, 1, ...; forms one "
                         "grid row)")
    ap.add_argument("--out", default=None, help="output path ('-' = stdout)")
    return ap


def _job_from_args(args) -> Job:
    """The job of --job, or the job-file document the other flags spell out."""
    if args.job:
        job = job_from_file(args.job)
        if args.out:
            job.out = args.out
        return job
    if not args.expr:
        raise ConfigError("either --expr or --job is required")
    doc = {"expression": args.expr}
    if args.phi:
        try:
            doc["phi"] = [json.loads(raw) for raw in args.phi]
        except json.JSONDecodeError as exc:
            raise ConfigError(f"--phi is not valid JSON: {exc.doc!r}") from exc
    if args.c:
        doc["c_grid"] = [args.c]
    for key in ("y0", "ratio", "steps", "plateau", "support", "p", "out"):
        if getattr(args, key) is not None:
            doc[key] = getattr(args, key)
    return job_from_doc(doc)


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        job = _job_from_args(args)
        report = run_job(job)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if job.out in (None, "-"):
            sys.stdout.write(text)
        else:
            _write_atomic(job.out, text)
        return 0
    except (ValueError, OSError) as exc:  # ParseError and ConfigError among them
        print(f"distprod: error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
