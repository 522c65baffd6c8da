"""Command-line front end: job running and JSON reports.

A job names a product expression (parsed by ``expression.parse_expression``),
its test functions, a height schedule and a cutoff.  Reports are single JSON
documents, written atomically, with fixed key order and no timestamps:
identical jobs produce byte-identical output.  Exit code 0 covers every
classified outcome (including mathematically inconclusive pairings, which are
reported in-band); 2 flags bad input (syntax, config, I/O) and a pairing the
quadrature cannot resolve in its first six heights; 1 is reserved for
internal failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import os
import stat
import sys
import tempfile
from dataclasses import dataclass, field

from .expression import parse_expression
from .extension import counterterm_value, evaluate_extensions
from .pairing import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOLERANCES,
    MIN_HEIGHTS,
    NotExtendableError,
    QuadratureError,
    Schedule,
    limit_pairings,
    subtraction_order,
)
from .testfn import (
    DEFAULT_CUTOFF,
    MAX_ORDER,
    REFERENCE_TEST_FUNCTIONS,
    PlateauCutoff,
    TestFunction,
)


class ConfigError(ValueError):
    """Invalid job configuration (flags or job file)."""


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

_GAUSS = REFERENCE_TEST_FUNCTIONS["gauss"]            # exp(-x^2), the default phi
_DEFAULT_PHI = {"poly": list(_GAUSS.poly), "sigma": _GAUSS.sigma, "mu": _GAUSS.mu}


@dataclass
class Job:
    expression: str
    phis: list[dict] = field(default_factory=lambda: [dict(_DEFAULT_PHI)])
    schedule: Schedule = DEFAULT_SCHEDULE
    plateau: float = DEFAULT_CUTOFF.plateau
    support: float = DEFAULT_CUTOFF.support
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


def _check_counterterms(grid: list[list[complex]], p: int, phis):
    """Raise ConfigError unless each row has p + 1 entries and a finite sum on every phi."""
    for row in grid:
        if len(row) != p + 1:
            raise ConfigError(f"counterterm vector {row} has {len(row)} entries, need {p + 1}")
    for phi in phis:
        for c in grid:
            ct = counterterm_value(c, phi)
            if not cmath.isfinite(ct):
                raise ConfigError(f"counterterm vector {c} gives the non-finite "
                                  f"value {ct} on test function {phi}")


def _cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _extension_blocks(job: Job, phi: TestFunction, p: int,
                      tbar: complex, shift: complex,
                      omegas: tuple[PlateauCutoff, PlateauCutoff]) -> tuple[list, dict]:
    """The c = 0 block, one block per c_grid row, and the cutoff check.

    Every block is (Tbar, phibar) plus its counterterm sum: (Tbar, phibar)
    does not depend on c, so it is paired once, as `tbar`.  `shift` is what
    moving the cutoff from omega to omega2 adds to it (see
    ``evaluate_extensions``), and the check prints its size as the
    difference.  ``run_job`` has refused a row whose counterterm sum is not
    finite; a row whose block value is not is a ConfigError here: a report
    holds numbers.
    """
    omega, omega2 = omegas
    blocks = []
    for c in [(0j,) * (p + 1), *job.c_grid]:
        ct = counterterm_value(c, phi)
        if not cmath.isfinite(tbar + ct):
            raise ConfigError(f"counterterm vector {list(c)} gives the non-finite "
                              f"value {tbar + ct} on test function {phi}")
        blocks.append({
            "p": p,
            "c": [_cpair(v) for v in c],
            "omega": {"plateau": omega.plateau, "support": omega.support},
            "value": _cpair(tbar + ct),
            "Tbar_phibar": _cpair(tbar),
            "counterterm_part": _cpair(ct),
        })
    independence = {
        "geometries": [[omega.plateau, omega.support],
                       [omega2.plateau, omega2.support]],
        "difference": abs(shift),
    }
    return blocks, independence


def run_job(job: Job) -> dict:
    """Execute a job and return the report document (not yet serialized).

    The job is its whole input: every pairing runs at ``DEFAULT_TOLERANCES``.
    A fixed ``p_override`` refuses a c_grid row of the wrong width, or whose
    counterterm sum on a phi is not finite, before anything is paired.  The
    job then runs in three stages, each one batch:
      1. every phi's pairing, in one ``limit_pairings`` batch, which refuses
         the job if the schedule cannot resolve a phi; the first phi whose
         pairing raises raises it, as phi after phi would;
      2. the job's one subtraction order: ``p_override``, or else the
         order one ``subtraction_order`` search returns if any pairing diverged
         (the search pairs only reference functions and probes, at
         ``DEFAULT_SCHEDULE`` and ``DEFAULT_TOLERANCES``, so one outcome, the
         order or the error it raised, serves every phi); with the order
         found, a c_grid row of the wrong width, or whose counterterm sum on
         a phi that diverged is not finite, refuses the job;
      3. (Tbar, phibar) of every phi whose pairing diverged, with the
         shift a change to the halved cutoff gives it, in one
         ``evaluate_extensions`` batch: the shift is its cutoff-change
         pairing, or exactly 0 for a product supported at the origin.
    One pass then builds each phi's report entry; its ``needed`` says that
    the phi diverged and was subtracted.
    """
    expr = parse_expression(job.expression)
    omega = PlateauCutoff(job.plateau, job.support)
    try:
        omegas = omega, PlateauCutoff(job.plateau / 2.0, job.support / 2.0)
    except ValueError as exc:
        raise ConfigError(f"the cutoff check halves the cutoff plateau={omega.plateau}, "
                          f"support={omega.support}: {exc}") from None
    phis = [_phi_from_descriptor(desc) for desc in job.phis]
    if job.p_override is not None:
        _check_counterterms(job.c_grid, job.p_override, phis)
    pairings = limit_pairings(expr, phis, job.schedule)
    for pairing in pairings:
        if isinstance(pairing, Exception):
            raise pairing
    diverged = [pairing.status == "diverged" for pairing in pairings]

    # a fixed p is subtracted from every phi that diverged
    p, search_error = job.p_override, None
    if p is None and any(diverged):
        try:
            p = subtraction_order(expr)
        except (NotExtendableError, QuadratureError) as exc:
            search_error = str(exc)
        else:
            # a row's counterterm sum depends on the row and phi's jet alone
            _check_counterterms(job.c_grid, p, [phi for phi, d in zip(phis, diverged) if d])

    subtracted = [phi for phi, d in zip(phis, diverged) if p is not None and d]
    continued = iter(evaluate_extensions(expr, p, subtracted, omegas, job.schedule)
                     if subtracted else ())

    results = []
    for desc, phi, pairing, d in zip(job.phis, phis, pairings, diverged):
        entry: dict = {"phi": desc, "pairing": pairing.to_json_dict(), "subtraction": None,
                       "extensions": None, "omega_independence": None}
        if job.p_override is None and not d:
            if job.c_grid:
                entry["notes"] = [f"c_grid ignored: the pairing is {pairing.status}, "
                                  "so nothing is continued"]
        elif search_error is not None:
            entry["subtraction"] = {"error": search_error}
        else:
            entry["subtraction"] = {"p": p, "needed": d}
            if d:
                outcome = next(continued)
            elif pairing.status == "converged":
                # nothing subtracted: (Tbar, phibar) is the pairing itself, at any cutoff
                outcome = pairing.value, 0j
            else:
                outcome = (f"pairing for {expr.label!r} classified as {pairing.status}; "
                           f"it did not diverge, so nothing was subtracted and the order "
                           f"p={p} plays no part")
            if isinstance(outcome, tuple):
                entry["extensions"], entry["omega_independence"] = _extension_blocks(
                    job, phi, p, *outcome, omegas)
            else:
                entry["subtraction"]["error"] = str(outcome)
        results.append(entry)
    return {
        "expression": job.expression,
        "normalized": expr.label,
        "schedule": {"y0": job.schedule.y0, "ratio": job.schedule.ratio,
                     "count": job.schedule.count},
        "cutoff": {"plateau": job.plateau, "support": job.support},
        "tolerances": {"quad_abs": DEFAULT_TOLERANCES.quad_abs,
                       "convergence": DEFAULT_TOLERANCES.convergence},
        "results": results,
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _write_atomic(path: str, text: str):
    """Write text to path through a temporary file in its directory.

    The file keeps the mode of the file it replaces, or else gets the mode a
    plain write gives, 0o666 less the umask (mkstemp's own is 0o600).
    """
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0o077)     # os.umask returns the mask only by replacing it
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".distprod-", suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
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
    ap.add_argument("--y0", type=float,
                    help=f"initial height (default {DEFAULT_SCHEDULE.y0})")
    ap.add_argument("--ratio", type=float,
                    help=f"schedule ratio (default {DEFAULT_SCHEDULE.ratio})")
    ap.add_argument("--steps", type=int, help=f"schedule length, at least {MIN_HEIGHTS} "
                                              f"(default {DEFAULT_SCHEDULE.count})")
    ap.add_argument("--plateau", type=float,
                    help=f"cutoff plateau radius (default {DEFAULT_CUTOFF.plateau})")
    ap.add_argument("--support", type=float,
                    help=f"cutoff support radius (default {DEFAULT_CUTOFF.support})")
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
    except (ValueError, OSError, QuadratureError) as exc:  # ParseError, ConfigError
        print(f"distprod: error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - internal failure path
        import traceback

        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
