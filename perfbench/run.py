#!/usr/bin/env python3
"""distprod benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/`` and nowhere else.  The client replays the workload's
operations back to back, in whole passes, until ``--seconds`` have passed,
and checks every output against the oracle table.

With ``--trace 0`` it reports the end-to-end metrics: set-up time (median of
fresh processes), throughput, latency percentiles and peak memory.  With
``--trace 1`` it wraps distprod's layers and reports per-layer work counts
(from the first pass, so they repeat exactly for a seed) and times (median
over passes), and writes the first pass's spans under ``.bench_build/``.
The last line of standard output is one JSON object with the verdict and the
metrics; the lines before it print the same metrics for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_RUNS = 9


def pin_environment():
    """Must run before numpy loads: threads capped at this process's CPUs,
    default tolerances, and the checkout's src/ first on the path."""
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ.pop("DISTPROD_TOL", None)
    sys.path.insert(0, str(SRC))


def measure_setup(speed) -> tuple[float, float]:
    """Median set-up seconds of fresh processes: (speed-adjusted, raw)."""
    raw, adjusted = [], []
    for _ in range(SETUP_RUNS):
        before = speed.probe()
        done = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(done.stdout.split()[-1]))
        adjusted.append(raw[-1] * 2.0 * speed.NOMINAL_S / (before + speed.probe()))
    return statistics.median(adjusted), statistics.median(raw)


def make_call(op):
    """The operation as a call into distprod, its inputs built beforehand.

    Functions are looked up on their modules at call time, so a traced run
    goes through the wrappers.
    """
    from distprod import cli, pairing
    from distprod.testfn import TestFunction

    y0, ratio, count = op.schedule
    schedule = pairing.Schedule(y0=y0, ratio=ratio, count=count)
    if op.kind == "pairing":
        expr = cli.parse_expression(op.expr)
        phi = TestFunction(op.phis[0].poly, op.phis[0].sigma, op.phis[0].mu)
        return lambda: pairing.limit_pairing(expr, phi, schedule)
    job = cli.Job(expression=op.expr, phis=[p.descriptor() for p in op.phis],
                  schedule=schedule, c_grid=[list(r) for r in op.c_grid])
    return lambda: cli.run_job(job)


def fingerprint(out) -> str:
    return json.dumps(out, sort_keys=True) if isinstance(out, dict) else repr(out)


class Client:
    """Closed loop: each operation starts when the previous one has returned."""

    def __init__(self, ops, oracle, speed_log, tracer=None, span_file=None):
        self.oracle = oracle
        self.speed = speed_log
        self.ops = ops
        self.calls = [make_call(op) for op in ops]
        self.tracer = tracer
        self.span_file = span_file
        self.raw: list[float] = []          # seconds per operation, as measured
        self.probe_index: list[int] = []    # speed sample taken before each operation
        self.factors: list[float] = []      # speed adjustment of each operation
        self.latencies: list[float] = []    # speed-adjusted, filled in by run()
        self.failed = 0
        self.passes = 0
        self.problems: list[str] = []      # failures that are not known defects
        self.known: list[str] = []         # known-defect failures, first pass
        self.bands: list[bool] = []        # diverged results: band covers the rate
        self.first: list[str] = []
        self.pass_layers: list[dict] = []

    def run(self, seconds: float):
        stop = time.perf_counter() + seconds
        while self.passes == 0 or time.perf_counter() < stop:
            for k, (op, call) in enumerate(zip(self.ops, self.calls)):
                self._one(k, op, call)
            if self.tracer is not None:
                self.pass_layers.append(layer_metrics(self.tracer, self.bands))
                if self.passes == 0:
                    self.span_file.parent.mkdir(parents=True, exist_ok=True)
                    self.tracer.write(self.span_file)
                self.tracer.reset()
            self.passes += 1
        self.speed.finish()
        self.factors = [self.speed.factor(i) for i in self.probe_index]
        self.latencies = [t * f for t, f in zip(self.raw, self.factors)]

    def _one(self, k, op, call):
        self.probe_index.append(self.speed.maybe_sample())
        if self.tracer is not None:
            self.tracer.begin_op(k)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # an operation that raises is a failed operation
            out = f"raised {type(exc).__name__}: {exc}"
            self.raw.append(time.perf_counter() - t0)
            verdict = self.oracle.Verdict(f"{op.label}: {out}")
        else:
            self.raw.append(time.perf_counter() - t0)
            verdict = self.oracle.check(op, out)
        mark = fingerprint(out)
        if self.passes == 0:
            self.first.append(mark)
            self.bands.extend(verdict.bands)
            if verdict.failure:
                (self.known if verdict.known else self.problems).append(verdict.failure)
        elif mark != self.first[k]:
            self.problems.append(f"{op.label}: output differs from the first pass")
        if verdict.failure:
            self.failed += 1

    @property
    def attempted(self) -> int:
        return len(self.raw)

    def per_op(self, latencies) -> list[float]:
        """Each operation's median latency over the passes."""
        n = len(self.ops)
        return [statistics.median(latencies[k::n]) for k in range(n)]


# Per-layer metrics: name -> unit.  Counts and ratios come from the first
# pass and repeat exactly for a seed; seconds are the median over passes, as
# measured (not speed-adjusted).
PER_LAYER = {
    "cli.run_job.calls": "count",
    "pairing.limit_pairing.calls": "count",
    "pairing.limit_pairing.busy_s": "s",
    "pairing.limit_pairing.repeat_ratio": "ratio",
    "pairing.subtraction_order.limit_pairing_calls": "count",
    "pairing.pair_at_y.calls": "count",
    "pairing.pair_at_y.self_s": "s",
    "pairing.quad_failures": "count",
    "pairing.schedule_truncations": "count",
    "pairing._integration_radius.busy_s": "s",
    "pairing._integration_radius.points": "count",
    "pairing._adaptive_quadrature.calls": "count",
    "pairing._adaptive_quadrature.rounds": "count",
    "pairing._adaptive_quadrature.self_s": "s",
    "pairing._panel_rule.calls": "count",
    "pairing._panel_rule.panels": "count",
    "pairing._panel_rule.points": "count",
    "pairing._panel_rule.self_s": "s",
    "pairing.integrand.self_s": "s",
    "pairing.band_cover_ratio": "ratio",
    "boundary.regulated.calls": "count",
    "boundary.regulated.points": "count",
    "boundary.regulated.self_s": "s",
    "ratfun.eval.points": "count",
    "ratfun.eval.busy_s": "s",
    "testfn.TestFunction.points": "count",
    "testfn.TestFunction.busy_s": "s",
    "testfn.PlateauCutoff.points": "count",
    "extension.SubtractedFunction.points": "count",
    "extension.evaluate_extension.calls": "count",
    "trace.ops_per_s": "1/s",
}
# Times of the layers only `continue` enters.  Elsewhere they read exactly 0
# on every run, so they are printed but left out of the result line.
CONTINUE_LAYER_TIMES = {
    "cli.run_job.busy_s": "s",
    "pairing.subtraction_order.busy_s": "s",
    "testfn.PlateauCutoff.busy_s": "s",
    "extension.SubtractedFunction.self_s": "s",
    "extension.evaluate_extension.busy_s": "s",
    "extension.omega_independence_check.busy_s": "s",
}


def layer_metrics(tracer, bands) -> dict[str, float]:
    """One pass's per-layer numbers from its spans."""
    spans = tracer.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0,
             "raised": 0, "repeat": 0, "truncated": 0}
    out = {}
    for metric in (*PER_LAYER, *CONTINUE_LAYER_TIMES):
        layer, _, field = metric.rpartition(".")
        stats = spans.get(layer, empty)
        if field in ("calls", "busy_s", "self_s"):
            out[metric] = stats[field]
        elif field == "points":
            out[metric] = stats["size"]
    lp = spans.get("pairing.limit_pairing", empty)
    aq = spans.get("pairing._adaptive_quadrature", empty)
    panels = spans.get("pairing._panel_rule", empty)["size"]
    out["pairing.limit_pairing.repeat_ratio"] = lp["repeat"] / lp["calls"] if lp["calls"] else 0.0
    out["pairing.subtraction_order.limit_pairing_calls"] = tracer.count_under(
        "pairing.limit_pairing", "pairing.subtraction_order")
    out["pairing.quad_failures"] = aq["raised"]
    out["pairing.schedule_truncations"] = lp["truncated"]
    out["pairing._integration_radius.points"] = tracer.child_stats(
        "pairing.integrand", "pairing._integration_radius")[1]
    out["pairing._adaptive_quadrature.rounds"] = tracer.child_stats(
        "pairing._panel_rule", "pairing._adaptive_quadrature")[0] - aq["calls"]
    out["pairing._panel_rule.panels"] = panels
    out["pairing._panel_rule.points"] = 15 * panels
    out["pairing.band_cover_ratio"] = sum(bands) / len(bands) if bands else 0.0
    return out


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def report(args, client: Client, metrics: dict[str, tuple[float, str]], context: list[str]):
    n = client.attempted
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{n} operations in {client.passes} passes of {len(client.ops)}, "
          f"{sum(client.raw):.2f} s busy")
    print(f"fail_ratio {client.failed / n:.4f} ({client.failed}/{n}; "
          f"{len(client.known)} known defects per pass)")
    for line in client.known:
        print(f"  known defect: {line}")
    for line in client.problems[:20]:
        print(f"  WRONG: {line}")
    for line in context:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(json.dumps({
        "correct": not client.problems,
        "attempted": n,
        "failed": client.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("classify", "continue", "highorder"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pin_environment()
    try:
        import distprod
    except ImportError as exc:
        print(f"perfbench: cannot import distprod from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(distprod.__file__).resolve().parent != SRC / "distprod":
        print(f"perfbench: distprod resolves to {distprod.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"distprod: {distprod.__file__}")

    import oracle
    import setup_probe
    import spans
    import speed
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.trace:
        setup_probe.warm_up()
        tracer = spans.Tracer()
        client = Client(ops, oracle, speed.SpeedLog(), tracer,
                        SPAN_DIR / f"spans_{args.workload}_seed{args.seed}.tsv")
        with spans.installed(tracer):
            client.run(args.seconds)
        first, passes = client.pass_layers[0], client.pass_layers
        layers = {name: (statistics.median(p[name] for p in passes) if unit == "s"
                         else first[name], unit)
                  for name, unit in {**PER_LAYER, **CONTINUE_LAYER_TIMES}.items()
                  if name != "trace.ops_per_s"}
        layers["trace.ops_per_s"] = (len(ops) / sum(client.per_op(client.latencies)), "1/s")
        metrics = {name: layers[name] for name in PER_LAYER}
        context = [f"spans of the first pass: {client.span_file.relative_to(ROOT)}",
                   "counts and ratios: first pass; seconds: median over passes, as measured"]
        context += [f"{name:48s} {layers[name][0]:.6g} s" for name in CONTINUE_LAYER_TIMES]
    else:
        setup_s, setup_raw = measure_setup(speed)
        setup_probe.warm_up()
        client = Client(ops, oracle, speed.SpeedLog())
        client.run(args.seconds)
        lat, raw = client.per_op(client.latencies), client.per_op(client.raw)
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "op_p50_s": (statistics.median(lat), "s"),
            "op_p90_s": (percentile(lat, 90), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        beyond = client.passes * sum(v > metrics["op_p90_s"][0] for v in lat)
        context = [
            f"latency samples: {client.attempted} ({client.passes} per operation); "
            f"{beyond} samples of the operations beyond p90",
            f"machine speed: median factor {statistics.median(client.factors):.3f} "
            f"over {len(client.speed.samples)} probes",
            f"as measured: setup_s {setup_raw:.6g} s, ops_per_s {len(raw) / sum(raw):.6g} 1/s, "
            f"op_p50_s {statistics.median(raw):.6g} s, op_p90_s {percentile(raw, 90):.6g} s",
        ]
    report(args, client, metrics, context)
    return 0


if __name__ == "__main__":
    sys.exit(main())
