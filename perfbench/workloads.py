"""The benchmark's workloads: the inputs one closed-loop client sends.

Each workload is a fixed list of operations, generated from a seed and
replayed in passes.  The seed picks the extra test-function parameters and
the counterterm values; everything else is fixed here, so two seeds give the
same amount of work up to the small drift of those parameters.  Nothing in
this module imports distprod: the operations are plain data, turned into
calls by ``run.py``.

An operation is one ``limit_pairing`` call ("pairing") or one
``cli.run_job`` call ("job").
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# scripts/survey_products.py's default catalog plus d(delta) * d(delta),
# pinned here so the workload does not move when the script does.
CLASSIFY_EXPRESSIONS = (
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
    "d(delta) * d(delta)",
)

HIGHORDER_EXPRESSIONS = (
    "delta * delta * delta * delta",
    "pv(1/x) * pv(1/x) * pv(1/x) * pv(1/x)",
    "(x+i0)^-3 * (x-i0)^-3",
    "d(d(delta)) * d(d(delta))",
    "d(delta) * d(delta) * d(delta)",
    "d(d(delta)) * d(delta)",
    "d(delta) * d(delta) * delta",
)

DEFAULT_SCHEDULE = (0.1, 0.5, 12)
HIGHORDER_SCHEDULE = (0.01, 0.5, 16)      # down to 0.01 * 2^-15 ~ 3.1e-7


@dataclass(frozen=True)
class Phi:
    """poly(x) * exp(-(x - mu)^2 / (2 sigma^2)), poly lowest order first."""

    poly: tuple[float, ...]
    sigma: float
    mu: float = 0.0

    def descriptor(self) -> dict:
        return {"poly": list(self.poly), "sigma": self.sigma, "mu": self.mu}


# exp(-x^2): even, so it is blind to odd products.  Always present.
GAUSS = Phi((1.0,), math.sqrt(0.5))


@dataclass(frozen=True)
class Op:
    kind: str                                 # "pairing" or "job"
    expr: str
    phis: tuple[Phi, ...]                     # one for a pairing
    schedule: tuple[float, float, int] = DEFAULT_SCHEDULE
    c_grid: tuple[tuple[complex, ...], ...] = ()

    @property
    def label(self) -> str:
        if self.kind == "pairing":
            return f"{self.expr} @ {self.phis[0]}"
        return f"job {self.expr!r}: {len(self.phis)} phi, {len(self.c_grid)} c rows"


def _phis(rng: random.Random) -> tuple[Phi, ...]:
    """The even Gaussian plus three seeded functions with phi(0), phi'(0) != 0.

    Parameter ranges are narrow so that the quadrature work, and with it
    the timings, barely depend on the seed.
    """
    offset = Phi((1.0, rng.uniform(-0.6, -0.4)), rng.uniform(0.95, 1.05),
                 rng.uniform(0.6, 0.8))
    tilted = Phi((1.0, rng.uniform(0.8, 1.2), 0.25), 1.0)
    wide = Phi((1.0,), rng.uniform(1.8, 2.2), rng.uniform(-0.3, -0.1))
    return (GAUSS, offset, tilted, wide)


def _c_rows(rng: random.Random, rows: int, width: int):
    return tuple(
        tuple(complex(round(rng.uniform(-2.0, 2.0), 3), round(rng.uniform(-2.0, 2.0), 3))
              for _ in range(width))
        for _ in range(rows)
    )


def classify(rng: random.Random) -> list[Op]:
    phis = _phis(rng)
    return [Op("pairing", e, (phi,)) for e in CLASSIFY_EXPRESSIONS for phi in phis]


def highorder(rng: random.Random) -> list[Op]:
    even, offset = _phis(rng)[:2]
    return [Op("pairing", e, (phi,), HIGHORDER_SCHEDULE)
            for e in HIGHORDER_EXPRESSIONS for phi in (even, offset)]


def continue_(rng: random.Random) -> list[Op]:
    """run_job on the default schedule and cutoff.

    Row widths are p + 1 for the subtraction order p the search finds:
    0 for delta^2 and pv(1/x)^2, 2 for delta^3.
    """
    even = (GAUSS,)
    return [
        Op("job", "delta * delta", even),
        Op("job", "delta * delta", even, c_grid=_c_rows(rng, 4, 1)),
        Op("job", "delta * delta", even, c_grid=_c_rows(rng, 16, 1)),
        Op("job", "delta * delta", _phis(rng)),
        Op("job", "pv(1/x) * pv(1/x)", even, c_grid=_c_rows(rng, 4, 1)),
        Op("job", "delta * delta * delta", even, c_grid=_c_rows(rng, 4, 3)),
        Op("job", "d(delta) * d(delta)", even),
        Op("job", "x^2 * delta * delta", even),
    ]


WORKLOADS = {"classify": classify, "continue": continue_, "highorder": highorder}


def build(name: str, seed: int) -> list[Op]:
    return WORKLOADS[name](random.Random(seed))
