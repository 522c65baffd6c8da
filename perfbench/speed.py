"""Machine-speed probe: a fixed kernel timed between operations.

The benchmark's timings swing by 20-40 % over tens of seconds on a shared
machine, because neighbours take turns on the same cores.  The probe runs
the same kind of work as distprod (complex rational evaluation, exp,
a small matrix product and a Python loop, on arrays of the size one
quadrature round uses) but none of its code, so a change to distprod never
changes the probe.  Each operation's latency is rescaled by
``NOMINAL_S / probe``, with the probe taken as the mean of the samples just
before and just after the operation: timings then read as seconds on the
machine running at the speed where the probe takes ``NOMINAL_S``.
"""

from __future__ import annotations

import time

import numpy as np
from numpy.polynomial.chebyshev import chebval

NOMINAL_S = 0.010        # the probe's time on a quiet 2-vCPU x86-64 VM
INTERVAL_S = 0.25        # sample at most this often

_X = np.linspace(-12.0, 12.0, 3000)
_S = np.linspace(0.01, 0.99, 1500)
_CHEB = 1.0 / (1.0 + np.arange(257.0))
_W = np.linspace(0.1, 1.0, 15)


def probe() -> float:
    """Seconds one run of the fixed kernel takes now.

    Four parts of about equal weight, like distprod's layers: a degree-256
    Chebyshev (Clenshaw) evaluation, a complex rational function, many
    operations on small arrays, and a batched 15-point rule.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        acc += float(np.sum(chebval(_S, _CHEB)))
        for _ in range(6):
            z = _X + 0.1j
            v = np.polyval([1.0, 0.5, 0.25], z) / np.polyval([1.0, 0.0, 0.01], z)
            acc += float(np.sum(np.abs(v * np.exp(-_X * _X))))
        panels = np.column_stack([_X[:-1:30], _X[1::30]])
        for _ in range(40):
            split = panels[:, 1] - panels[:, 0] > 0.2
            mids = 0.5 * (panels[split, 0] + panels[split, 1])
            new = np.vstack([np.column_stack([panels[split, 0], mids]), panels[~split]])
            acc += float(np.sum(new[np.argsort(new[:, 0], kind="stable"), 1]))
        for _ in range(8):
            x = 0.5 * (panels[:, :1] + panels[:, 1:]) + _W[None, :]
            acc += float(np.sum(np.exp(-x * x) @ _W))
    if not np.isfinite(acc):
        raise ArithmeticError("speed probe produced a non-finite value")
    return time.perf_counter() - t0


class SpeedLog:
    """Probe samples taken between operations, and the factor for each operation."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -float("inf")

    def maybe_sample(self) -> int:
        """Sample if the last sample is stale; return the index of the latest one."""
        now = time.perf_counter()
        if now - self._last >= INTERVAL_S:
            self.samples.append(probe())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def finish(self):
        self.samples.append(probe())

    def factor(self, before: int) -> float:
        """NOMINAL_S / probe for an operation that ran after sample `before`."""
        return 2.0 * NOMINAL_S / (self.samples[before] + self.samples[before + 1])
