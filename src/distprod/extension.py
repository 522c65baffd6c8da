"""Continuations of divergent pairings by Taylor subtraction and counterterms.

When the naive product limit fails, the pairing still exists on test
functions whose derivatives through order p vanish at the origin.  The
continuation evaluated here is

    (product, phi) = (Tbar, phibar) + sum_{k <= p} c_k (delta^(k), phi),

where phibar(x) = phi(x) - omega(x) * sum_{k <= p} phi^(k)(0) x^k / k! is the
subtracted test function (omega a plateau cutoff, identically 1 near 0) and
the c_k are free constants: the entire ambiguity of the continuation is the
span of delta derivatives through order p.  Sign convention:
(delta^(k), phi) = (-1)^k phi^(k)(0).  Since (Tbar, phibar) does not depend
on c, it is paired once per phi, and every counterterm vector's value is that
one number plus its counterterm sum; ``nonuniqueness_scan`` tabulates the
family, and its discrepancy measures only the rounding of that addition.

phibar is evaluated by value only.  Its Taylor polynomial is phi.taylor(p),
taken once per subtracted function, and omega is exactly 1 on the plateau,
so there phibar is exactly phi minus its Taylor polynomial and phibar(0) = 0.

For products supported at the origin (every delta-derived catalog product)
the c = 0 value is genuinely independent of the cutoff geometry: changing
omega only alters the subtraction where the product's boundary value already
vanishes.  For divergent products with support off the origin a cutoff change
shifts the value by a counterterm, i.e. reparametrizes the same family; a
job report's ``omega_independence`` block measures that distinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import polynomial as npoly

from .pairing import (
    DEFAULT_SCHEDULE,
    DEFAULT_TOLERANCES,
    PairingResult,
    ProductExpression,
    Schedule,
    Tolerances,
    limit_pairing,
)
from .testfn import (
    PlateauCutoff,
    TestFunction,
    vanish_probe,
)


class ExtensionError(RuntimeError):
    """The subtracted pairing failed to converge; carries the PairingResult."""

    def __init__(self, message, pairing: PairingResult | None = None):
        super().__init__(message)
        self.pairing = pairing


class SubtractedFunction:
    """phi minus its cutoff-localized Taylor polynomial through order p.

    phibar(x) = phi(x) - omega(x) * T(x) with T(x) = sum_{k <= p} taylor[k]
    x^k, taylor = phi.taylor(p).  Evaluated by value: a scalar gives a
    float, an array an array.
    """

    def __init__(self, phi: TestFunction, omega: PlateauCutoff, p: int):
        if p < 0:
            raise ValueError("subtraction order must be >= 0")
        self.phi = phi
        self.omega = omega
        self.p = p
        self.taylor = phi.taylor(p)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        val = self.phi(x) - self.omega(x) * npoly.polyval(x, self.taylor)
        return float(val[0]) if scalar else val

    @property
    def sigma(self) -> float:
        """phi's width, which the schedule must resolve as for phi itself."""
        return self.phi.sigma

    def decay_radius(self, extra_degree: int = 0) -> float:
        """phi's radius, and at least past the cutoff's support, where phibar = phi."""
        return max(self.phi.decay_radius(extra_degree), self.omega.support + 1.0)


# ---------------------------------------------------------------------------
# extensions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extension:
    """A continuation: expression, subtraction order, counterterms, cutoff.

    subtract=False marks the degenerate case of an already convergent
    expression: no Taylor term is removed (the pairing exists as is) and the
    stated p only sizes the counterterm vector.
    """

    expr: ProductExpression
    p: int
    c: tuple[complex, ...]
    omega: PlateauCutoff
    subtract: bool = True

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(complex(v) for v in self.c))
        if self.p < 0:
            raise ValueError("subtraction order must be >= 0")
        if len(self.c) != self.p + 1:
            raise ValueError(
                f"need {self.p + 1} counterterms for order {self.p}, got {len(self.c)}"
            )

    @classmethod
    def minimal(cls, expr: ProductExpression, p: int,
                omega: PlateauCutoff | None = None,
                subtract: bool = True) -> "Extension":
        """The c = 0 representative of the continuation family."""
        return cls(expr, p, (0j,) * (p + 1), omega or PlateauCutoff(1.0, 2.0), subtract)

    def with_counterterms(self, c) -> "Extension":
        return replace(self, c=tuple(complex(v) for v in c))


@dataclass(frozen=True)
class ExtensionResult:
    value: complex
    tbar_phibar: complex
    counterterm_part: complex
    pairing: PairingResult


def counterterm_value(c, phi) -> complex:
    """sum_k c_k (delta^(k), phi) = sum_k c_k (-1)^k k! t_k, t = phi.taylor."""
    jet = phi.taylor(len(c))
    total = 0j
    for k, ck in enumerate(c):
        total += complex(ck) * (-1.0) ** k * (math.factorial(k) * float(jet[k]))
    return total


def extension_result(ext: Extension, phi: TestFunction,
                     pairing: PairingResult) -> ExtensionResult:
    """(Tbar, phibar) + counterterms, given the pairing (Tbar, phibar).

    `pairing` is ext.expr paired with the subtracted function (with phi
    itself when ext.subtract is False) and must have converged.  It does not
    depend on ext.c, so one pairing serves every counterterm vector.
    """
    if pairing.status != "converged" and ext.subtract:
        raise ExtensionError(
            f"subtracted pairing for {ext.expr.label!r} classified as "
            f"{pairing.status}; the declared order p={ext.p} is too small or the "
            "expression is outside scope",
            pairing,
        )
    if pairing.status != "converged":
        raise ExtensionError(
            f"pairing for {ext.expr.label!r} classified as {pairing.status}; it did "
            f"not diverge, so nothing was subtracted and the order p={ext.p} plays "
            "no part",
            pairing,
        )
    ct = counterterm_value(ext.c, phi)
    return ExtensionResult(pairing.value + ct, pairing.value, ct, pairing)


def evaluate_extension(ext: Extension, phi: TestFunction,
                       schedule: Schedule = DEFAULT_SCHEDULE,
                       tol: Tolerances = DEFAULT_TOLERANCES) -> ExtensionResult:
    """Evaluate (Tbar, phibar) + counterterms; the pairing must converge."""
    phibar = SubtractedFunction(phi, ext.omega, ext.p) if ext.subtract else phi
    return extension_result(ext, phi, limit_pairing(ext.expr, phibar, schedule, tol))


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorizationReport:
    lhs_value: complex | None
    rhs_value: complex | None
    lhs_status: str
    rhs_status: str
    difference: float | None
    tolerance: float
    ok: bool


def factorization_identity_check(expr: ProductExpression, kappa: int,
                                 psi: TestFunction,
                                 schedule: Schedule = DEFAULT_SCHEDULE,
                                 tol: Tolerances = DEFAULT_TOLERANCES,
                                 atol: float = 1e-7) -> FactorizationReport:
    """(T, x^(kappa+1) psi) versus (x^(kappa+1) T, psi).

    The left side pairs the expression with the probe x^(kappa+1)*psi; the
    right side moves the monomial into the expression's prefactor power.
    Either side failing to converge is reported via the status flags, not
    raised.
    """
    lhs = limit_pairing(expr, vanish_probe(kappa, psi), schedule, tol)
    rhs = limit_pairing(expr.with_extra_power(kappa + 1), psi, schedule, tol)
    diff = None
    ok = False
    if lhs.status == "converged" and rhs.status == "converged":
        diff = abs(lhs.value - rhs.value)
        ok = diff <= atol
    return FactorizationReport(lhs.value, rhs.value, lhs.status, rhs.status,
                               diff, atol, ok)


# ---------------------------------------------------------------------------
# the counterterm family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    c: tuple[complex, ...]
    phi_index: int
    value: complex
    offset: complex
    predicted: complex
    discrepancy: float
    ok: bool


@dataclass(frozen=True)
class NonuniquenessTable:
    rows: tuple[ScanRow, ...]

    @property
    def max_discrepancy(self) -> float:
        return max((r.discrepancy for r in self.rows), default=0.0)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.rows)


def nonuniqueness_scan(ext: Extension, c_grid, phis,
                       schedule: Schedule = DEFAULT_SCHEDULE,
                       tol: Tolerances = DEFAULT_TOLERANCES,
                       rtol: float = 1e-12) -> NonuniquenessTable:
    """Tabulate the continuation over a counterterm grid.

    For each test function the subtracted pairing is computed once (it does
    not depend on c), so each row's value is that pairing plus the row's
    counterterm sum.  The row's offset from the c = 0 row is compared with
    the predicted sum; the discrepancy measures only the rounding of
    (Tbar + ct) - Tbar, not the structure of the family, which holds by
    construction.
    """
    ext0 = ext.with_counterterms((0j,) * (ext.p + 1))
    base = [evaluate_extension(ext0, phi, schedule, tol) for phi in phis]
    rows = []
    for c in c_grid:
        c = tuple(complex(v) for v in c)
        if len(c) != ext.p + 1:
            raise ValueError(f"grid entry {c} has wrong length for p={ext.p}")
        for i, phi in enumerate(phis):
            predicted = counterterm_value(c, phi)
            value = extension_result(ext.with_counterterms(c), phi,
                                     base[i].pairing).value
            offset = value - base[i].value
            disc = abs(offset - predicted)
            rows.append(ScanRow(
                c, i, value, offset, predicted, disc,
                bool(disc <= rtol * (1.0 + abs(predicted))),
            ))
    return NonuniquenessTable(tuple(rows))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _cpair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def extension_report(ext: Extension, result: ExtensionResult) -> dict:
    return {
        "p": int(ext.p),
        "c": [_cpair(v) for v in ext.c],
        "omega": {"plateau": float(ext.omega.plateau),
                  "support": float(ext.omega.support)},
        "value": _cpair(result.value),
        "Tbar_phibar": _cpair(result.tbar_phibar),
        "counterterm_part": _cpair(result.counterterm_part),
    }
