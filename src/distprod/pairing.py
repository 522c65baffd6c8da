"""Smeared products at height y and their limits on the real axis.

The core objects are product expressions: an ordered list of boundary-value
pairs, each optionally carrying a monomial prefactor power.  ``pair_at_y``
integrates the product of regulated representatives against a test function
at one height; ``limit_pairing`` runs a geometric schedule of heights,
extrapolates, and classifies the outcome as converged / diverged /
inconclusive.  Divergent pairings get a fitted power law I(y) ~ A * y^-s.

Quadrature is a deterministic adaptive Gauss-Kronrod 7-15 scheme with forced
panel boundaries at +-10y around the origin, where all the regulator-scale
structure of the integrand lives.  Panels are refined in rounds (every panel
above its error share splits), and the final sum runs over panels sorted by
left endpoint, so results are bit-stable for a fixed configuration.

Extrapolation is a Richardson tableau on the geometric schedule: level j
removes the y^j error term.  Catalog products approach their limits with
integer-power error terms, so the diagonal converges rapidly; convergence is
declared only when the last three diagonal entries agree (real and imaginary
parts separately) and a second schedule with a different ratio lands on the
same value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import HyperfunctionPair, RegulatorError, catalog
from .testfn import REFERENCE_TEST_FUNCTIONS, TestFunction, vanish_probe

# Gauss-Kronrod 7-15 nodes and weights on [-1, 1] (QUADPACK dqk15).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])          # 15 nodes, ascending
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])
_WG_FULL = np.concatenate([_WG[:-1], _WG[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)

_MIN_PANEL_REL = 2.3e-16


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its target; carries the partial value."""

    def __init__(self, message, partial_value, error_estimate):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate


class InconclusivePairingError(RuntimeError):
    """A pairing could not be classified; carries the raw PairingResult."""

    def __init__(self, message, result):
        super().__init__(message)
        self.result = result


class NotExtendableError(RuntimeError):
    """No subtraction order up to the search cap makes the pairing converge."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Schedule:
    """Geometric height schedule y_k = y0 * ratio^k, k = 0 .. count-1.

    check_ratio drives the independent second schedule used to confirm that a
    converged value does not depend on the particular sequence y -> 0.
    """

    y0: float = 0.1
    ratio: float = 0.5
    count: int = 12
    check_ratio: float = 1.0 / 3.0

    def __post_init__(self):
        if not (self.y0 > 0.0 and math.isfinite(self.y0)):
            raise ValueError(f"y0 must be positive and finite, got {self.y0}")
        for name in ("ratio", "check_ratio"):
            r = getattr(self, name)
            if not 0.0 < r < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {r}")
        if self.ratio == self.check_ratio:
            raise ValueError("check_ratio must differ from ratio")
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")

    def heights(self, ratio: float | None = None) -> tuple[float, ...]:
        r = self.ratio if ratio is None else ratio
        return tuple(self.y0 * r**k for k in range(self.count))


@dataclass(frozen=True)
class Tolerances:
    quad_abs: float = 1e-10          # absolute quadrature target per pairing
    convergence: float = 1e-7        # tail agreement of Richardson diagonal
    schedule_factor: float = 10.0    # cross-schedule agreement, x convergence
    r2_min: float = 0.99             # power-law fit quality for "diverged"
    s_min: float = 0.1               # minimal divergence rate worth the name
    snap_window: float = 0.1         # |s - nearest integer| for coefficient snap

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"tolerance {name} must be finite, got {value}")
        for name in ("quad_abs", "convergence", "schedule_factor"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"tolerance {name} must be > 0, got {value}")

    @classmethod
    def from_convergence(cls, convergence: float) -> "Tolerances":
        """Scale the quadrature target along with the convergence tolerance."""
        return cls(quad_abs=max(convergence * 1e-3, 1e-13), convergence=convergence)


DEFAULT_SCHEDULE = Schedule()
DEFAULT_TOLERANCES = Tolerances()


# ---------------------------------------------------------------------------
# product expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductExpression:
    """Ordered factors with a nonnegative monomial prefactor power each.

    The pairing integrand is x^(sum of powers) * prod_i F_i^y(x) * phi(x);
    attaching the power to a slot rather than multiplying in an explicit
    monomial factor keeps the prefactor exact at finite y (the monomial
    catalog entry regulates x^r to Re((x+iy)^r), which differs from x^r at
    finite height for r >= 2, though the limits agree).
    """

    factors: tuple[HyperfunctionPair, ...]
    powers: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        powers = tuple(int(r) for r in self.powers) if self.powers else (0,) * len(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "powers", powers)
        if not factors:
            raise ValueError("a product needs at least one factor")
        if len(powers) != len(factors):
            raise ValueError("one prefactor power per factor required")
        if any(r < 0 for r in powers):
            raise ValueError("prefactor powers must be nonnegative")

    @property
    def total_power(self) -> int:
        return sum(self.powers)

    @property
    def label(self) -> str:
        """Canonical text form; parses back to an identical expression."""
        parts = []
        for pair, r in zip(self.factors, self.powers):
            parts.append(f"x^{r} * {pair.label}" if r else pair.label)
        return " * ".join(parts)

    def with_extra_power(self, k: int) -> "ProductExpression":
        """Raise the total monomial prefactor power by k (attached up front)."""
        if k < 0:
            raise ValueError("extra power must be nonnegative")
        powers = (self.powers[0] + k,) + self.powers[1:]
        return ProductExpression(self.factors, powers)

    def permuted(self, order) -> "ProductExpression":
        order = tuple(order)
        if sorted(order) != list(range(len(self.factors))):
            raise ValueError("order must be a permutation of factor indices")
        return ProductExpression(
            tuple(self.factors[i] for i in order),
            tuple(self.powers[i] for i in order),
        )

    def padded_with_unity(self, position: int = 0) -> "ProductExpression":
        factors = list(self.factors)
        powers = list(self.powers)
        factors.insert(position, catalog("one"))
        powers.insert(position, 0)
        return ProductExpression(tuple(factors), tuple(powers))

    def with_explicit_monomials(self) -> "ProductExpression":
        """Replace every attached power by an explicit monomial factor."""
        factors = []
        powers = []
        for pair, r in zip(self.factors, self.powers):
            if r:
                factors.append(catalog("monomial", r))
                powers.append(0)
            factors.append(pair)
            powers.append(0)
        return ProductExpression(tuple(factors), tuple(powers))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _panel_rule(f, panels: np.ndarray):
    """Apply the 7-15 rule to every (a, b) row of `panels` in one evaluation."""
    half = 0.5 * (panels[:, 1] - panels[:, 0])
    mid = 0.5 * (panels[:, 0] + panels[:, 1])
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    v = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
    resk = half * (v @ _WK)
    resg = half * (v[:, _GAUSS_IDX] @ _WG_FULL)
    rough = np.sum(np.abs(v), axis=1) * np.abs(half)
    return resk, np.abs(resk - resg), rough


def _adaptive_quadrature(f, points, epsabs: float, max_rounds: int = 60,
                         max_panels: int = 4000):
    """Deterministic adaptive refinement over initial panels between `points`.

    Every round splits all panels whose error exceeds an equal share of the
    target; the target is the max of `epsabs` and a round-off floor scaled to
    the integrand's total variation, so pairings whose magnitude blows up as
    y -> 0 degrade gracefully to full relative precision.
    """
    pts = np.asarray(sorted(points), dtype=float)
    panels = np.column_stack([pts[:-1], pts[1:]])
    vals, errs, roughs = _panel_rule(f, panels)
    for _ in range(max_rounds):
        scale = float(np.sum(roughs))
        target = max(epsabs, 2e-14 * scale)
        if float(np.sum(errs)) <= target:
            break
        thresh = target / (2.0 * len(panels))
        width_floor = _MIN_PANEL_REL * np.maximum(
            1.0, np.maximum(np.abs(panels[:, 0]), np.abs(panels[:, 1]))
        )
        split = (errs > thresh) & (panels[:, 1] - panels[:, 0] > width_floor)
        if not np.any(split) or len(panels) + np.count_nonzero(split) > max_panels:
            order = np.argsort(panels[:, 0], kind="stable")
            raise QuadratureError(
                f"quadrature stalled at error {float(np.sum(errs)):.3e} "
                f"(target {target:.3e}, {len(panels)} panels)",
                complex(np.sum(vals[order])),
                float(np.sum(errs)),
            )
        keep = panels[~split]
        mids = 0.5 * (panels[split, 0] + panels[split, 1])
        lo = np.column_stack([panels[split, 0], mids])
        hi = np.column_stack([mids, panels[split, 1]])
        new = np.vstack([lo, hi])
        nvals, nerrs, nroughs = _panel_rule(f, new)
        panels = np.vstack([keep, new])
        vals = np.concatenate([vals[~split], nvals])
        errs = np.concatenate([errs[~split], nerrs])
        roughs = np.concatenate([roughs[~split], nroughs])
    order = np.argsort(panels[:, 0], kind="stable")
    return complex(np.sum(vals[order])), float(np.sum(errs))


def _integrand(expr: ProductExpression, phi, y: float):
    def f(x):
        x = np.asarray(x, dtype=float)
        v = expr.factors[0].regulated(x, y)
        for pair in expr.factors[1:]:
            v = v * pair.regulated(x, y)
        r = expr.total_power
        if r:
            v = v * x**r
        return v * phi(x)

    return f


def _integration_radius(f, phi, y: float) -> float:
    decay = getattr(phi, "decay_radius", None)
    L = max(decay() if callable(decay) else 12.0, 2.0, 20.0 * y)
    probe = np.concatenate([
        np.linspace(-L, L, 65),
        np.array([0.5, 1.0, 2.0, 5.0]) * y,
        np.array([-0.5, -1.0, -2.0, -5.0]) * y,
    ])
    ref = float(np.max(np.abs(f(probe)))) + 1e-300
    while L < 1e6:
        tail = np.array([1.0, 1.2, 1.5, 1.9]) * L
        t = float(np.max(np.abs(f(np.concatenate([tail, -tail])))))
        if t <= 1e-22 * ref:
            break
        L *= 2.0
    return L


def pair_at_y(expr: ProductExpression, phi, y: float,
              tol: Tolerances = DEFAULT_TOLERANCES) -> complex:
    """Integrate x^R * prod F_i^y * phi over the line at a single height y.

    phi may be a TestFunction, a Taylor-subtracted function, or any callable
    of a float array; an optional decay_radius() method bounds the domain.
    """
    y = float(y)
    if not (y > 0.0 and math.isfinite(y)):
        raise RegulatorError(f"height must satisfy 0 < y < inf, got {y}")
    f = _integrand(expr, phi, y)
    L = _integration_radius(f, phi, y)
    pts = {-L, -1.0, -10.0 * y, 0.0, 10.0 * y, 1.0, L}
    pts = sorted(p for p in pts if -L <= p <= L)
    value, _ = _adaptive_quadrature(f, pts, tol.quad_abs)
    return value


# ---------------------------------------------------------------------------
# extrapolation and classification
# ---------------------------------------------------------------------------


def _richardson_diagonal(values, ratio: float) -> list[complex]:
    """Diagonal of the Richardson tableau for a geometric schedule.

    Level j removes the y^j error term; diag[j] uses the j+1 smallest
    heights.  Works for any value type supporting complex arithmetic.
    """
    row = [complex(v) for v in values]
    diag = [row[-1]]
    for j in range(1, len(row)):
        rj = ratio**j
        row = [(row[i + 1] - rj * row[i]) / (1.0 - rj) for i in range(len(row) - 1)]
        diag.append(row[-1])
    return diag


def _tail_stable(diag, atol: float) -> bool:
    if len(diag) < 3:
        return False
    a, b, c = diag[-3], diag[-2], diag[-1]
    return (
        abs(b.real - c.real) <= atol
        and abs(b.imag - c.imag) <= atol
        and abs(a.real - b.real) <= atol
        and abs(a.imag - b.imag) <= atol
    )


def _loglog_fit(ys, mags):
    """OLS fit of log|I| vs log y: slope, stderr(slope), R^2."""
    x = np.log(np.asarray(ys))
    v = np.log(np.asarray(mags))
    n = len(x)
    xbar = np.mean(x)
    vbar = np.mean(v)
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (v - vbar)) / sxx)
    intercept = vbar - slope * xbar
    resid = v - (intercept + slope * x)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((v - vbar) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 0.0
    se = math.sqrt(ss_res / (n - 2) / sxx) if n > 2 else math.inf
    return slope, se, r2


@dataclass(frozen=True)
class PairingResult:
    """Outcome of a y -> 0 pairing schedule.

    value is the extrapolated limit (converged only); s, s_ci, leading_coeff
    describe the fitted power law I(y) ~ leading_coeff * y^-s (diverged only);
    check_value is the second-schedule extrapolation when one was run.
    """

    y_values: tuple[float, ...]
    integrals: tuple[complex, ...]
    status: str
    value: complex | None = None
    s: float | None = None
    s_ci: tuple[float, float] | None = None
    leading_coeff: complex | None = None
    check_value: complex | None = None

    def to_json_dict(self) -> dict:
        return {
            "y": [float(y) for y in self.y_values],
            "I_re": [float(v.real) for v in self.integrals],
            "I_im": [float(v.imag) for v in self.integrals],
            "status": self.status,
            "value": None if self.value is None
                     else [float(self.value.real), float(self.value.imag)],
            "s": None if self.s is None else float(self.s),
            "s_ci": None if self.s_ci is None
                    else [float(self.s_ci[0]), float(self.s_ci[1])],
        }


def _evaluate_schedule(expr, phi, ys, tol) -> tuple[tuple, tuple]:
    """Pair at each height, truncating where the quadrature gives out."""
    integrals = []
    for k, y in enumerate(ys):
        try:
            integrals.append(pair_at_y(expr, phi, y, tol))
        except QuadratureError:
            if k < 6:
                raise
            return tuple(ys[:k]), tuple(integrals)
    return tuple(ys), tuple(integrals)


def limit_pairing(expr: ProductExpression, phi,
                  schedule: Schedule = DEFAULT_SCHEDULE,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> PairingResult:
    """Run the height schedule, extrapolate, and classify the outcome.

    Converged requires the last three Richardson diagonal entries to agree
    within tol.convergence (real and imaginary parts separately) and a
    second schedule with ratio schedule.check_ratio to agree within
    tol.schedule_factor times that.  Diverged requires a log-log power-law
    fit with R^2 >= tol.r2_min and rate s > tol.s_min.  Everything else is
    inconclusive, which is a classification, not an error.

    Strongly divergent integrands eventually exhaust the quadrature budget
    as y shrinks; the schedule is then truncated at the first unresolvable
    height and classification runs on the prefix (at least six heights are
    required, otherwise the quadrature failure propagates).
    """
    ys, integrals = _evaluate_schedule(expr, phi, schedule.heights(), tol)
    diag = _richardson_diagonal(integrals, schedule.ratio)
    if _tail_stable(diag, tol.convergence):
        value = diag[-1]
        ys2, integrals2 = _evaluate_schedule(
            expr, phi, schedule.heights(schedule.check_ratio), tol)
        diag2 = _richardson_diagonal(integrals2, schedule.check_ratio)
        gap = tol.schedule_factor * tol.convergence
        if (abs(diag2[-1].real - value.real) <= gap
                and abs(diag2[-1].imag - value.imag) <= gap):
            return PairingResult(ys, integrals, "converged",
                                 value=value, check_value=diag2[-1])
        return PairingResult(ys, integrals, "inconclusive",
                             value=value, check_value=diag2[-1])
    mags = np.abs(np.asarray(integrals))
    usable = mags > 1e-280
    if np.count_nonzero(usable) >= 5:
        slope, se, r2 = _loglog_fit(np.asarray(ys)[usable], mags[usable])
        s = -slope
        if s > tol.s_min and r2 >= tol.r2_min:
            coeff = _leading_coefficient(ys, integrals, s, schedule.ratio,
                                         tol.snap_window)
            return PairingResult(
                ys, integrals, "diverged",
                s=s, s_ci=(s - 2.0 * se, s + 2.0 * se), leading_coeff=coeff,
            )
    return PairingResult(ys, integrals, "inconclusive")


def _leading_coefficient(ys, integrals, s: float, ratio: float,
                         snap_window: float) -> complex:
    """Coefficient A in I(y) ~ A y^-s.

    When s sits within snap_window of an integer the rate is snapped and A is
    Richardson-extrapolated from I_k * y_k^s_int (the residual corrections
    are again integer powers of y); otherwise A is read off the smallest
    height directly.
    """
    snapped = round(s)
    if snapped >= 1 and abs(s - snapped) <= snap_window:
        scaled = [i * y**snapped for y, i in zip(ys, integrals)]
        return _richardson_diagonal(scaled, ratio)[-1]
    return integrals[-1] * ys[-1] ** s


# ---------------------------------------------------------------------------
# derived classifiers
# ---------------------------------------------------------------------------

_REFERENCE_PHI = REFERENCE_TEST_FUNCTIONS["gauss"]
# An even phi is blind to products whose divergent part is odd (the integrand
# is exactly odd and I(y) is pure quadrature noise), so order determination
# classifies against an off-center function with no parity zeros.
_GENERIC_PHI = REFERENCE_TEST_FUNCTIONS["offset"]
_PROBE_BASES = ("gauss", "gauss_wide", "tilted")


def divergence_order(expr: ProductExpression,
                     schedule: Schedule = DEFAULT_SCHEDULE,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Fitted divergence rate s against the reference Gaussian; 0 if convergent."""
    result = limit_pairing(expr, _REFERENCE_PHI, schedule, tol)
    if result.status == "converged":
        return 0.0
    if result.status == "diverged":
        return float(result.s)
    raise InconclusivePairingError(
        f"pairing for {expr.label!r} is inconclusive", result
    )


@dataclass(frozen=True)
class SubtractionOrder:
    """Smallest workable Taylor order; needed=False means none was required."""

    p: int
    needed: bool


def subtraction_order(expr: ProductExpression, p_max: int = 6,
                      schedule: Schedule = DEFAULT_SCHEDULE,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> SubtractionOrder:
    """Determine the subtraction order by direct search.

    A candidate p qualifies when the expression with total prefactor power
    raised by p+1 converges against a parity-free reference function AND the
    unmodified expression converges against every order-p vanishing probe.
    Already convergent expressions return p=0 with needed=False.
    """
    if p_max < 0:
        raise ValueError("p_max must be >= 0")
    base = limit_pairing(expr, _GENERIC_PHI, schedule, tol)
    if base.status == "converged":
        return SubtractionOrder(0, needed=False)
    if base.status == "inconclusive":
        raise InconclusivePairingError(
            f"cannot classify {expr.label!r} before ordering subtraction", base
        )
    for p in range(p_max + 1):
        boosted = limit_pairing(expr.with_extra_power(p + 1), _GENERIC_PHI,
                                schedule, tol)
        if boosted.status != "converged":
            continue
        if all(
            limit_pairing(expr, vanish_probe(p, REFERENCE_TEST_FUNCTIONS[name]),
                          schedule, tol).status == "converged"
            for name in _PROBE_BASES
        ):
            return SubtractionOrder(p, needed=True)
    raise NotExtendableError(
        f"no subtraction order <= {p_max} tames {expr.label!r}"
    )


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingCheckReport:
    value_a: complex
    value_b: complex
    difference: float
    tolerance: float
    ok: bool


def ring_axiom_check(expr_a: ProductExpression, expr_b: ProductExpression,
                     phi, y: float, rtol: float = 1e-12,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> RingCheckReport:
    """Check that two arrangements of one factor multiset pair identically.

    The expressions must be permutations / unity-padded variants of the same
    multiset (compared by catalog label, ignoring unit factors) with equal
    total prefactor power; anything else is a usage error, not a failed check.
    """
    def signature(expr):
        return sorted(p.label for p in expr.factors if p.label != "1")

    if signature(expr_a) != signature(expr_b) or expr_a.total_power != expr_b.total_power:
        raise ValueError("expressions are not arrangements of the same multiset")
    va = pair_at_y(expr_a, phi, y, tol)
    vb = pair_at_y(expr_b, phi, y, tol)
    diff = abs(va - vb)
    bound = rtol * (1.0 + abs(va))
    return RingCheckReport(va, vb, diff, bound, bool(diff <= bound))
