"""Smeared products at height y and their limits on the real axis.

The core objects are product expressions: an ordered list of boundary-value
pairs, each optionally carrying a monomial prefactor power.  Their text form
lives here too: ``ProductExpression.label`` prints it and
``parse_expression`` reads it back.  ``pair_at_y``
integrates the product of regulated representatives against a test function
at one height; ``limit_pairing`` runs a geometric schedule of heights,
extrapolates, and classifies the outcome as converged / diverged /
inconclusive.  Divergent pairings get a fitted power law I(y) ~ A * y^-s.

Quadrature is a deterministic adaptive Gauss-Kronrod 7-15 scheme with forced
panel boundaries at +-10y around the origin, where all the regulator-scale
structure of the integrand lives.  Panels are refined in rounds (every panel
above its error share splits), and the final sum runs over panels sorted by
left endpoint, so results are bit-stable for a fixed configuration.

All heights of a schedule are integrated together, in lockstep rounds: each
round evaluates the new panels of every height still refining in one
integrand call, so the cost of a numpy call is paid per round, not per
height.  The leaf panels of the live heights are the rows of one packed
array, grouped by height in schedule order and sorted by left endpoint, so a
round's bookkeeping (error sums, split tests, halving) is a few vector
operations over all of them.  A round takes the longest prefix of the heights
whose panels in flight fit a fixed budget of 2048 panels (a height over it
goes alone), which bounds the memory of its integrand call; the heights past
it sit the round out.  A height's sums and splits read only its own rows and
its value is the sum of its rows in left order, so every I(y) is bitwise the
value that height gets on its own; ``pair_at_y`` is the one-height case.

Extrapolation is a Richardson tableau on the geometric schedule: level j
removes the y^j error term.  Catalog products approach their limits with
integer-power error terms, so the diagonal converges rapidly; convergence is
declared only when the last three diagonal entries agree (real and imaginary
parts separately) and a second schedule with a different ratio lands on the
same value.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .boundary import CatalogError, HyperfunctionPair, RegulatorError, catalog
from .testfn import REFERENCE_TEST_FUNCTIONS, vanish_probe

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
# Panels in flight over the heights refined together in one round: a
# height's rows, plus the parent of each pair of fresh halves.  It bounds the
# memory of a round's integrand call, not the work: a height over the budget
# on its own is refined alone.
_PANEL_BUDGET = 2048
# One height's caps: refinement rounds (the value is taken as it stands after
# the last), and panels (past them the height stalls).
_MAX_ROUNDS = 60
_MAX_PANELS = 4000


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its target; carries the partial value.

    Raised for a schedule, `height` is the index of the stalled height and
    `values` holds the values of the heights below it.
    """

    def __init__(self, message, partial_value, error_estimate):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate
        self.height = 0
        self.values = ()


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


# Ratio of the independent second schedule that confirms a converged value
# does not depend on the particular sequence y -> 0.
CHECK_RATIO = 1.0 / 3.0
# Cross-schedule agreement, in units of the convergence tolerance.
_SCHEDULE_FACTOR = 10.0
# Power-law fit quality and minimal rate for "diverged".
_R2_MIN = 0.99
_S_MIN = 0.1
# |s - nearest integer| within which the rate is snapped for the coefficient.
_SNAP_WINDOW = 0.1


@dataclass(frozen=True)
class Schedule:
    """Geometric height schedule y_k = y0 * ratio^k, k = 0 .. count-1."""

    y0: float = 0.1
    ratio: float = 0.5
    count: int = 12

    def __post_init__(self):
        if not (self.y0 > 0.0 and math.isfinite(self.y0)):
            raise ValueError(f"y0 must be positive and finite, got {self.y0}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.ratio == CHECK_RATIO:
            raise ValueError(f"ratio must differ from the check ratio {CHECK_RATIO}")
        if self.count < 2:
            raise ValueError(f"count must be >= 2, got {self.count}")

    def heights(self, ratio: float | None = None) -> tuple[float, ...]:
        r = self.ratio if ratio is None else ratio
        return tuple(self.y0 * r**k for k in range(self.count))


@dataclass(frozen=True)
class Tolerances:
    convergence: float = 1e-7        # tail agreement of Richardson diagonal

    def __post_init__(self):
        if not (self.convergence > 0.0 and math.isfinite(self.convergence)):
            raise ValueError(
                f"tolerance convergence must be finite and > 0, got {self.convergence}")

    @property
    def quad_abs(self) -> float:
        """Absolute quadrature target per pairing, scaled with convergence."""
        return max(self.convergence * 1e-3, 1e-13)


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


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------
#
# The text form that ProductExpression.label prints (whitespace-insensitive):
#
#     Expr := Term ('*' Term)*
#     Term := 'x^' INT | Atom
#     Atom := 'delta' | 'pv(1/x)' | '(x+i0)^-' INT | '(x-i0)^-' INT | '1'
#           | 'd(' Atom ')'
#
# An 'x^r' term folds into the prefactor power of the factor that follows it
# (consecutive powers accumulate); a trailing 'x^r' becomes a standalone
# monomial factor.  'd(...)' differentiates its atom.  Parse errors carry the
# byte offset of the offending token.


class ParseError(ValueError):
    """Expression syntax error with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_TOKEN_PATTERNS = (
    ("WS", re.compile(r"\s+")),
    ("STAR", re.compile(r"\*")),
    ("XPOW", re.compile(r"x\^(\d+)")),
    ("DELTA", re.compile(r"delta")),
    ("PV", re.compile(r"pv\(1/x\)")),
    ("PLUSI0", re.compile(r"\(x\+i0\)\^-(\d+)")),
    ("MINUSI0", re.compile(r"\(x-i0\)\^-(\d+)")),
    ("DOPEN", re.compile(r"d\(")),
    ("RPAREN", re.compile(r"\)")),
    ("ONE", re.compile(r"1")),
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: int | None
    offset: int


def _scan(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        for kind, pattern in _TOKEN_PATTERNS:
            m = pattern.match(text, i)
            if m:
                if kind != "WS":
                    value = int(m.group(1)) if m.groups() else None
                    tokens.append(_Token(kind, value, i))
                i = m.end()
                break
        else:
            raise ParseError(f"unrecognized input {text[i:i + 12]!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _scan(text)
        self.i = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of expression", len(self.text))
        self.i += 1
        return tok

    def parse(self) -> ProductExpression:
        factors: list[HyperfunctionPair] = []
        powers: list[int] = []
        pending = 0
        while True:
            tok = self._peek()
            if tok is None:
                raise ParseError("expected a factor", len(self.text))
            if tok.kind == "XPOW":
                self._next()
                pending += tok.value
            else:
                factors.append(self._atom())
                powers.append(pending)
                pending = 0
            nxt = self._peek()
            if nxt is None:
                break
            if nxt.kind != "STAR":
                raise ParseError("expected '*' between factors", nxt.offset)
            self._next()
        if pending:
            factors.append(catalog("monomial", pending))
            powers.append(0)
        return ProductExpression(tuple(factors), tuple(powers))

    def _atom(self) -> HyperfunctionPair:
        tok = self._next()
        try:
            if tok.kind == "DELTA":
                return catalog("delta")
            if tok.kind == "PV":
                return catalog("pv_inv_x")
            if tok.kind == "PLUSI0":
                return catalog("plus_i0_pow", tok.value)
            if tok.kind == "MINUSI0":
                return catalog("minus_i0_pow", tok.value)
            if tok.kind == "ONE":
                return catalog("one")
            if tok.kind == "DOPEN":
                inner = self._atom()
                closing = self._next()
                if closing.kind != "RPAREN":
                    raise ParseError("expected ')' after derivative atom", closing.offset)
                return inner.derivative()
        except CatalogError as exc:
            raise ParseError(str(exc), tok.offset) from exc
        raise ParseError(f"expected an atom, found {tok.kind}", tok.offset)


def parse_expression(text: str) -> ProductExpression:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


def _panel_rule(f, a: np.ndarray, b: np.ndarray, ys, sizes):
    """Apply the 7-15 rule to every panel [a[i], b[i]] in one evaluation.

    The panels come in blocks, one per height: the first sizes[0] are at
    height ys[0], the next sizes[1] at ys[1], and so on.  The weighted sums
    run block by block, because a matrix-vector product over more rows may
    round differently; each height's numbers are then the same whichever
    other heights share the call.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    v = np.asarray(f(x, np.repeat(ys, sizes)[:, None]), dtype=complex)
    vg = v[:, _GAUSS_IDX]
    sumk = np.empty(len(a), dtype=complex)
    sumg = np.empty(len(a), dtype=complex)
    start = 0
    for n in sizes:
        block = slice(start, start + n)
        sumk[block] = v[block] @ _WK
        sumg[block] = vg[block] @ _WG_FULL
        start += n
    resk = half * sumk
    resg = half * sumg
    rough = np.abs(v).sum(axis=1) * np.abs(half)
    return resk, np.abs(resk - resg), rough


# A leaf panel [a, b] under refinement: its rule value, error estimate and
# roughness (|f| summed over the nodes, times the half-width); `fresh` while
# it waits for the rule.
_LEAF = np.dtype([("a", float), ("b", float), ("value", complex), ("error", float),
                  ("rough", float), ("fresh", bool)], align=True)


def _over_share(rows, share) -> np.ndarray:
    """Rows whose error exceeds their share and that are wider than round-off."""
    a, b = rows["a"], rows["b"]
    width_floor = _MIN_PANEL_REL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return (rows["error"] > share) & (b - a > width_floor)


def _halved(rows, copies) -> np.ndarray:
    """Each row taken copies[i] times (0, 1 or 2), a row taken twice as its two
    fresh halves."""
    split = copies == 2
    mids = 0.5 * (rows["a"][split] + rows["b"][split])
    out = np.repeat(rows, copies)
    after = np.cumsum(copies)[split]
    out["b"][after - 2] = out["a"][after - 1] = mids
    out["fresh"][after - 2] = out["fresh"][after - 1] = True
    return out


def _leaf_sum(rows) -> complex:
    """The pairwise sum of the rows' values, in row order.

    Summed from a contiguous copy: numpy's pairwise sum over a strided view
    of the field may round differently.
    """
    return complex(np.ascontiguousarray(rows["value"]).sum())


def _adaptive_quadrature(f, ys, pointsets, epsabs: float) -> list[complex]:
    """Deterministic adaptive refinement of all heights of a schedule at once.

    Height k integrates f(., ys[k]) over initial panels between
    pointsets[k].  Every round splits all panels whose error exceeds an equal
    share of the target; the target is the max of `epsabs` and a round-off
    floor scaled to the integrand's total variation, so pairings whose
    magnitude blows up as y -> 0 degrade gracefully to full relative
    precision.  A height is done when its error meets the target or after
    _MAX_ROUNDS rounds, and stalls when no panel can split or splitting
    would pass _MAX_PANELS.

    The leaf panels of the live heights are the rows of one packed array,
    grouped by height in schedule order and sorted by left endpoint within a
    height.  A round takes the longest prefix of heights whose panels in
    flight fit _PANEL_BUDGET (a height over it on its own goes alone): its
    rows, plus the parent of each pair of fresh halves.  It evaluates the
    prefix's fresh rows in one `_panel_rule` call, and before it ends it
    replaces every row it marks by its two fresh halves and drops the rows
    of the heights that are done.  A height's sums and splits read its own
    rows only, and its value is the sum of its rows in left order, so every
    value is the one the height gets alone.

    When a height stalls, the heights above it are dropped and those below
    it finish; then the QuadratureError of the lowest stalled height is
    raised, with `height` its index and `values` the values below it.
    """
    ys = np.asarray(ys, dtype=float)
    pts = [np.asarray(sorted(points), dtype=float) for points in pointsets]
    live = np.arange(len(ys))          # live heights, in schedule order
    size = np.array([len(p) - 1 for p in pts])  # rows per live height
    fresh = size.copy()                # of them, rows waiting for the rule
    rounds = np.full_like(size, -1)    # refinement rounds; -1 before the first rule
    rows = np.zeros(size.sum(), _LEAF)
    rows["a"] = np.concatenate([p[:-1] for p in pts])
    rows["b"] = np.concatenate([p[1:] for p in pts])
    rows["fresh"] = True
    values: list = [None] * len(ys)
    failure = None
    while len(live):
        n = max(1, int(np.searchsorted(np.cumsum(size + fresh // 2), _PANEL_BUDGET, "right")))
        ends = np.cumsum(size[:n])
        starts = ends - size[:n]
        batch = rows[:ends[-1]]
        new = batch["fresh"]
        batch["value"][new], batch["error"][new], batch["rough"][new] = _panel_rule(
            f, batch["a"][new], batch["b"][new], ys[live[:n]], fresh[:n])
        batch["fresh"] = False
        rounds[:n] += 1
        error = np.add.reduceat(batch["error"], starts)
        target = np.maximum(epsabs, 2e-14 * np.add.reduceat(batch["rough"], starts))
        split = _over_share(batch, np.repeat(target / (2.0 * size[:n]), size[:n]))
        m = np.add.reduceat(split, starts)
        done = (rounds[:n] == _MAX_ROUNDS) | (error <= target)
        stalled = ~done & ((m == 0) | (size[:n] + m > _MAX_PANELS))

        # the lowest stall drops every height above it, in the batch or not
        stop = int(np.argmax(stalled)) if stalled.any() else n
        for i in np.flatnonzero(done[:stop]):
            values[live[i]] = _leaf_sum(batch[starts[i]:ends[i]])
        go = np.ones(len(live), dtype=bool)
        go[:n] = ~done
        if stop < n:
            failure = QuadratureError(
                f"quadrature stalled at error {error[stop]:.3e} "
                f"(target {target[stop]:.3e}, {size[stop]} panels)",
                _leaf_sum(batch[starts[stop]:ends[stop]]),
                float(error[stop]),
            )
            failure.height = int(live[stop])
            go[stop:] = False
        copies = np.repeat(go, size).astype(int)
        copies[:len(batch)] *= 1 + split
        rows = _halved(rows, copies)
        size[:n] += m
        fresh[:n] = 2 * m
        if not go.all():
            live, size, fresh, rounds = live[go], size[go], fresh[go], rounds[go]
    if failure is None:
        return values
    failure.values = tuple(values[:failure.height])
    try:
        raise failure
    finally:
        # the traceback holds this frame; drop the frame's reference back to
        # the error so that the frame's arrays go as soon as it is handled
        del failure


def _integrand(expr: ProductExpression, phi):
    """x^R * prod F_i^y(x) * phi(x) at points x, heights y broadcast against x."""
    def f(x, y):
        x = np.asarray(x, dtype=float)
        v = expr.factors[0].regulated(x, y)
        for pair in expr.factors[1:]:
            v = v * pair.regulated(x, y)
        r = expr.total_power
        if r:
            v = v * x**r
        return v * phi(x)

    return f


def _block_peaks(f, blocks, ys) -> np.ndarray:
    """max |f| over each block of points, block k at height ys[k], in one call."""
    sizes = [len(b) for b in blocks]
    values = np.abs(f(np.concatenate(blocks), np.repeat(ys, sizes)))
    return np.maximum.reduceat(values, np.cumsum([0] + sizes[:-1]))


def _integration_radius(f, phi, ys) -> list[float]:
    """Half-width L of the integration domain at every height.

    L starts past phi's decay radius and 20y and doubles, up to 1e6, until
    |f| on the tail points is below 1e-22 of its peak on a probe grid.  One
    call probes every height, then one call per doubling round covers the
    heights still doubling.
    """
    base = phi.decay_radius()
    radii = [max(base, 2.0, 20.0 * y) for y in ys]
    near = np.array([0.5, 1.0, 2.0, 5.0, -0.5, -1.0, -2.0, -5.0])
    probes = [np.concatenate([np.linspace(-L, L, 65), near * y])
              for y, L in zip(ys, radii)]
    refs = _block_peaks(f, probes, ys) + 1e-300
    live = [k for k in range(len(ys)) if radii[k] < 1e6]
    tail = np.array([1.0, 1.2, 1.5, 1.9, -1.0, -1.2, -1.5, -1.9])
    while live:
        peaks = _block_peaks(f, [tail * radii[k] for k in live], [ys[k] for k in live])
        still = []
        for k, t in zip(live, peaks):
            if t <= 1e-22 * refs[k]:
                continue
            radii[k] *= 2.0
            if radii[k] < 1e6:
                still.append(k)
        live = still
    return radii


def pair_at_y(expr: ProductExpression, phi, y: float,
              tol: Tolerances = DEFAULT_TOLERANCES) -> complex:
    """Integrate x^R * prod F_i^y * phi over the line at a single height y.

    phi is a TestFunction or a Taylor-subtracted function; its
    decay_radius() bounds the domain.
    This is the one-height case of a schedule.
    """
    return _evaluate_schedule(expr, phi, (y,), tol)[1][0]


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
    """Pair at all heights in one quadrature, truncating where it gives out.

    The first height k whose quadrature stalls ends the schedule: for k < 6
    its QuadratureError propagates, otherwise the heights before k are kept.
    """
    ys = tuple(float(y) for y in ys)
    for y in ys:
        if not (y > 0.0 and math.isfinite(y)):
            raise RegulatorError(f"height must satisfy 0 < y < inf, got {y}")
    f = _integrand(expr, phi)
    radii = _integration_radius(f, phi, ys)
    pointsets = [
        sorted(p for p in {-L, -1.0, -10.0 * y, 0.0, 10.0 * y, 1.0, L} if -L <= p <= L)
        for y, L in zip(ys, radii)
    ]
    try:
        integrals = _adaptive_quadrature(f, ys, pointsets, tol.quad_abs)
    except QuadratureError as exc:
        if exc.height < 6:
            raise
        return ys[:exc.height], exc.values
    return ys, tuple(integrals)


def require_resolved(phi, schedule: Schedule):
    """Raise ValueError if phi is narrower than the schedule's smallest height.

    No height resolves such a phi: each I(y) sees little more than its mass,
    and the extrapolated limit is confidently wrong (delta pairs to 0, not
    phi(0)).  phi is a TestFunction or a Taylor-subtracted function.
    """
    y_min = schedule.heights()[-1]
    if phi.sigma < y_min:
        raise ValueError(f"test function sigma {phi.sigma!r} is below the schedule's "
                         f"smallest height {y_min!r}")


def limit_pairing(expr: ProductExpression, phi,
                  schedule: Schedule = DEFAULT_SCHEDULE,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> PairingResult:
    """Run the height schedule, extrapolate, and classify the outcome.

    Converged requires the last three Richardson diagonal entries to agree
    within tol.convergence (real and imaginary parts separately) and a
    second schedule with ratio CHECK_RATIO to agree within _SCHEDULE_FACTOR
    times that.  Diverged requires a log-log power-law fit with
    R^2 >= _R2_MIN and rate s > _S_MIN.  Everything else is
    inconclusive, which is a classification, not an error.

    Strongly divergent integrands eventually exhaust the quadrature budget
    as y shrinks; the schedule is then truncated at the first unresolvable
    height and classification runs on the prefix (at least six heights are
    required, otherwise the quadrature failure propagates).

    A phi narrower than the smallest height is refused first, with the
    ValueError of ``require_resolved``.
    """
    require_resolved(phi, schedule)
    ys, integrals = _evaluate_schedule(expr, phi, schedule.heights(), tol)
    diag = _richardson_diagonal(integrals, schedule.ratio)
    if _tail_stable(diag, tol.convergence):
        value = diag[-1]
        ys2, integrals2 = _evaluate_schedule(
            expr, phi, schedule.heights(CHECK_RATIO), tol)
        diag2 = _richardson_diagonal(integrals2, CHECK_RATIO)
        gap = _SCHEDULE_FACTOR * tol.convergence
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
        if s > _S_MIN and r2 >= _R2_MIN:
            coeff = _leading_coefficient(ys, integrals, s, schedule.ratio)
            return PairingResult(
                ys, integrals, "diverged",
                s=s, s_ci=(s - 2.0 * se, s + 2.0 * se), leading_coeff=coeff,
            )
    return PairingResult(ys, integrals, "inconclusive")


def _leading_coefficient(ys, integrals, s: float, ratio: float) -> complex:
    """Coefficient A in I(y) ~ A y^-s.

    When s sits within _SNAP_WINDOW of an integer the rate is snapped and A is
    Richardson-extrapolated from I_k * y_k^s_int (the residual corrections
    are again integer powers of y); otherwise A is read off the smallest
    height directly.
    """
    snapped = round(s)
    if snapped >= 1 and abs(s - snapped) <= _SNAP_WINDOW:
        scaled = [i * y**snapped for y, i in zip(ys, integrals)]
        return _richardson_diagonal(scaled, ratio)[-1]
    return integrals[-1] * ys[-1] ** s


# ---------------------------------------------------------------------------
# derived classifiers
# ---------------------------------------------------------------------------

# An even phi is blind to products whose divergent part is odd (the integrand
# is exactly odd and I(y) is pure quadrature noise), so order determination
# classifies against an off-center function with no parity zeros.
_GENERIC_PHI = REFERENCE_TEST_FUNCTIONS["offset"]
_PROBE_BASES = ("gauss", "gauss_wide", "tilted")


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
