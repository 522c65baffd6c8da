"""Smeared products at height y and their limits on the real axis.

The products are ``expression.ProductExpression``s: what a product is before
any quadrature (its scaling degree, parity and side) and its text grammar
live in ``expression``, which imports no quadrature.  ``pair_at_y``
integrates the product of regulated representatives against a test function
at one height; ``limit_pairing`` runs a geometric schedule of heights,
extrapolates, and classifies the outcome as converged / diverged /
inconclusive.  Divergent pairings get a fitted power law I(y) ~ A * y^-s.
Exact zeros are classified first.  A kernel of one parity against a phi of
the other (``ProductExpression.vanishes_against``) makes the integrand odd,
so every I(y) is exactly 0 and the pairing converged to 0 with no
quadrature.  Otherwise, when every I(y) of both schedules is within its
quadrature target of 0, the pairing converged to 0.

Quadrature is a deterministic adaptive Gauss-Kronrod 7-15 scheme on [-L, L],
or on [0, L] for an even integrand, with forced panel boundaries at +-10y
around the origin, where all the regulator-scale structure of the integrand
lives, and at phi's ``breakpoints``, where phi stops being analytic.  When
the kernel and phi share a parity the integrand is exactly even, the twin of
the odd case that ``vanishes_against`` pairs with no quadrature: it runs on
[0, L] with phi doubled (``_folds``), each panel standing for itself and its
mirror image, so the refinement makes the decisions it makes on [-L, L] from
half the panels.  L comes from phi's closed-form decay at the integrand's
polynomial growth, with no integrand evaluated to find it.  Panels are
refined in rounds: every panel above its error share splits, at its
midpoint, or at its geometric mean when it lies on one side of 0 and spans
more than an octave.  The kernel's structure sits at the scale y, so
geometric cuts reach it from [10y, 1] in a few rounds, where bisection
spends one round per octave.  The final sum runs over panels sorted by left
endpoint, so results are bit-stable for a fixed configuration.

A same-side product, one whose every factor with a pole is a boundary value
from one side (``ProductExpression.side``, the wavefront test that
``converges_against`` reads), is paired with a TestFunction on the line
[-L, L] + i eta instead, eta = +sigma for the (+) side and -sigma for the (-)
side (``_line``), from initial panels mu + sigma * k on phi's scale: the
integrand shifts x to x + i eta once and computes there as on the real axis.
Its kernel is holomorphic on that side of the real axis and phi is entire, so
by Cauchy the value is the same integral, but for two end segments below
phi's decay floor; on the line the poles lie y + sigma away, so the integrand
is smooth on phi's scale at every height instead of carrying a 1/y^k spike.
phibar and the cutoff change are not analytic, and mixed-side and two-sided
kernels are not holomorphic off the axis: they stay on the real axis.

A batch is one expression against several test functions, one group per
schedule, each schedule a phi and its own heights; a phi's main and check
schedules sit next to each other.  All heights of a schedule, and all
schedules of a batch, are integrated together, in lockstep rounds: each
round evaluates the new panels of every height still refining together, in
integrand calls of at most _SLICE panels (which bound their memory), so the
cost of a numpy call is paid per round, not per height or per pairing.  The
leaf panels of the live heights are the rows of five plain columns, grouped
by schedule, then by height in schedule order, and sorted by left endpoint,
so a round's bookkeeping (error sums, split tests, cuts) is a few vector
operations over all of them; a schedule's initial panels arrive as the same
columns (``_initial_panels``).  Every row handed to the integrand carries
its height and its schedule's index, the one record of which schedule it
belongs to, so any slice of rows holds all a call needs: each row's line,
and the rows of each run of schedules sharing a phi, come from those
indices.  A call builds what its factors read of x + iy once (x + iy,
x - iy, or q = x^2 + y^2), evaluates each distinct factor of the expression
once over all rows, and multiplies each run's rows by its phi, evaluated
once over them; one contraction gives both rule sums of every panel.  A
quadrature runs on one kind of contour, the real axis or lines, so a batch
holding both runs one quadrature each.  A kernel whose value is real is
computed in real arithmetic from the factors through the rule: the
two-sided factors (delta and pv(1/x) as the Poisson and conjugate Poisson
kernels over q), and one-sided factors that balance, evaluated together as
C / q^k.  Every round refines every live height.  A panel's rule sums do
not depend on the other panels of the call, a height's sums and splits read
only its own rows, and its value is the sum of its rows in left order, so
every I(y) is bitwise the value that height gets on its own; ``pair_at_y``
is the one-height case.  A stall is its schedule's own: it cuts or refuses
that schedule and no other.

``limit_pairings`` classifies the pairings of one expression with several
phi from one such quadrature, and gives each phi exactly what
``limit_pairing``, its one-phi case, gives it alone.  A pairing whose
classification reads the check schedule, a second schedule of another ratio,
is one that converges, and ``ProductExpression.converges_against`` proves
that before any quadrature for most of them, from the scaling degree, the
side of the singular factors and the kernel's parity: those run their check
schedule beside their main one.  ``_classify`` alone decides which pairings
read it, and the few it leaves undecided, for want of a check schedule,
share a second quadrature.  A pairing proved to vanish runs no schedule.
``run_job`` batches its independent pairings this way, and
``subtraction_order`` its search, which runs on ``DEFAULT_SCHEDULE`` whatever
a job's schedule is: one batch up to the order that the scaling degree
bounds, then one per order.

Extrapolation is a Richardson tableau on the geometric schedule: level j
removes the y^j error term.  Catalog products approach their limits with
integer-power error terms, so the diagonal converges rapidly; convergence is
declared only when the last three diagonal entries agree (real and imaginary
parts separately, relative to the limit once it exceeds 1) and a second
schedule with a different ratio lands on the same value.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .boundary import HyperfunctionPair, Points, _checked_heights, _loglog_fit
from .expression import ProductExpression
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
# Both rules as rows of one weight matrix over the 15 nodes: Kronrod, then
# Gauss (its 7 nodes are every other one, 0 at the others).
_RULES = np.zeros((2, 15), dtype=complex)
_RULES[0] = np.concatenate([_WGK[:-1], _WGK[::-1]])
_RULES[1, 1::2] = np.concatenate([_WG[:-1], _WG[::-1]])

_MIN_PANEL_REL = 2.3e-16
# A one-sided panel whose far end is more than this many times its near end
# splits at its geometric mean, not its midpoint (see _cut).
_OCTAVE = 2.0
# One height's panel cap: past it the height stalls.
_MAX_PANELS = 4000
# Most panels one integrand call evaluates: a round's fresh rows are
# evaluated in slices of this many (see _panel_rule).
_SLICE = 2048
# Initial panel ends on a line Im z = +-sigma, mu + sigma * k (see _line):
# phi's scale is the integrand's there, at every height.
_LINE_GRID = (-13, -9, -6, -4, -3, -2, -1, 0, 1, 2, 3, 4, 6, 9, 13)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to meet its target.

    `height` is the index, in its schedule, of the height that stalled.
    """

    def __init__(self, message, height: int):
        super().__init__(message)
        self.height = height


class NotExtendableError(RuntimeError):
    """No subtraction order up to the search cap makes the pairing converge."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


# Ratio of the independent second schedule that confirms a converged value
# does not depend on the particular sequence y -> 0.
CHECK_RATIO = 1.0 / 3.0
# Fewest heights a pairing is classified on: a schedule must have as many,
# and a stall before that height is an error, not a truncation.  Fewer
# heights misread convergent pairings as inconclusive.
MIN_HEIGHTS = 6
# Cross-schedule agreement, in units of the convergence tolerance.
_SCHEDULE_FACTOR = 10.0
# Power-law fit quality and minimal rate for "diverged".
_R2_MIN = 0.99
_S_MIN = 0.1
# |s - nearest integer| within which the rate is snapped for the coefficient.
_SNAP_WINDOW = 0.1


@dataclass(frozen=True)
class Schedule:
    """Geometric height schedule y_k = y0 * ratio^k, k = 0 .. count-1.

    A count that takes the smallest height of this schedule or of its check
    schedule (ratio CHECK_RATIO) below the smallest normal double is refused
    here, before any height is built: such a height is subnormal or 0, and a
    count of 10^9 would otherwise build gigabytes of heights before a 0 among
    them was refused.  Since CHECK_RATIO < 1, no finite y0 allows a count
    much past 1300.
    """

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
        if self.count < MIN_HEIGHTS:
            raise ValueError(f"count must be >= {MIN_HEIGHTS}, got {self.count}")
        if (math.log(self.y0) + (self.count - 1) * math.log(min(self.ratio, CHECK_RATIO))
                < math.log(sys.float_info.min)):
            raise ValueError(f"count {self.count} takes the smallest height below the "
                             f"smallest normal double {sys.float_info.min!r}")

    def heights(self, ratio: float | None = None) -> tuple[float, ...]:
        r = self.ratio if ratio is None else ratio
        return tuple(self.y0 * r**k for k in range(self.count))


@dataclass(frozen=True)
class Tolerances:
    # tail agreement of the Richardson diagonal, relative to max(1, |limit|)
    convergence: float = 1e-7

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
# quadrature
# ---------------------------------------------------------------------------


def _panel_rule(f, a: np.ndarray, b: np.ndarray, y: np.ndarray, g: np.ndarray):
    """Apply the 7-15 rule to every panel [a[i], b[i]] at height y[i] in one evaluation.

    g[i] is the group of the integrand f that row i belongs to, the rows
    grouped in group order.  f's values are a float array for a real kernel
    and complex otherwise.  Both rule sums of every row come from one einsum
    contraction, which does not go through BLAS: each row's sums run over
    that row alone, in one order, so a row's numbers are the same whichever
    rows share the call.  A complex row is contracted with the complex
    rules, a float row with their real parts, the strided view
    ``_RULES.real``: einsum runs the sequential loop over it that the
    complex contraction runs, so a float row's value, error and roughness
    are bitwise those of the row as (r, +0), with a float value and at half
    the cost.  (A contiguous copy of the real rules takes numpy's vector
    loop, which rounds differently.)

    f is called on slices of at most _SLICE rows, each with its rows' y and
    g, so one call's memory is bounded whatever the number of rows; since
    every row is summed alone and phi acts point by point, the slicing
    changes no bit of the output.
    """
    n = len(a)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    rough = np.empty(n)
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        x = mid[lo:hi, None] + half[lo:hi, None] * _NODES
        v = f(x, y[lo:hi, None], g[lo:hi])
        if not lo:          # every slice of one integrand has the same dtype
            sums = np.empty((n, 2), dtype=v.dtype)
        np.einsum("ij,kj->ik", v, _RULES if v.dtype == complex else _RULES.real,
                  out=sums[lo:hi])
        np.abs(v).sum(axis=1, out=rough[lo:hi])
    sums *= half[:, None]
    rough *= np.abs(half)
    return sums[:, 0], np.abs(sums[:, 0] - sums[:, 1]), rough


def _cut(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The point at which each panel [a[i], b[i]] splits.

    A panel on one side of 0 whose near end is less than 1/_OCTAVE of its
    far end is cut at sign(a) * sqrt(|a|) * sqrt(|b|), its geometric mean,
    which halves its span in log |x|: the kernel's structure sits at the
    scale y, toward the near end, so a panel such as [10y, 1] reaches it in
    a few cuts, where bisection spends one round per octave.  Any other
    panel (one that touches 0, or spans less than an octave) is cut at its
    midpoint.  Either point lies strictly inside the panel, and neither
    overflows near the largest doubles.
    """
    graded = ((a > 0.0) & (_OCTAVE * a < b)) | ((b < 0.0) & (_OCTAVE * b > a))
    return np.where(graded, np.copysign(np.sqrt(np.abs(a)) * np.sqrt(np.abs(b)), a),
                    0.5 * (a + b))


def _adaptive_quadrature(f, ys, panels, epsabs: float) -> list:
    """Deterministic adaptive refinement of the heights of several schedules at once.

    Schedule g is group g of the integrand f (one group per schedule), at
    its own heights ys[g], from the initial panels panels[g], the columns
    (a, b, size, copies) of ``_initial_panels``: its height k integrates f's
    group g at ys[g][k] over the next size[k] rows [a, b], each of which
    stands for copies[k] panels (2 on a folded schedule: the row and its
    mirror image).  Every round splits all panels whose error exceeds an
    equal share of the target; the target is the max of `epsabs` and a
    round-off floor scaled to the integrand's total variation, so pairings
    whose magnitude blows up as y -> 0 degrade gracefully to full relative
    precision.  A height is done when its error meets the target, and
    stalls when no panel can split or splitting would pass _MAX_PANELS: a
    round that refines a height and leaves it neither done nor stalled
    splits one of its panels, so every height ends.  A folded row counts
    twice against _MAX_PANELS and in the stall message.  Its value, error
    and roughness are already those of both mirror panels (f doubles phi
    there) and its error share is that of two rows, so a folded height
    splits, finishes and stalls where it does on [-L, L], from half the
    rows.  Returns, per schedule, (values, targets, failure): each height's
    value and its target as it stood when the height was done (a value no
    larger than its target is indistinguishable from 0), and failure None,
    or the QuadratureError of the schedule's lowest stalled height, in which
    case values and targets cover the heights below it.

    The leaf panels of the live heights are the rows of five columns (a, b,
    value, error, roughness), grouped by schedule, then by height in
    schedule order, and sorted by left endpoint within a height, so each
    height's initial rows must be sorted.  Every round evaluates the fresh
    rows of every live height in one `_panel_rule` call, each row with its
    height's y and its schedule's group, scatters the results into their
    rows, tests the rows over their error share against the width floor,
    and builds the next round's rows: those of the heights that go on, each
    split row as its two fresh parts, cut where ``_cut`` cuts.  A height's
    sums and splits read its own rows only, and its value is the sum of its
    rows in left order, so every value is the one the height gets alone.

    A stall is a schedule's own: when a height stalls, the heights above it
    in its schedule are dropped and those below it finish; the other
    schedules run on.  Its QuadratureError names the height and its y.
    """
    groups = len(ys)
    counts = [len(heights) for heights in ys]
    first = np.cumsum([0, *counts])    # each schedule's first height in ys
    ys = np.concatenate([np.asarray(heights, dtype=float) for heights in ys])
    live = np.arange(len(ys))          # live heights, schedule by schedule
    group = np.repeat(np.arange(groups), counts)   # schedule of each live height
    # size: rows per live height; copies: the panels each of its rows stands for
    a, b, size, copies = (np.concatenate(column) for column in zip(*panels))
    fresh = size.copy()                # of them, rows waiting for the rule
    value, error, rough = np.empty(len(a), complex), np.empty(len(a)), np.empty(len(a))
    at = slice(None)                   # where the fresh rows sit
    values: list = [None] * len(ys)
    targets: list = [None] * len(ys)
    failures: list = [None] * groups
    while len(live):
        value[at], error[at], rough[at] = _panel_rule(
            f, a[at], b[at], ys[live].repeat(fresh), group.repeat(fresh))
        ends = size.cumsum()
        starts = ends - size
        total = np.add.reduceat(error, starts)
        target = np.maximum(epsabs, 2e-14 * np.add.reduceat(rough, starts))
        # the rows over their share that are wider than round-off split
        split = (error > (target / (2.0 * size)).repeat(size)).nonzero()[0]
        split = split[b[split] - a[split] > _MIN_PANEL_REL * np.maximum(
            1.0, np.maximum(np.abs(a[split]), np.abs(b[split])))]
        height = ends.searchsorted(split, "right")
        m = np.bincount(height, minlength=len(size))
        done = total <= target
        go = ~done
        # a stall drops the heights above it in its schedule
        for i in (go & ((m == 0) | (copies * (size + m) > _MAX_PANELS))).nonzero()[0]:
            if not go[i]:
                continue                       # above a lower stall of its schedule
            g = group[i]
            k = int(live[i] - first[g])
            failures[g] = QuadratureError(
                f"quadrature stalled at height {k} (y = {ys[live[i]]:g}): error "
                f"{total[i]:.3e} (target {target[i]:.3e}, {copies[i] * size[i]} panels)", k)
            above = slice(i, int(np.searchsorted(group, g, "right")))
            go[above] = done[above] = False
        for i in done.nonzero()[0]:
            values[live[i]] = complex(value[starts[i]:ends[i]].sum())
            targets[live[i]] = float(target[i])
        # the rows of the heights that go on, each split row as its two fresh
        # parts; `at` counts each row's copies, then locates the parts
        split = split[go[height]]
        at = go.repeat(size).astype(np.intp)
        at[split] = 2
        a, b, value, error, rough = (c.repeat(at) for c in (a, b, value, error, rough))
        at = (at.cumsum()[split] - 2).repeat(2)
        at[1::2] += 1
        b[at[0::2]] = a[at[1::2]] = _cut(a[at[0::2]], b[at[1::2]])
        live, group, copies = live[go], group[go], copies[go]
        size, fresh = size[go] + m[go], 2 * m[go]
    out = []
    for g, failure in enumerate(failures):
        lo = first[g]
        hi = lo + (counts[g] if failure is None else failure.height)
        out.append((tuple(values[lo:hi]), tuple(targets[lo:hi]), failure))
    return out


def _line(expr: ProductExpression, phi) -> float | None:
    """Im z of the line on which expr pairs with phi: +-phi.sigma, or None for the real axis.

    When every factor with a pole comes from one side (``ProductExpression.side``)
    the kernel is holomorphic on that side of the real axis, its poles at
    -+iy on the other, and a TestFunction phi is entire.  By Cauchy the
    integral over [-L, L] is then the one over [-L, L] + i eta, eta = +sigma
    for the (+) side and -sigma for the (-) side, but for the two end
    segments, where phi is below its decay floor.  On that line the poles lie
    y + sigma away, so the integrand is smooth on phi's scale at every
    height, where on the real axis it has a 1/y^k spike.  phibar and the
    cutoff change are not analytic (their cutoff is C-infinity only), so they
    stay on the real axis, as do mixed-side and two-sided kernels.
    """
    side = expr.side
    if side is None or not isinstance(phi, TestFunction):
        return None
    return phi.sigma if side == "+" else -phi.sigma


def _folds(expr: ProductExpression, phi, line) -> bool:
    """True when expr pairs with phi over [0, L] only, with phi doubled.

    On the real axis (line None), a kernel with a parity
    (``ProductExpression.parity``) against a phi of the same parity makes
    x^R * prod F_i^y * phi even, exactly, as ``vanishes_against`` reads the
    odd case: for a two-sided factor F_y(-x) = +-F_y(x) holds bit for bit,
    and the 7-15 nodes of a panel and of its mirror image are exact
    negatives.  So the integral over [-L, L] is twice the one over [0, L],
    0 is always a panel end there, and an even phi's breakpoints are
    symmetric: each panel of [0, L] stands for itself and its mirror image,
    whose rule sums differ from its own only in summation order.
    """
    parity = expr.parity
    return line is None and parity is not None and phi.parity == parity


def _integrand(expr: ProductExpression, phis, lines=None, folds=None):
    """The integrand x^R * prod F_i^y(x) * phi(x) of expr against each phi of phis.

    Each phi is one group, on its line lines[i] (``_line``; lines None puts
    all on the real axis), the lines all numbers or all None.  A group with
    folds[i] set (``_folds``; folds None sets none) is integrated over
    [0, L] for [-L, L], so its phi is doubled, exactly: each of its rows
    stands for itself and its mirror image.  The callable takes points x,
    heights y broadcast against x, and g: each row's group,
    the rows grouped in group order.  On lines it first shifts x to
    x + i eta, each row by its group's eta, and from there computes as on
    the real axis.  One ``Points`` builds x + iy, x - iy and
    q = x^2 + y^2 at most once each, and each distinct factor is evaluated
    once over all rows (delta^4 evaluates one Poisson kernel).  When the
    one-sided factors balance, P = M < 0 in ``ProductExpression.one_sided``,
    they are evaluated together as the float C / q^k, k = -P, with q^k a
    product of k factors q; such a product is not same-side, so it is on
    the real axis.  The values multiply in slot order, the balanced group
    last, so without a group the product is bitwise that of the
    ``regulated`` values.  A product of real factors
    (``HyperfunctionPair.is_real``, or a balanced group) stays a float
    array, through x^R and phi, and a one-sided factor or a line makes it
    complex.  Each run of adjacent groups that share one phi (a pairing's
    main and check schedules) then has its rows multiplied by that phi,
    evaluated once over them, and by 2 when the run folds.  Every value is
    computed point by point, so every row gets the bits it gets alone.  The heights are not checked
    here: ``_evaluate_schedules`` checks them once per batch.
    """
    C, P, M = expr.one_sided
    balanced = -P if P == M < 0 else 0   # the balanced group's power of 1/q
    C = C.real if C.imag == 0.0 else C
    distinct: list[HyperfunctionPair] = []
    slots = []
    for pair in expr.factors:
        if balanced and pair.side:
            continue
        if pair not in distinct:
            distinct.append(pair)
        slots.append(distinct.index(pair))
    if balanced:
        slots.append(len(distinct))     # the group's value follows the factors'
    r = expr.total_power
    etas = None if lines is None or lines[0] is None else np.array(lines)
    shared, doubled, run = [], [], []   # each run's phi and fold, and each group's run
    for phi, fold in zip(phis, folds or [False] * len(phis)):
        if not shared or phi is not shared[-1]:
            shared.append(phi)
            doubled.append(fold)
        run.append(len(shared) - 1)
    run = np.array(run)

    def f(x, y, g):
        if etas is not None:
            x = x + 1j * etas[g][:, None]
        points = Points(x, y)
        values = [pair.at(points) for pair in distinct]
        if balanced:
            power = points.q
            for _ in range(balanced - 1):
                power = power * points.q
            values.append(C / power)
        v = values[slots[0]]
        for k in slots[1:]:
            v = v * values[k]
        if r:
            v = v * points.x**r
        at = 0
        sizes = np.bincount(run[g], minlength=len(shared)).tolist()
        for phi, fold, size in zip(shared, doubled, sizes):
            if size:
                part = v[at:at + size]    # a view: multiplied in place
                part *= phi(points.x[at:at + size])
                if fold:
                    part *= 2.0           # exact: the row and its mirror image
                at += size
        return v

    return f


def _initial_panels(expr: ProductExpression, phi, ys, line, fold=False):
    """The initial panels of every height of a schedule, as columns (a, b, size, copies).

    Height k's size[k] panels are the next rows [a, b], between its sorted
    ends on its [-L, L], and copies[k] is the number of panels each row
    stands for.  The integrand grows like |x|^d times phi, with d the
    prefactor power plus each factor's growth exponent beta, so L is
    phi.decay_radius(d), computed once, and at least 2 and 20y; no
    integrand is evaluated.  On the real axis (line None) the ends are +-1, +-10y and
    0 around the origin, where all the regulator-scale structure of the
    integrand lives; on phi's line (``_line``) they are mu + sigma * k, k in
    _LINE_GRID, within (-L, L), the same at every height.  Both add +-L and
    phi's ``breakpoints`` within (-L, L), where phi stops being analytic.
    A schedule that folds (``_folds``) keeps the ends >= 0 only, on [0, L],
    and each of its rows stands for itself and its mirror image: copies 2.
    """
    base = phi.decay_radius(expr.total_power + sum(pair.beta for pair in expr.factors))
    grid = None if line is None else [phi.mu + phi.sigma * k for k in _LINE_GRID]
    a, b, size = [], [], []
    for y in ys:
        L = max(base, 2.0, 20.0 * y)
        lo = 0.0 if fold else -L
        inner = (-1.0, -10.0 * y, 0.0, 10.0 * y, 1.0) if line is None else grid
        ends = sorted({lo, L, *(t for t in (*inner, *phi.breakpoints) if lo < t < L)})
        a += ends[:-1]
        b += ends[1:]
        size.append(len(ends) - 1)
    return np.array(a), np.array(b), np.array(size), np.full(len(size), 2 if fold else 1)


def pair_at_y(expr: ProductExpression, phi, y: float) -> complex:
    """Integrate x^R * prod F_i^y * phi over the line at a single height y.

    phi is a TestFunction or a Taylor-subtracted function; the domain is
    [-L, L] with L from phi.decay_radius, given the integrand's polynomial
    growth (see _initial_panels), or the same integral on [-L, L] + i eta
    (see _line).  This is the one-height case of a schedule, with the
    quadrature target of ``DEFAULT_TOLERANCES``.
    """
    [outcome] = _evaluate_schedules(expr, [phi], [(y,)], DEFAULT_TOLERANCES)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[1][0]


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
    a, b, c = diag[-3], diag[-2], diag[-1]
    return (
        abs(b.real - c.real) <= atol
        and abs(b.imag - c.imag) <= atol
        and abs(a.real - b.real) <= atol
        and abs(a.imag - b.imag) <= atol
    )


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


def _evaluate_schedules(expr: ProductExpression, phis, heights, tol) -> list:
    """Pair expr with phis[i] at the heights heights[i], for every i.

    Each (phi, heights) is one schedule; a phi may have several.  A schedule
    runs on its phi's line (``_line``): a same-side product's against a
    TestFunction on Im z = +-sigma, every other on the real axis.  One
    quadrature runs the schedules on the real axis, then one those on lines,
    so no integrand call mixes the two.  Initial panels are those of
    ``_initial_panels``, ending at phi's ``breakpoints`` too.  A schedule on
    the real axis whose kernel and phi share a parity folds (``_folds``):
    it runs on [0, L], half the panels, with phi doubled, and gets the
    values, targets and stalls it gets on [-L, L] up to summation order.
    Returns, per schedule in order, its heights, their values and their
    quadrature targets, truncated where its quadrature gives out: the first
    height k whose quadrature stalls ends the schedule.  For k < MIN_HEIGHTS
    the entry is that QuadratureError instead; otherwise the heights before
    k are kept.
    """
    heights = [tuple(float(y) for y in ys) for ys in heights]
    _checked_heights([y for ys in heights for y in ys])
    lines = [_line(expr, phi) for phi in phis]
    folds = [_folds(expr, phi, line) for phi, line in zip(phis, lines)]
    outcomes: list = [None] * len(heights)
    for on_line in (False, True):
        kind = [i for i, line in enumerate(lines) if (line is not None) == on_line]
        if not kind:
            continue
        panels = [_initial_panels(expr, phis[i], heights[i], lines[i], folds[i]) for i in kind]
        # an overflowing kernel gives inf or NaN panels, which stall their
        # height: numpy's warnings about them would only be noise
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            quadrature = _adaptive_quadrature(
                _integrand(expr, [phis[i] for i in kind], [lines[i] for i in kind],
                           [folds[i] for i in kind]),
                [heights[i] for i in kind], panels, tol.quad_abs)
        for i, (values, targets, failure) in zip(kind, quadrature):
            outcomes[i] = (failure if failure is not None and failure.height < MIN_HEIGHTS
                           else (heights[i][:len(values)], values, targets))
    return outcomes


def _all_noise(integrals, targets) -> bool:
    """True when every value is within its quadrature target of 0."""
    return all(abs(v) <= t for v, t in zip(integrals, targets))


def limit_pairing(expr: ProductExpression, phi,
                  schedule: Schedule = DEFAULT_SCHEDULE,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> PairingResult:
    """Run the height schedule, extrapolate, and classify the outcome.

    Exact zeros come first.  When ``ProductExpression.vanishes_against``
    proves the integrand odd, every I(y_k) is exactly 0 and the pairing
    converged to 0; no quadrature runs.  When every I(y_k) of the schedule
    and of a second schedule with ratio CHECK_RATIO is within its quadrature
    target of 0, the pairing converged to 0 too.  Otherwise converged
    requires the last three Richardson diagonal entries to agree within
    tol.convergence times max(1, |last entry|) (real and imaginary parts
    separately) and the second schedule to agree within _SCHEDULE_FACTOR
    times that.  Diverged requires a log-log power-law fit with
    R^2 >= _R2_MIN and rate s > _S_MIN.  Everything else is inconclusive,
    which is a classification, not an error.

    Strongly divergent integrands eventually reach a height's panel cap
    (_MAX_PANELS) as y shrinks; the schedule is then truncated at the first
    unresolvable height and classification runs on the prefix (at least
    MIN_HEIGHTS heights are required, otherwise the quadrature failure
    propagates).

    A phi narrower than the smallest height is refused first with a
    ValueError, as ``limit_pairings`` refuses it.  This is the one-phi case
    of ``limit_pairings``.
    """
    [result] = limit_pairings(expr, [phi], schedule, tol)
    if isinstance(result, Exception):
        raise result
    return result


def limit_pairings(expr: ProductExpression, phis, schedule: Schedule = DEFAULT_SCHEDULE,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> list:
    """``limit_pairing`` of expr against every phi of phis, in one quadrature.

    The batch is refused first: the first phi, in order, whose sigma is
    below the schedule's smallest height raises a ValueError before anything
    is integrated, a proved zero included.  No height resolves such a phi:
    each I(y) sees little more than its mass, and the extrapolated limit is
    confidently wrong (delta pairs to 0, not phi(0)).  A phi that
    ``ProductExpression.vanishes_against`` proves then gets its exact 0 (the
    main heights, every I(y) 0j, converged to 0) and runs no schedule; a
    batch of only such phi runs no quadrature.  One lockstep quadrature runs
    the main schedule of every other phi and, next to it, the check schedule
    of every phi that ``ProductExpression.converges_against`` proves
    convergent, since its classification will read one.  The schedules'
    outcomes are kept by (phi index, heights), and ``_classify`` decides
    each phi from them once.  The phi it leaves undecided, whose main
    schedule reads a check schedule that did not run, share a second
    quadrature and are classified again; a check schedule that ran but is
    not read is ignored.  Every I(y) is bitwise the one its height gets
    alone, so each entry is exactly what ``limit_pairing`` gives that phi on
    its own: a PairingResult, or the QuadratureError it raises, returned,
    not raised.
    """
    phis = list(phis)
    main_ys, check_ys = schedule.heights(), schedule.heights(CHECK_RATIO)
    for phi in phis:
        if phi.sigma < main_ys[-1]:
            raise ValueError(f"test function sigma {phi.sigma!r} is below the schedule's "
                             f"smallest height {main_ys[-1]!r}")
    live = [i for i, phi in enumerate(phis) if not expr.vanishes_against(phi)]
    outcomes = _outcomes(expr, phis, [
        (i, ys) for i in live
        for ys in ((main_ys, check_ys) if expr.converges_against(phis[i]) else (main_ys,))], tol)

    def classify(i):
        return _classify(outcomes[i, main_ys], outcomes.get((i, check_ys)), schedule.ratio, tol)

    results = {i: classify(i) for i in live}
    missed = [i for i in live if results[i] is None]
    outcomes.update(_outcomes(expr, phis, [(i, check_ys) for i in missed], tol))
    results.update((i, classify(i)) for i in missed)
    zero = PairingResult(main_ys, (0j,) * len(main_ys), "converged", value=0j, check_value=0j)
    return [results.get(i, zero) for i in range(len(phis))]


def _outcomes(expr: ProductExpression, phis, keys, tol: Tolerances) -> dict:
    """Each (phi index, heights) of keys -> its ``_evaluate_schedules`` outcome.

    The schedules run in the order of keys; no keys run no quadrature.
    """
    if not keys:
        return {}
    indices, heights = zip(*keys)
    return dict(zip(keys, _evaluate_schedules(expr, [phis[i] for i in indices], heights, tol)))


def _classify(main, check, ratio: float, tol: Tolerances):
    """The classification that ``limit_pairing`` describes, decided here alone.

    main and check are the outcomes of the main schedule (ratio ratio) and
    of the check schedule (ratio CHECK_RATIO): each its (ys, values,
    targets) or its QuadratureError, and check None when the check schedule
    did not run.  The check schedule is read only when the main values are
    all noise or the main Richardson diagonal's tail is stable.  Returns the
    PairingResult; or the QuadratureError that decides the pairing, the main
    schedule's or else, where it is read, the check schedule's; or None when
    the main schedule reads a check schedule that did not run.
    """
    if isinstance(main, Exception):
        return main
    ys, integrals, targets = main
    diag = _richardson_diagonal(integrals, ratio)
    atol = tol.convergence * max(1.0, abs(diag[-1]))
    noise, stable = _all_noise(integrals, targets), _tail_stable(diag, atol)
    if noise or stable:
        if check is None:
            return None
        if isinstance(check, Exception):
            return check
    if noise and _all_noise(*check[1:]):
        return PairingResult(ys, integrals, "converged", value=0j, check_value=0j)
    if stable:
        value, other = diag[-1], _richardson_diagonal(check[1], CHECK_RATIO)[-1]
        gap = _SCHEDULE_FACTOR * atol
        agree = abs(other.real - value.real) <= gap and abs(other.imag - value.imag) <= gap
        return PairingResult(ys, integrals, "converged" if agree else "inconclusive",
                             value=value, check_value=other)
    mags = np.abs(np.asarray(integrals))
    usable = mags > 1e-280
    if np.count_nonzero(usable) >= 5:
        slope, se, r2 = _loglog_fit(np.asarray(ys)[usable], mags[usable])
        s = -slope
        if s > _S_MIN and r2 >= _R2_MIN:
            coeff = _leading_coefficient(ys, integrals, s, ratio)
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
# is exactly odd and every I(y) exactly 0), so the boosted check pairs
# x^(p+1) times an off-center function with no parity zeros.
_GENERIC_PHI = REFERENCE_TEST_FUNCTIONS["offset"]
_PROBE_BASES = ("gauss", "gauss_wide", "tilted")
# The subtraction-order search's cap: no order above it is tried.
_P_MAX = 6


def subtraction_order(expr: ProductExpression) -> int:
    """The smallest Taylor order p whose subtraction tames expr, by direct search.

    A candidate p qualifies when the expression converges against
    x^(p+1) times a parity-free reference function (the boosted check, the
    pairing of x^(p+1) T with that function) AND against every order-p
    vanishing probe.  Whether a phi needs subtracting at all is its own
    pairing's status; a convergent product gets 0, as its order-0 boosted
    check and probes all converge.

    The order is the expression's alone, not a job's: every pairing of the
    search runs at ``DEFAULT_TOLERANCES`` on ``DEFAULT_SCHEDULE``, looked up
    when the search runs, which resolves every reference function and probe.

    The entries are read in order, for each p its boosted check and then its
    three probes; the first entry that did not converge ends its order, and
    a QuadratureError met before it is raised.  Each test function's entry
    is kept once paired, and a read pairs the ones not yet paired in one
    ``limit_pairings`` batch.  The batches are sized by the a-priori bound
    p <= sd - 2 (``ProductExpression.scaling_degree``), capped at _P_MAX:
    the first holds the boosted check of every order up to the bound and
    the probes of the bound's order; an order below the bound whose boosted
    check converged pairs its probes alone, and an order past it pairs its
    boosted check with its probes.  The bound decides only what runs
    together, never the answer.
    """
    bound = min(_P_MAX, max(0, expr.scaling_degree - 2))
    paired = {}         # test function -> its limit_pairings entry

    def probes(p):
        return [vanish_probe(p, REFERENCE_TEST_FUNCTIONS[name]) for name in _PROBE_BASES]

    def read(*phis):
        fresh = [phi for phi in phis if phi not in paired]
        if fresh:
            paired.update(zip(fresh, limit_pairings(expr, fresh, DEFAULT_SCHEDULE)))
        return [paired[phi] for phi in phis]

    read(*(vanish_probe(p, _GENERIC_PHI) for p in range(bound + 1)), *probes(bound))
    for p in range(_P_MAX + 1):
        boosted, *_ = read(vanish_probe(p, _GENERIC_PHI), *(probes(p) if p > bound else ()))
        if _all_converged([boosted]) and _all_converged(read(*probes(p))):
            return p
    raise NotExtendableError(f"no subtraction order <= {_P_MAX} tames {expr.label!r}")


def _all_converged(results) -> bool:
    """True when every entry of ``limit_pairings`` converged.

    The batch has already refused any phi the schedule cannot resolve, so an
    entry is a PairingResult or a QuadratureError.  The entries are read in
    order, as pairings run one at a time would be: the first that did not
    converge makes it False, and a QuadratureError met before it is raised.
    """
    for result in results:
        if isinstance(result, Exception):
            raise result
        if result.status != "converged":
            return False
    return True


# ---------------------------------------------------------------------------
# ring structure
# ---------------------------------------------------------------------------


# The relative tolerance of ``ring_axiom_check``.
_RING_RTOL = 1e-12


@dataclass(frozen=True)
class RingCheckReport:
    value_a: complex
    value_b: complex
    difference: float
    tolerance: float
    ok: bool


def ring_axiom_check(expr_a: ProductExpression, expr_b: ProductExpression,
                     phi, y: float) -> RingCheckReport:
    """Check that two arrangements of one factor multiset pair identically.

    The two pairings at height y must agree within _RING_RTOL times
    1 + |first value|.  The expressions must be permutations / unity-padded
    variants of the same multiset (compared by catalog label, ignoring unit
    factors) with equal total prefactor power; anything else is a usage
    error, not a failed check.
    """
    def signature(expr):
        return sorted(p.label for p in expr.factors if p.label != "1")

    if signature(expr_a) != signature(expr_b) or expr_a.total_power != expr_b.total_power:
        raise ValueError("expressions are not arrangements of the same multiset")
    va = pair_at_y(expr_a, phi, y)
    vb = pair_at_y(expr_b, phi, y)
    diff = abs(va - vb)
    bound = _RING_RTOL * (1.0 + abs(va))
    return RingCheckReport(va, vb, diff, bound, bool(diff <= bound))
