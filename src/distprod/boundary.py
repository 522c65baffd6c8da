"""Distributions as boundary values of functions holomorphic off the real axis.

A distribution u is represented by a pair (f+, f-) of Laurent polynomials,
rational functions whose only pole is at z = 0; the regulated representative
at height y > 0 is

    F_y(x) = f+(x + iy) - f-(x - iy),

and u is the limit of F_y as y -> 0+ in the sense of distributions.  The
catalog below fixes one concrete pair per supported atom (delta, principal
value of 1/x, one-sided powers (x +- i0)^-k, monomials); derivatives and
linear combinations stay in the same class.

The growth exponents (alpha, beta) of a pair are read off its
representatives: away from the real axis F_y is bounded by
C * y^-alpha * (1 + |x|)^beta with alpha the highest pole order and beta the
highest power of z (at least 0).  ``verify_growth_bound`` fits the exponents
from samples and checks the bound; ``required_order`` converts exponents into
a sufficient distribution order for the product construction in one
dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ratfun import RationalFunction


class CatalogError(ValueError):
    """Unknown catalog atom or invalid atom parameter."""


class RegulatorError(ValueError):
    """Evaluation requested at a height y that is not a positive real number."""


@dataclass(frozen=True)
class HyperfunctionPair:
    """Pair of Laurent representatives (f+, f-)."""

    f_plus: RationalFunction
    f_minus: RationalFunction
    label: str = "pair"

    @property
    def alpha(self) -> int:
        """Growth exponent in 1/y: the highest pole order."""
        return max(self.f_plus.order, self.f_minus.order)

    @property
    def beta(self) -> int:
        """Growth exponent in |x|: the highest power of z, at least 0."""
        return max(0, self.f_plus.top_power, self.f_minus.top_power)

    def regulated(self, x, y: float):
        """F_y(x) = f+(x + iy) - f-(x - iy) for a single height y > 0."""
        y = float(y)
        if not (y > 0.0 and math.isfinite(y)):
            raise RegulatorError(f"height must satisfy 0 < y < inf, got {y}")
        x = np.asarray(x, dtype=float)
        return self.f_plus(x + 1j * y) - self.f_minus(x - 1j * y)

    def derivative(self) -> "HyperfunctionPair":
        """Differentiate both representatives."""
        return HyperfunctionPair(self.f_plus.deriv(), self.f_minus.deriv(),
                                 f"d({self.label})")


def combine(pairs, weights) -> HyperfunctionPair:
    """Linear combination of pairs."""
    pairs = list(pairs)
    weights = [complex(w) for w in weights]
    if len(pairs) != len(weights) or not pairs:
        raise ValueError("need equally many pairs and weights, at least one each")
    fp = pairs[0].f_plus * weights[0]
    fm = pairs[0].f_minus * weights[0]
    for p, w in zip(pairs[1:], weights[1:]):
        fp = fp + p.f_plus * w
        fm = fm + p.f_minus * w
    return HyperfunctionPair(fp, fm, "lin(" + ",".join(p.label for p in pairs) + ")")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_ZERO = RationalFunction([0.0])


def catalog(name: str, param: int | None = None) -> HyperfunctionPair:
    """Build a named atom.

    Supported names (param in parentheses where required):
        "delta"            Dirac delta
        "pv_inv_x"         principal value of 1/x
        "plus_i0_pow" (k)  (x + i0)^-k, k >= 1
        "minus_i0_pow" (k) (x - i0)^-k, k >= 1
        "monomial" (r)     x^r, r >= 0
        "one"              the constant 1
    """
    if name == "delta":
        _no_param(name, param)
        # delta = (i/2pi) * (1/(x+i0) - 1/(x-i0)); F_y is the Poisson kernel
        c = 1j / (2.0 * math.pi)
        return HyperfunctionPair(RationalFunction([c], 1), RationalFunction([c], 1), "delta")
    if name == "pv_inv_x":
        _no_param(name, param)
        return HyperfunctionPair(RationalFunction([0.5], 1), RationalFunction([-0.5], 1),
                                 "pv(1/x)")
    if name == "plus_i0_pow":
        k = _positive_param(name, param)
        return HyperfunctionPair(RationalFunction([1.0], k), _ZERO, f"(x+i0)^-{k}")
    if name == "minus_i0_pow":
        k = _positive_param(name, param)
        return HyperfunctionPair(_ZERO, RationalFunction([-1.0], k), f"(x-i0)^-{k}")
    if name == "monomial":
        if param is None or int(param) != param or param < 0:
            raise CatalogError(f"monomial requires an integer power >= 0, got {param!r}")
        r = int(param)
        half = RationalFunction((0.0,) * r + (0.5,))
        return HyperfunctionPair(half, -half, f"x^{r}" if r else "1")
    if name == "one":
        _no_param(name, param)
        return catalog("monomial", 0)
    raise CatalogError(f"unknown catalog atom {name!r}")


def _no_param(name, param):
    if param is not None:
        raise CatalogError(f"atom {name!r} takes no parameter, got {param!r}")


def _positive_param(name, param) -> int:
    if param is None or int(param) != param or param < 1:
        raise CatalogError(f"atom {name!r} requires an integer parameter >= 1, got {param!r}")
    return int(param)


# ---------------------------------------------------------------------------
# growth verification and the order bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Fitted growth model g(x, y) <= C * y^-alpha * (1 + |x|)^beta."""

    C: float
    alpha: float
    beta: float
    residual: float
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    ok: bool = field(default=False)


def verify_growth_bound(
    pair: HyperfunctionPair,
    x_range: tuple[float, float] = (-10.0, 10.0),
    y_range: tuple[float, float] = (1e-3, 1.0),
    tol: float = 0.02,
) -> GrowthReport:
    """Fit (C, alpha, beta) from samples of g(x,y) = |f+(x+iy)| + |f-(x-iy)|.

    alpha comes from the y-scaling of the on-axis column x = 0 (or the small-x
    column if the pair vanishes at the origin); beta from the |x|-scaling of
    the outer part of the x range at the smallest height.  C is then the
    smallest constant making the bound hold on a coarse grid, and the residual
    is the worst ratio g / (C model) on a finer validation grid: ok means the
    fitted bound survives refinement to within `tol`.
    """
    x0, x1 = float(x_range[0]), float(x_range[1])
    y0, y1 = float(y_range[0]), float(y_range[1])
    if not (0.0 < y0 < y1 and math.isfinite(y1)):
        raise ValueError(f"need 0 < y_min < y_max < inf, got {y_range}")
    if not x0 < x1:
        raise ValueError(f"need x_min < x_max, got {x_range}")

    def g(x, y):
        x = np.asarray(x, dtype=float)
        return np.abs(pair.f_plus(x + 1j * y)) + np.abs(pair.f_minus(x - 1j * y))

    # alpha: log-log slope in y at fixed small x
    ys = np.geomspace(y0, y1, 25)
    col = np.array([g(0.0, y) for y in ys], dtype=float)
    if np.max(col) <= 1e-280:
        col = np.array([g(0.3 * max(abs(x0), abs(x1)), y) for y in ys], dtype=float)
    alpha_fit = max(0.0, -_loglog_slope(ys, col))

    # beta: log-log slope in |x| on the outer part of the range, smallest y
    xm = max(abs(x0), abs(x1))
    xs = np.geomspace(xm / 4.0, xm, 17)
    row = g(xs, y0)
    beta_fit = max(0.0, _loglog_slope(xs, row))

    def model(x, y):
        return y ** (-alpha_fit) * (1.0 + np.abs(x)) ** beta_fit

    gx = np.linspace(x0, x1, 41)
    gy = np.geomspace(y0, y1, 21)
    C = 0.0
    for y in gy:
        C = max(C, float(np.max(g(gx, y) / model(gx, y))))

    vx = np.linspace(x0, x1, 163)
    vy = np.geomspace(y0, y1, 43)
    worst = 0.0
    if C > 0.0:  # C = 0 only for the zero pair, which meets every bound
        for y in vy:
            worst = max(worst, float(np.max(g(vx, y) / (C * model(vx, y)))))

    return GrowthReport(
        C=C,
        alpha=alpha_fit,
        beta=beta_fit,
        residual=worst,
        x_range=(x0, x1),
        y_range=(y0, y1),
        ok=bool(worst <= 1.0 + tol),
    )


def _loglog_slope(xs: np.ndarray, vals: np.ndarray) -> float:
    mask = vals > 1e-280
    if np.count_nonzero(mask) < 3:
        return 0.0
    slope = np.polyfit(np.log(xs[mask]), np.log(vals[mask]), 1)[0]
    return float(slope)


def required_order(alpha: float, beta: float) -> int:
    """Sufficient distribution order for growth exponents, one dimension.

    The regulated pairings are controlled by seminorms up to order
    ceil(alpha + beta) + 4, which is the 1-D instance of the general
    exponent-counting bound (growth alpha in y, beta in x, plus dimension
    plus a margin of three).
    """
    for v, n in ((alpha, "alpha"), (beta, "beta")):
        if not (v >= 0.0 and math.isfinite(v)):
            raise ValueError(f"{n} must be finite and >= 0, got {v}")
    total = alpha + beta
    snapped = round(total)
    if abs(total - snapped) < 1e-9:
        base = int(snapped)
    else:
        base = math.ceil(total)
    return base + 4
