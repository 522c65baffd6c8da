"""Distributions as boundary values of functions holomorphic off the real axis.

A distribution u is represented by a pair (f+, f-) of single terms c * z^n,
whose only possible pole is at z = 0; the regulated representative at height
y > 0 is

    F_y(x) = f+(x + iy) - f-(x - iy),

and u is the limit of F_y as y -> 0+ in the sense of distributions.  The
catalog below fixes one concrete pair per supported atom (delta, principal
value of 1/x, one-sided powers (x +- i0)^-k, monomials); derivatives stay in
the same class.  Every two-sided atom and its derivatives has
f- = -conj(c+) z^n, so its F_y = 2 Re(c+ (x + iy)^n) is real, and is
evaluated in real arithmetic as a float.  delta and pv(1/x), the two-sided
atoms of power -1, are the Poisson and conjugate Poisson kernels
2 (Re c+ x + Im c+ y) / (x^2 + y^2), within a few ulp of the complex
formula; every other two-sided pair is bit for bit the real part of the
complex formula, whose imaginary part is 0, up to the sign of an exact
zero.  One-sided atoms give complex values.  ``Points`` holds what these
evaluations read of x + iy, each built once.  F_y extends to complex x:
a pairing integrated on a line Im z = eta instead of the real axis shifts
its points x to x + i eta, where a pair is f+(x + iy) - f-(x - iy) by the
complex formula.

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
from functools import cached_property

import numpy as np

from .ratfun import RationalFunction


class CatalogError(ValueError):
    """Unknown catalog atom or invalid atom parameter."""


class RegulatorError(ValueError):
    """Evaluation requested at a height y that is not a positive real number."""


class Points:
    """Points x + iy at heights y > 0, and what factors read of them.

    x is a real or complex array and y its heights, one for every x or an
    array broadcast against x.  z_plus = x + iy, z_minus = x - iy and
    q = x^2 + y^2 are each built on first use and then kept, so the factors
    of one evaluation build each of them once, and only those they read.
    A complex x is a point shifted off the real axis, onto a line
    Im z = eta; q is read on the real axis only.  The heights are not
    checked (see ``_checked_heights``).
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
        self.y = np.asarray(y, dtype=float)

    @cached_property
    def z_plus(self):
        return self.x + 1j * self.y

    @cached_property
    def z_minus(self):
        return self.x - 1j * self.y

    @cached_property
    def q(self):
        return self.x * self.x + self.y * self.y


def _checked_heights(y) -> np.ndarray:
    """y as a float array, once every height is a positive finite number.

    Raises RegulatorError naming the first height, in y's order, that is not.
    """
    y = np.asarray(y, dtype=float)
    ok = (y > 0.0) & (y < math.inf)
    if not ok.all():
        raise RegulatorError(f"height must satisfy 0 < y < inf, got {float(y[~ok][0])}")
    return y


@dataclass(frozen=True)
class HyperfunctionPair:
    """Pair of single-term representatives (f+, f-)."""

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
        return max(0, self.f_plus.power, self.f_minus.power)

    @property
    def parity(self) -> int | None:
        """+1 when F_y is even in x at every height, -1 when odd, None otherwise.

        With f+- = c+- z^n, F_y(-x) = (-1)^n (c+ (x - iy)^n - c- (x + iy)^n),
        which is s F_y(x) exactly when c- = -s (-1)^n c+.  The zero pair is even.
        """
        fp, fm = self.f_plus, self.f_minus
        if fp.is_zero and fm.is_zero:
            return 1
        if fp.is_zero or fm.is_zero or fp.power != fm.power:
            return None
        sign = (-1) ** fp.power
        if fm.coeff == -sign * fp.coeff:
            return 1
        if fm.coeff == sign * fp.coeff:
            return -1
        return None

    @cached_property
    def is_real(self) -> bool:
        """True when F_y is real at every height: f- = -conj(c+) z^n, both there.

        Then F_y = w + w with w = Re f+(x + iy).  numpy's complex product and
        quotient (Smith's method) are symmetric under conjugation and sign, so
        f-(x - iy) is -conj(f+(x + iy)) and f+ - f- is (w + w, 0), bit for bit
        up to the sign of a zero part: where a part of f+(x + iy) is an exact
        0, the two terms' zeros may carry either sign.
        """
        fp, fm = self.f_plus, self.f_minus
        return not fp.is_zero and fm == RationalFunction(-fp.coeff.conjugate(), fp.power)

    @cached_property
    def is_poisson(self) -> bool:
        """True when the pair ``is_real`` with power -1: delta, pv(1/x), their multiples.

        With c = c+ and q = x^2 + y^2, F_y = 2 Re(c / (x + iy)) is
        2 (Re c x + Im c y) / q: the Poisson kernel y / (pi q) for delta
        (c = i / 2pi) and the conjugate Poisson kernel x / q for pv(1/x)
        (c = 1/2).  ``at`` evaluates it so, in real arithmetic.
        """
        return self.f_plus.power == -1 and self.is_real

    @property
    def supported_at_origin(self) -> bool:
        """True when f+ = f-: delta, its derivatives and the zero pairs d(1), d(d(1)), ...

        Then F_y(x) = f(x + iy) - f(x - iy) is O(y) uniformly on compact sets
        away from 0, so the boundary value vanishes off the origin.
        """
        return self.f_plus == self.f_minus

    @property
    def side(self) -> str | None:
        """'+' for a boundary value from the upper half-plane alone (f- = 0),
        '-' from the lower one alone (f+ = 0), None when both terms are there."""
        if self.f_minus.is_zero and not self.f_plus.is_zero:
            return "+"
        if self.f_plus.is_zero and not self.f_minus.is_zero:
            return "-"
        return None

    def regulated(self, x, y):
        """F_y(x) = f+(x + iy) - f-(x - iy) at heights y > 0.

        y is one height for every x, or an array of heights broadcast
        against x, so one call can cover several heights.  Every height must be
        a positive finite number.  The value is ``at(Points(x, y))``: a float
        array for an ``is_real`` pair and complex otherwise.
        """
        return self.at(Points(x, _checked_heights(y)))

    def at(self, points: Points):
        """f+(x + iy) - f-(x - iy) at the ``Points`` x + iy, with no check on them.

        The core of ``regulated``, for a caller that has checked the heights
        and builds one ``Points`` for several factors.  A zero
        representative is not evaluated: its term is left out, which changes
        no value (at most the sign of a zero part).  At a real x, a pair
        that ``is_poisson`` is the float 2 (Re c x + Im c y) / q, a term
        whose coefficient is 0 left out, and any other pair that ``is_real``
        evaluates f+ alone and is the float w + w, w = Re f+(x + iy): bit
        for bit the real part of the complex formula, up to the sign of an
        exact zero.  Both shortcuts assume a real x, so at a complex x, on a
        line off the real axis, every pair takes the complex formula.  A
        pair reads z_minus only when its f- is there and, at a real x, it is
        not ``is_real``.
        """
        if points.x.dtype.kind != "c":
            if self.is_poisson:
                a, b = 2.0 * self.f_plus.coeff.real, 2.0 * self.f_plus.coeff.imag
                if not b:
                    return a * points.x / points.q
                if not a:
                    return b * points.y / points.q
                return (a * points.x + b * points.y) / points.q
            if self.is_real:
                w = self.f_plus(points.z_plus).real
                return w + w
        if self.f_minus.is_zero:
            return self.f_plus(points.z_plus)
        if self.f_plus.is_zero:
            return -self.f_minus(points.z_minus)
        return self.f_plus(points.z_plus) - self.f_minus(points.z_minus)

    def derivative(self) -> "HyperfunctionPair":
        """Differentiate both representatives."""
        return HyperfunctionPair(self.f_plus.deriv(), self.f_minus.deriv(),
                                 f"d({self.label})")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_ZERO = RationalFunction(0.0)


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
        return HyperfunctionPair(RationalFunction(c, -1), RationalFunction(c, -1), "delta")
    if name == "pv_inv_x":
        _no_param(name, param)
        return HyperfunctionPair(RationalFunction(0.5, -1), RationalFunction(-0.5, -1),
                                 "pv(1/x)")
    if name == "plus_i0_pow":
        k = _positive_param(name, param)
        return HyperfunctionPair(RationalFunction(1.0, -k), _ZERO, f"(x+i0)^-{k}")
    if name == "minus_i0_pow":
        k = _positive_param(name, param)
        return HyperfunctionPair(_ZERO, RationalFunction(-1.0, -k), f"(x-i0)^-{k}")
    if name == "monomial":
        if param is None or int(param) != param or param < 0:
            raise CatalogError(f"monomial requires an integer power >= 0, got {param!r}")
        r = int(param)
        half = RationalFunction(0.5, r)
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


# How far the validation grid's worst ratio g / (C model) may exceed 1.
_GROWTH_SLACK = 0.02
# The region the growth bound is fitted on: x in _GROWTH_X, y in _GROWTH_Y.
_GROWTH_X = (-10.0, 10.0)
_GROWTH_Y = (1e-3, 1.0)


@dataclass(frozen=True)
class GrowthReport:
    """Fitted growth model g(x, y) <= C * y^-alpha * (1 + |x|)^beta."""

    C: float
    alpha: float
    beta: float
    residual: float
    ok: bool = field(default=False)


def verify_growth_bound(pair: HyperfunctionPair) -> GrowthReport:
    """Fit (C, alpha, beta) from samples of g(x,y) = |f+(x+iy)| + |f-(x-iy)|.

    The samples lie in the fixed region x in _GROWTH_X, y in _GROWTH_Y.
    alpha comes from the y-scaling of the on-axis column x = 0 (or the small-x
    column if the pair vanishes at the origin); beta from the |x|-scaling of
    the outer part of the x range at the smallest height.  C is then the
    smallest constant making the bound hold on a coarse grid, and the residual
    is the worst ratio g / (C model) on a finer validation grid: ok means the
    fitted bound survives refinement to within _GROWTH_SLACK.
    """
    (x0, x1), (y0, y1) = _GROWTH_X, _GROWTH_Y

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
        ok=bool(worst <= 1.0 + _GROWTH_SLACK),
    )


def _loglog_slope(xs: np.ndarray, vals: np.ndarray) -> float:
    mask = vals > 1e-280
    if np.count_nonzero(mask) < 3:
        return 0.0
    return _loglog_fit(xs[mask], vals[mask])[0]


def _loglog_fit(xs, vals):
    """OLS fit of log vals vs log xs: slope, stderr(slope), R^2."""
    x = np.log(np.asarray(xs))
    v = np.log(np.asarray(vals))
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
