"""Schwartz test functions with exact derivatives, plateau cutoffs, seminorms.

The working family is polynomial times Gaussian,

    phi(x) = p(x) * exp(-(x - mu)^2 / (2 sigma^2)),

which is closed under differentiation: each derivative replaces p by
p' - p*(x - mu)/sigma^2.  Keeping the polynomial in global-x coordinates means
the low coefficients stay *exactly* zero under differentiation, which is what
makes the high-order vanishing probes bitwise reliable.  phi(x, q) evaluates
the q-th derivative; every test function and cutoff serves the orders
0..MAX_ORDER.

Cutoffs are C-infinity plateau functions built from the standard bump
exp(-1/(s(1-s))): identically 1 on [-a, a], identically 0 outside [-b, b],
with a smooth monotone transition in between.  The transition profile is
universal, so its antiderivative is interpolated once (Chebyshev, degree 256,
accurate to ~1e-17) and shared by every cutoff instance.  Derivatives of the
transition are computed through the rational recurrence for derivatives of the
bump, not by differentiating the interpolant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from numpy.polynomial.chebyshev import Chebyshev


class OrderExceededError(ValueError):
    """A derivative of order above MAX_ORDER was requested."""


MAX_ORDER = 12  # highest derivative order a test function or cutoff serves


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Polynomial-times-Gaussian test function.

    Attributes:
        poly: coefficients of p, lowest order first, in global x (not x - mu).
        sigma: Gaussian width, > 0.
        mu: Gaussian centre.
    """

    __test__ = False  # not a pytest case, despite the name
    max_order = MAX_ORDER  # a class constant, not a field

    poly: tuple[float, ...]
    sigma: float
    mu: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "poly", tuple(float(c) for c in self.poly))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "mu", float(self.mu))
        if not self.poly:
            raise ValueError("empty coefficient list")
        if not all(math.isfinite(c) for c in self.poly):
            raise ValueError(f"poly coefficients must be finite, got {list(self.poly)}")
        if not math.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")

    def __call__(self, x, q: int = 0):
        """Evaluate the q-th derivative at x (scalar or array)."""
        c = self._coeffs(q)
        x = np.asarray(x, dtype=float)
        u = x - self.mu
        val = npoly.polyval(x, c) * np.exp(-(u * u) / (2.0 * self.sigma**2))
        if val.ndim == 0:
            return float(val)
        return val

    def _coeffs(self, q: int) -> tuple[float, ...]:
        if not 0 <= q <= MAX_ORDER:
            raise OrderExceededError(f"derivative order {q} outside [0, {MAX_ORDER}]")
        return _derived_poly(self.poly, self.sigma, self.mu, q)

    def decay_radius(self) -> float:
        """Radius beyond which the function is negligible at double precision."""
        return abs(self.mu) + self.sigma * (14.0 + 2.0 * len(self.poly))


@lru_cache(maxsize=4096)
def _derived_poly(poly: tuple, sigma: float, mu: float, q: int) -> tuple:
    if q == 0:
        return poly
    c = np.asarray(_derived_poly(poly, sigma, mu, q - 1), dtype=float)
    # d/dx [p e^g] = (p' + p g') e^g with g' = -(x - mu)/sigma^2
    gprime = np.array([mu / sigma**2, -1.0 / sigma**2])
    out = npoly.polyadd(npoly.polyder(c), npoly.polymul(c, gprime))
    return tuple(np.atleast_1d(out))


def vanish_probe(p: int, base: TestFunction) -> TestFunction:
    """x^(p+1) * base: all derivatives through order p vanish exactly at 0.

    The base must not itself vanish at the origin, otherwise the probe's
    (p+1)-st derivative is degenerate there too and the probe proves nothing.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if base(0.0) == 0.0:
        raise ValueError("base test function must be nonzero at the origin")
    return TestFunction((0.0,) * (p + 1) + base.poly, base.sigma, base.mu)


REFERENCE_TEST_FUNCTIONS: dict[str, TestFunction] = {
    "gauss": TestFunction((1.0,), sigma=math.sqrt(0.5)),          # exp(-x^2)
    "gauss_wide": TestFunction((1.0,), sigma=2.0),
    "tilted": TestFunction((1.0, 1.0, 0.25), sigma=1.0),
    "offset": TestFunction((1.0, -0.5), sigma=1.0, mu=0.7),
}


# ---------------------------------------------------------------------------
# plateau cutoffs
# ---------------------------------------------------------------------------

_CHEB_DEGREE = 256


@lru_cache(maxsize=1)
def _transition_antiderivative():
    """Chebyshev antiderivative of the bump on [0, 1] and its total mass."""
    # the Chebyshev points are interior, where the bump is its order-0 value
    cheb = Chebyshev.interpolate(_bump_derivative_values, _CHEB_DEGREE,
                                 domain=[0.0, 1.0], args=(0,))
    anti = cheb.integ()
    anti = anti - anti(0.0)
    return anti, float(anti(1.0))


def _bump_derivative_values(sl: np.ndarray, n: int) -> np.ndarray:
    """(d/ds)^n of the bump at interior points, by Leibniz recursion.

    With u(s) = -1/s - 1/(1-s) the bump is exp(u) and
    psi^(m+1) = sum_k C(m,k) u^(k+1) psi^(m-k) builds the derivative table
    directly on values.  (Expanded-coefficient forms of psi^(n)/psi cancel
    catastrophically on (0, 1) from n ~ 3 on, so polynomial routes are out.)
    """
    derivs = [np.exp(-1.0 / (sl * (1.0 - sl)))]
    u = [np.zeros_like(sl)]
    for k in range(1, n + 1):
        u.append(math.factorial(k) * (-(-1.0) ** k / sl ** (k + 1)
                                      - 1.0 / (1.0 - sl) ** (k + 1)))
    for m in range(n):
        acc = np.zeros_like(sl)
        for k in range(m + 1):
            acc += math.comb(m, k) * u[k + 1] * derivs[m - k]
        derivs.append(acc)
    return derivs[n]


class PlateauCutoff:
    """Smooth even cutoff: 1 on [-plateau, plateau], 0 outside [-support, support].

    The plateau and tail values are bitwise exact (the transition machinery is
    never evaluated there), so multiplying by the cutoff perturbs nothing on
    the plateau, including all derivatives, which vanish identically there.
    """

    max_order = MAX_ORDER

    def __init__(self, plateau: float, support: float):
        plateau = float(plateau)
        support = float(support)
        if not (0.0 < plateau < support and math.isfinite(support)):
            raise ValueError(
                f"need 0 < plateau < support < inf, got plateau={plateau}, support={support}"
            )
        self.plateau = plateau
        self.support = support
        self._width = support - plateau

    def __call__(self, x, q: int = 0):
        if not 0 <= q <= MAX_ORDER:
            raise OrderExceededError(f"derivative order {q} outside [0, {MAX_ORDER}]")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        ax = np.abs(x)
        out = np.zeros_like(ax)
        if q == 0:
            out[ax <= self.plateau] = 1.0
        trans = (ax > self.plateau) & (ax < self.support)
        if np.any(trans):
            s = (ax[trans] - self.plateau) / self._width
            out[trans] = self._transition(s, q)
            if q % 2 == 1:
                neg = x[trans] < 0.0
                vals = out[trans]
                vals[neg] = -vals[neg]
                out[trans] = vals
        return float(out[0]) if scalar else out

    def _transition(self, s: np.ndarray, q: int) -> np.ndarray:
        anti, mass = _transition_antiderivative()
        if q == 0:
            return np.clip(1.0 - anti(s) / mass, 0.0, 1.0)
        # w^(q) = -(d/ds)^(q-1) bump(s) / mass, scaled by the chain rule
        expo = -1.0 / (s * (1.0 - s))
        out = np.zeros_like(s)
        live = expo > -200.0  # below this the bump is < 1e-86 and the term is noise
        if np.any(live):
            out[live] = _bump_derivative_values(s[live], q - 1)
        return -out / (mass * self._width**q)


# ---------------------------------------------------------------------------
# seminorms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeminormReport:
    """Table of sup-norm seminorms sup_x |x^k phi^(q)(x)| for k, q <= order."""

    order: int
    values: tuple[tuple[float, ...], ...]

    def entry(self, k: int, q: int) -> float:
        return self.values[k][q]

    @property
    def max_value(self) -> float:
        return max(max(row) for row in self.values)


def seminorm(phi: TestFunction, order: int, rtol: float = 1e-6) -> SeminormReport:
    """Estimate sup_x |x^k phi^(q)(x)| for all k, q up to `order`.

    Uses a nested refinement of a uniform grid on [-L, L] with L past the
    decay radius; entries are monotone under refinement, so the iteration
    stops once a doubling changes nothing to relative tolerance.
    """
    if order > MAX_ORDER:
        raise OrderExceededError(f"seminorm order {order} exceeds MAX_ORDER {MAX_ORDER}")
    L = max(phi.decay_radius(), 8.0)
    npts = 2001
    prev = None
    for _ in range(8):
        grid = np.linspace(-L, L, npts)
        table = np.empty((order + 1, order + 1))
        for q in range(order + 1):
            vals = np.abs(phi(grid, q))
            xk = np.ones_like(grid)
            for k in range(order + 1):
                table[k, q] = float(np.max(xk * vals))
                xk = xk * np.abs(grid)
        if prev is not None and np.all(table - prev <= rtol * np.maximum(table, 1e-300)):
            break
        prev = table
        npts = 2 * npts - 1
    return SeminormReport(order, tuple(tuple(row) for row in table))
