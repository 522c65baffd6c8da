"""Schwartz test functions with exact derivatives and plateau cutoffs.

The working family is polynomial times Gaussian,

    phi(x) = p(x) * exp(-(x - mu)^2 / (2 sigma^2)),

which is closed under differentiation: each derivative replaces p by
p' - p*(x - mu)/sigma^2.  Keeping the polynomial in global-x coordinates means
the low coefficients stay *exactly* zero under differentiation, which is what
makes the high-order vanishing probes bitwise reliable.  phi(x, q) evaluates
the q-th derivative for q in 0..MAX_ORDER.

Cutoffs are C-infinity plateau functions built from the standard bump
exp(-1/(s(1-s))): identically 1 on [-a, a], identically 0 outside [-b, b],
with a smooth monotone transition in between, evaluated by value only.  The
transition profile is universal, so its antiderivative is interpolated once
(Chebyshev, degree 256) and shared by every cutoff instance.  That series
defines the values, but a cutoff evaluates a table built from it once: 64
equal pieces, each the antiderivative at its left end plus a degree-10
Chebyshev series.  Table and series agree to ~4e-16 in the cutoff, the
rounding floor of the series itself (it differs from a degree-512 series by
as much).
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
_PIECES = 64        # equal pieces of [0, 1] in the evaluation table
_PIECE_DEGREE = 10  # Chebyshev degree of the table on each piece


@lru_cache(maxsize=1)
def _transition_antiderivative():
    """Chebyshev antiderivative of the bump on [0, 1] and its total mass."""
    cheb = Chebyshev.interpolate(_bump, _CHEB_DEGREE, domain=[0.0, 1.0])
    anti = cheb.integ()
    anti = anti - anti(0.0)
    return anti, float(anti(1.0))


@lru_cache(maxsize=1)
def _transition_table():
    """The antiderivative above as _PIECES short Chebyshev series.

    Piece j covers [j, j + 1] / _PIECES.  Returns (left, coeffs, mass):
    left[j] is the antiderivative at the piece's left end, and coeffs[m, j]
    the m-th coefficient, in t in [-1, 1], of the rest.  The coefficients are
    a DCT (one matrix product) of the degree-256 series' values at the
    piece's Chebyshev points, so that series stays the definition of the
    values.
    """
    anti, mass = _transition_antiderivative()
    m = np.arange(_PIECE_DEGREE + 1)
    theta = np.pi * (m + 0.5) / (_PIECE_DEGREE + 1)
    dct = (2.0 / (_PIECE_DEGREE + 1)) * np.cos(np.outer(m, theta))
    dct[0] *= 0.5
    ends = np.arange(_PIECES) / _PIECES
    left = anti(ends)
    nodes = ends + (np.cos(theta)[:, None] + 1.0) / (2 * _PIECES)
    return left, dct @ (anti(nodes) - left), mass


def _bump(s: np.ndarray) -> np.ndarray:
    """The standard bump exp(-1/(s(1-s))) at interior points of (0, 1)."""
    return np.exp(-1.0 / (s * (1.0 - s)))


class PlateauCutoff:
    """Smooth even cutoff: 1 on [-plateau, plateau], 0 outside [-support, support].

    Evaluated by value.  The plateau and tail values are bitwise exact (the
    transition machinery is never evaluated there), so multiplying by the
    cutoff perturbs nothing on the plateau.
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

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        ax = np.abs(np.atleast_1d(x))
        out = np.zeros_like(ax)
        out[ax <= self.plateau] = 1.0
        trans = (ax > self.plateau) & (ax < self.support)
        if np.any(trans):
            out[trans] = self._transition((ax[trans] - self.plateau) / self._width)
        return float(out[0]) if scalar else out

    @staticmethod
    def _transition(s: np.ndarray) -> np.ndarray:
        """1 - (antiderivative of the bump at s) / mass, from the piecewise table."""
        left, coeffs, mass = _transition_table()
        u = s * _PIECES
        j = np.minimum(u.astype(np.intp), _PIECES - 1)
        t = 2.0 * (u - j) - 1.0
        t2 = 2.0 * t
        # Clenshaw on piece j, one gathered coefficient per step
        b1, b2 = coeffs[-1][j], 0.0
        for c in coeffs[-2:0:-1]:
            b1, b2 = t2 * b1 - b2 + c[j], b1
        rest = t * b1 - b2 + coeffs[0][j]
        return np.clip(1.0 - (left[j] + rest) / mass, 0.0, 1.0)
