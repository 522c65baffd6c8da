"""Schwartz test functions, their Taylor jets at 0, and plateau cutoffs.

The working family is polynomial times Gaussian,

    phi(x) = p(x) * exp(-(x - mu)^2 / (2 sigma^2)),

evaluated by value, at real points or, since phi is entire, at complex
ones.  The continuations read phi's derivatives only at the origin:
phi.taylor(n) returns its Taylor coefficients there, to any order.  Its
Gaussian decay is known in closed form, so phi.decay_radius(d) gives the
half-width of the integration domain of x^d * phi without sampling it.
Keeping the polynomial in global-x coordinates means the low coefficients of
x^(p+1) * phi stay *exactly* zero, which is what makes the high-order
vanishing probes bitwise reliable.

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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.chebyshev import Chebyshev


MAX_ORDER = 12  # highest subtraction order a job may set
_DECAY_FLOOR = 1e-22  # share of its peak below which an integrand tail is dropped


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Polynomial-times-Gaussian test function.

    phi is entire: ``__call__`` evaluates it at real or complex points,
    the latter where a same-side pairing's line Im z = +-sigma runs.

    Attributes:
        poly: coefficients of p, lowest order first, in global x (not x - mu).
        sigma: Gaussian width, > 0.
        mu: Gaussian centre.
    """

    __test__ = False  # not a pytest case, despite the name

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
        # sigma^2 divides and scales throughout: it must neither overflow nor
        # underflow to a subnormal or 0
        if not sys.float_info.min <= self.sigma * self.sigma < math.inf:
            raise ValueError(f"sigma {self.sigma!r} has no finite, normal square")

    def __call__(self, x):
        """Evaluate at x (scalar or array): float arithmetic for a real x,
        the same formula in complex arithmetic for a complex one."""
        x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
        u = x - self.mu
        val = _polyval(x, self.poly) * np.exp(-(u * u) / (2.0 * self.sigma**2))
        if val.ndim == 0:
            return val.item()
        return val

    @property
    def vanishing_order(self) -> int:
        """m, the order of phi's zero at 0: its poly's leading zero coefficients."""
        return next((k for k, c in enumerate(self.poly) if c != 0.0), len(self.poly))

    @property
    def parity(self) -> int | None:
        """+1 for an even phi, -1 for an odd one, None otherwise.

        phi has a parity when mu = 0 and its poly's nonzero coefficients all
        have orders of one parity.
        """
        orders = {k % 2 for k, c in enumerate(self.poly) if c != 0.0}
        if self.mu != 0.0 or len(orders) > 1:
            return None
        return -1 if orders == {1} else 1

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Points where phi stops being analytic, made panel ends: none."""
        return ()

    def taylor(self, n: int) -> np.ndarray:
        """Taylor coefficients t_0..t_n of phi at 0, so phi^(k)(0) = k! t_k.

        The coefficients e_k of exp(a x + b x^2) obey
        (k+1) e_{k+1} = a e_k + 2b e_{k-1}; t is p convolved with e, times
        exp(-mu^2 / (2 sigma^2)).
        """
        a = self.mu / self.sigma**2
        b = -0.5 / self.sigma**2
        e = [1.0, a]
        for k in range(1, n):
            e.append((a * e[k] + 2.0 * b * e[k - 1]) / (k + 1))
        t = np.convolve(self.poly, e[:n + 1])[:n + 1]
        return t * np.exp(-(self.mu * self.mu) / (2.0 * self.sigma**2))

    def decay_radius(self, extra_degree: int = 0) -> float:
        """Radius beyond which |x|^extra_degree * phi is negligible.

        The larger of |mu| + sigma (14 + 2 len(poly)) and x* + T sigma.  x* is
        the peak of the envelope |x|^d exp(-(|x| - |mu|)^2 / (2 sigma^2)),
        d = len(poly) - 1 + extra_degree; past it the envelope's log is
        concave with second derivative <= -1/sigma^2, so from x* + T sigma
        on it is below _DECAY_FLOOR of its peak, T = sqrt(2 ln(1/_DECAY_FLOOR)).
        """
        d = len(self.poly) - 1 + extra_degree
        mu = abs(self.mu)
        peak = 0.5 * (mu + math.sqrt(mu * mu + 4.0 * d * self.sigma**2))
        return max(mu + self.sigma * (14.0 + 2.0 * len(self.poly)),
                   peak + math.sqrt(-2.0 * math.log(_DECAY_FLOOR)) * self.sigma)


def _polyval(x: np.ndarray, c) -> np.ndarray:
    """sum_j c[j] x^j by Horner's rule, bitwise numpy's ``polyval``.

    The same operations in the same order, from c[-1] + x * 0 (so the signs
    of zeros match too), but as in-place multiply-adds on one array: polyval
    allocates two arrays per coefficient.
    """
    acc = x * 0.0
    acc += c[-1]
    for coeff in c[-2::-1]:
        acc *= x
        acc += coeff
    return acc


def vanish_probe(p: int, base: TestFunction) -> TestFunction:
    """x^(p+1) * base: its Taylor coefficients through order p are exactly 0.

    The base must not itself vanish at the origin, otherwise the probe's
    coefficient of order p+1 is zero too and the probe proves nothing.
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

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """+-plateau and +-support: the cutoff is analytic everywhere else."""
        return (-self.support, -self.plateau, self.plateau, self.support)

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
        # Clenshaw on piece j, its coefficients gathered once for every point
        c = coeffs[:, j]
        b1, b2 = c[-1], 0.0
        for cm in c[-2:0:-1]:
            b1, b2 = t2 * b1 - b2 + cm, b1
        rest = t * b1 - b2 + c[0]
        # np.clip's values, without its overhead
        return np.minimum(np.maximum(1.0 - (left[j] + rest) / mass, 0.0), 1.0)


# The cutoff a job and ``extension.evaluate_extension`` use unless told otherwise.
DEFAULT_CUTOFF = PlateauCutoff(1.0, 2.0)
