"""Laurent polynomials of one complex variable with their only pole at z = 0.

Every representative the package builds (each catalog atom, each derivative
and each linear combination) has the form

    f(z) = z^-k * sum_j c_j z^j,

a rational function whose only possible pole is the origin.  It is stored as
the coefficient array c, lowest order first (the convention of
``numpy.polynomial.polynomial``), plus the pole order k >= 0.  Products, sums
and derivatives are exact bookkeeping on the float coefficients; a derivative
is the shift c_j -> (j - k) c_j with pole order k + 1.  The stored form keeps
c_0 != 0 whenever k > 0 (common powers of z are cancelled), so k is the true
order of the pole.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import polynomial as npoly


def _trim(c) -> np.ndarray:
    """Coerce to a complex coefficient array and drop trailing zeros."""
    c = np.atleast_1d(np.asarray(c, dtype=complex))
    if c.ndim != 1:
        raise ValueError("coefficient list must be one-dimensional")
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n].copy()


class RationalFunction:
    """Laurent polynomial z^-order * sum_j coeffs[j] z^j.

    Instances behave as immutable values: arithmetic returns new objects and
    no method mutates the stored coefficient array.  On construction stored
    leading zeros are cancelled against the pole order, and the zero function
    has order 0.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order: int = 0):
        c = _trim(coeffs)
        order = int(order)
        if order < 0:
            raise ValueError(f"pole order must be >= 0, got {order}")
        if len(c) == 1 and c[0] == 0.0:
            order = 0
        lead = 0
        while lead < order and c[lead] == 0.0:
            lead += 1
        self.coeffs = c[lead:]
        self.order = order - lead

    # -- evaluation ------------------------------------------------------

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        val = npoly.polyval(z, self.coeffs)
        if self.order:
            # z * ... * z: bitwise the Horner value of the monic z^order
            zk = z
            for _ in range(self.order - 1):
                zk = zk * z
            val = val / zk
        if val.ndim == 0:
            return complex(val)
        return val

    # -- calculus --------------------------------------------------------

    def deriv(self) -> "RationalFunction":
        """d/dz z^(j - k) = (j - k) z^(j - k - 1): a shift of the pole order."""
        shift = np.arange(len(self.coeffs)) - self.order
        return RationalFunction(shift * self.coeffs, self.order + 1)

    # -- arithmetic ------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(npoly.polymul(self.coeffs, other.coeffs),
                                    self.order + other.order)
        return RationalFunction(self.coeffs * complex(other), self.order)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RationalFunction):
            other = RationalFunction([complex(other)])
        k = max(self.order, other.order)
        return RationalFunction(npoly.polyadd(self._raised(k), other._raised(k)), k)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.coeffs, self.order)

    def __sub__(self, other):
        return self + (-other if isinstance(other, RationalFunction) else -complex(other))

    def _raised(self, k: int) -> np.ndarray:
        """Coefficients of the same function written over z^k, k >= order."""
        return np.concatenate((np.zeros(k - self.order, dtype=complex), self.coeffs))

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def top_power(self) -> int:
        """Highest power of z present (negative for a pure pole part)."""
        return len(self.coeffs) - 1 - self.order

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.order == other.order and np.array_equal(self.coeffs, other.coeffs)

    def __repr__(self):
        return f"RationalFunction(coeffs={self.coeffs.tolist()}, order={self.order})"
