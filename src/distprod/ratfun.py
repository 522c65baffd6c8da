"""Single terms c * z^n of one complex variable.

Every representative the package builds (each catalog atom and each
derivative of one) is a single term

    f(z) = c * z^n,

with a complex coefficient c and an integer power n; n < 0 is a pole of
order -n at the origin, the only pole there is.  A derivative is the exact
map (c, n) -> (n c, n - 1).  The zero function is c = 0 with n = 0.
"""

from __future__ import annotations

import numpy as np


def _power(z: np.ndarray, n: int) -> np.ndarray:
    """z^n for n >= 1 by repeated squaring, in about 2 log2(n) array products.

    The bits of n are read from the top, so z^2 is z * z and z^3 is
    (z * z) * z, bit for bit the chain of n - 1 products in that order
    (numpy's complex product is not bitwise commutative).
    """
    val = z
    for bit in bin(n)[3:]:
        val = val * val
        if bit == "1":
            val = val * z
    return val


class RationalFunction:
    """Single term coeff * z^power, an immutable value."""

    __slots__ = ("coeff", "power")

    def __init__(self, coeff, power: int = 0):
        self.coeff = complex(coeff)
        self.power = int(power) if self.coeff != 0.0 else 0

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        n = self.power
        if n > 0:
            val = self.coeff * _power(z, n)
        elif n < 0:
            # c / z^|n|, not c * z**n: reports are byte-stable only while the
            # rounding of these products is kept
            val = self.coeff / _power(z, -n)
        else:
            val = np.full(z.shape, self.coeff)
        if val.ndim == 0:
            return complex(val)
        return val

    def deriv(self) -> "RationalFunction":
        """d/dz c z^n = n c z^(n - 1)."""
        return RationalFunction(self.power * self.coeff, self.power - 1)

    def __neg__(self):
        return RationalFunction(-self.coeff, self.power)

    @property
    def is_zero(self) -> bool:
        return self.coeff == 0.0

    @property
    def order(self) -> int:
        """Order of the pole at the origin (0 when there is none)."""
        return max(0, -self.power)

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.power == other.power and self.coeff == other.coeff

    def __repr__(self):
        return f"RationalFunction(coeff={self.coeff!r}, power={self.power})"
