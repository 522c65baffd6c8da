"""Continuations of divergent pairings by Taylor subtraction and counterterms.

When the naive product limit fails, the pairing still exists on test
functions whose derivatives through order p vanish at the origin.  The
continuation evaluated here is

    (product, phi) = (Tbar, phibar) + sum_{k <= p} c_k (delta^(k), phi),

where phibar(x) = phi(x) - omega(x) * sum_{k <= p} phi^(k)(0) x^k / k! is the
subtracted test function (omega a plateau cutoff, identically 1 near 0) and
the c_k are free constants: the entire ambiguity of the continuation is the
span of delta derivatives through order p.  Sign convention:
(delta^(k), phi) = (-1)^k phi^(k)(0).  The first term does not depend on c
and the second is a closed-form sum, so the two are computed apart:
``evaluate_extension`` pairs (Tbar, phibar) once, and ``counterterm_value``
gives each counterterm vector's sum, which a caller adds to it.

A cutoff change moves the continuation by a pairing of T alone: phibar at a
second cutoff omega2 is phibar at omega plus (omega - omega2) * T_p, T_p
phi's Taylor polynomial through order p, so (Tbar, phibar) at omega2 is
(Tbar, phibar) at omega plus the shift (T, (omega - omega2) * T_p)
(``CutoffChange``).  That function is 0 where both cutoffs are 1, so the
shift is a regular integral, a local counterterm (Brunetti and
Fredenhagen, CMP 208, 2000).  ``evaluate_extensions`` pairs every phi's
phibar and cutoff change, at one order, in one ``limit_pairings`` batch, a
lockstep quadrature over all their schedules in which a stall is its own
schedule's: a job's report gets each continued phi's (Tbar, phibar) and
shift this way.

phibar is evaluated by value only.  Its Taylor polynomial is phi.taylor(p),
taken once per subtracted function, and omega is exactly 1 on the plateau,
so there phibar is phi minus its Taylor polynomial: the tail of phi's Taylor
series, x^(p+1) * sum_j t_(p+1+j) x^j.  Near 0 it is evaluated as that tail,
not as the difference, which would cancel to rounding noise (0 at x = 1e-5,
where the true value of exp(-x^2) - 1 + x^2 is 5e-21), noise that the
kernel's growth y^-s would magnify into the pairing.  The tail's Horner
sum runs numpy's ``polyval`` operations in its order, in place.

For a product supported at the origin (some factor is delta, a derivative
of it or a zero pair: ``ProductExpression.supported_at_origin``) the shift
is exactly 0: that factor's F_y is O(y) on the cutoff change's support,
where every other factor stays bounded.  ``evaluate_extensions`` gives it
0 and pairs no cutoff change.  A product with support off the origin, such
as pv(1/x)^2, shifts by a counterterm, i.e. reparametrizes the same family;
a job report's ``omega_independence`` block prints |shift|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expression import ProductExpression
from .pairing import (
    DEFAULT_SCHEDULE,
    QuadratureError,
    Schedule,
    limit_pairing,
    limit_pairings,
)
from .testfn import (
    DEFAULT_CUTOFF,
    PlateauCutoff,
    TestFunction,
    _polyval,
    vanish_probe,
)


class ExtensionError(RuntimeError):
    """A pairing meant to be continued did not converge."""


# Terms of phi's Taylor series past order p that make up phibar near 0.  On
# |x| <= sigma / 2 a polynomial-Gaussian's terms fall faster than
# geometrically, so the terms left out are far below rounding.
_TAIL_TERMS = 60
# Of those, the trailing terms whose size |t_j| near^j is below this share of
# the largest one's are dropped as well: far below rounding, they change no bit
# of the sum.
_TAIL_FLOOR = 1e-30


def _trimmed(tail: np.ndarray, near: float) -> np.ndarray:
    """tail without the trailing terms that _TAIL_FLOOR drops on |x| <= near.

    The sizes are compared as logarithms, so no power of near overflows or
    underflows; the whole tail is kept when a size is not finite.
    """
    size = (np.log(np.abs(tail), out=np.full(len(tail), -np.inf), where=tail != 0.0)
            + np.arange(len(tail)) * math.log(near))
    top = size.max()
    if not math.isfinite(top):
        return tail
    return tail[:np.flatnonzero(size >= top + math.log(_TAIL_FLOOR))[-1] + 1]


class _TaylorUnderCutoff:
    """phi's Taylor polynomial through order p under the cutoff omega: what
    ``SubtractedFunction`` and ``CutoffChange`` share."""

    def __init__(self, phi: TestFunction, omega: PlateauCutoff, p: int):
        self.phi = phi
        self.omega = omega
        self.taylor = phi.taylor(p)

    @property
    def sigma(self) -> float:
        """phi's width: a schedule refuses the function where it refuses phi."""
        return self.phi.sigma

    @property
    def parity(self) -> int | None:
        """phi's: the cutoffs are even, and phi's Taylor terms have phi's parity."""
        return self.phi.parity

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """omega's, where the function stops being analytic."""
        return self.omega.breakpoints


class SubtractedFunction(_TaylorUnderCutoff):
    """phi minus its cutoff-localized Taylor polynomial through order p.

    phibar(x) = phi(x) - omega(x) * T(x) with T(x) = sum_{k <= p} taylor[k]
    x^k, taylor = phi.taylor(p).  On |x| <= min(plateau, sigma / 2), where
    omega = 1, it is evaluated as the series tail x^(p+1) * sum_j
    tail[j] x^j, tail = phi.taylor(p + _TAIL_TERMS)[p+1:] less its trailing
    terms below rounding there (``_trimmed``), free of the difference's
    cancellation; elsewhere as the difference.  Evaluated by value: a scalar
    gives a float, an array an array.
    """

    def __init__(self, phi: TestFunction, omega: PlateauCutoff, p: int):
        if p < 0:
            raise ValueError("subtraction order must be >= 0")
        super().__init__(phi, omega, p)
        self.p = p
        self.near = min(omega.plateau, 0.5 * phi.sigma)
        self.tail = _trimmed(phi.taylor(p + _TAIL_TERMS)[p + 1:], self.near)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        near = np.abs(x) <= self.near
        xn, xf = x[near], x[~near]
        val = np.empty_like(x)
        val[near] = xn ** (self.p + 1) * _polyval(xn, self.tail)
        val[~near] = self.phi(xf) - self.omega(xf) * _polyval(xf, self.taylor)
        return float(val[0]) if scalar else val

    @property
    def vanishing_order(self) -> int:
        """p + 1: phibar's Taylor coefficients through order p are 0."""
        return self.p + 1

    def decay_radius(self, extra_degree: int = 0) -> float:
        """phi's radius, and at least past the cutoff's support, where phibar = phi."""
        return max(self.phi.decay_radius(extra_degree), self.omega.support + 1.0)


class CutoffChange(_TaylorUnderCutoff):
    """(omega - omega2) * T_p, the change of phibar from cutoff omega to omega2.

    T_p(x) = sum_{k <= p} taylor[k] x^k with taylor = phi.taylor(p), as in
    ``SubtractedFunction``.  Identically 0 on |x| <= the smaller plateau,
    where both cutoffs are 1, and evaluated only past it.  Evaluated by value:
    a scalar gives a float, an array an array.
    """

    def __init__(self, phi: TestFunction, omega: PlateauCutoff, omega2: PlateauCutoff,
                 p: int):
        super().__init__(phi, omega, p)
        self.omega2 = omega2
        self.near = min(omega.plateau, omega2.plateau)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        far = np.abs(x) > self.near
        xf = x[far]
        val = np.zeros_like(x)
        val[far] = (self.omega(xf) - self.omega2(xf)) * _polyval(xf, self.taylor)
        return float(val[0]) if scalar else val

    @property
    def breakpoints(self) -> tuple[float, ...]:
        """Both cutoffs', where the function stops being analytic."""
        return self.omega.breakpoints + self.omega2.breakpoints

    @property
    def vanishing_order(self) -> float:
        """Unbounded: the function is identically 0 near 0."""
        return math.inf

    def decay_radius(self, extra_degree: int = 0) -> float:
        """Past the cutoffs' supports, where the function is 0."""
        return max(self.omega.support, self.omega2.support) + 1.0


# ---------------------------------------------------------------------------
# the continuation
# ---------------------------------------------------------------------------


def counterterm_value(c, phi) -> complex:
    """sum_k c_k (delta^(k), phi) = sum_k c_k (-1)^k k! t_k, t = phi.taylor."""
    jet = phi.taylor(len(c))
    total = 0j
    for k, ck in enumerate(c):
        total += complex(ck) * (-1.0) ** k * (math.factorial(k) * float(jet[k]))
    return total


def evaluate_extension(expr: ProductExpression, phi: TestFunction, p: int,
                       omega: PlateauCutoff = DEFAULT_CUTOFF) -> complex:
    """(Tbar, phibar) for the order-p subtraction with cutoff omega.

    omega defaults to ``testfn.DEFAULT_CUTOFF``, PlateauCutoff(1.0, 2.0).
    phibar is paired on ``DEFAULT_SCHEDULE``.  The pairing must converge;
    otherwise the order is too small for the expression, or the expression
    is outside scope, and ExtensionError is raised.
    """
    phibar = SubtractedFunction(phi, omega, p)
    [value] = _limits(expr, p, [phibar], DEFAULT_SCHEDULE)
    if isinstance(value, Exception):
        raise value
    return value


def evaluate_extensions(expr: ProductExpression, p: int, phis,
                        omegas: tuple[PlateauCutoff, PlateauCutoff],
                        schedule: Schedule = DEFAULT_SCHEDULE) -> list:
    """(Tbar, shift) of every phi of phis at the order-p subtraction, in one batch.

    With omegas = (omega, omega2), Tbar is (Tbar, phibar) at omega, exactly
    ``evaluate_extension``'s value, and shift is the pairing of the
    ``CutoffChange`` from omega to omega2, so that Tbar + shift is the
    continuation at omega2.  Both run in one ``limit_pairings`` batch.  When
    ``expr.supported_at_origin`` the shift is exactly 0j and only phibar is
    paired.  An entry whose pairing fails is the exception instead (an
    ExtensionError or a QuadratureError), returned, not raised: phibar's
    when both fail.  A phi the schedule cannot resolve refuses the whole
    batch, as it does there.
    """
    omega, omega2 = omegas
    functions = [SubtractedFunction(phi, omega, p) for phi in phis]
    if not expr.supported_at_origin:
        functions += [CutoffChange(phi, omega, omega2, p) for phi in phis]
    values = _limits(expr, p, functions, schedule)
    shifts = values[len(phis):] or [0j] * len(phis)
    return [next((v for v in pair if isinstance(v, Exception)), pair)
            for pair in zip(values, shifts)]


def _limits(expr: ProductExpression, p: int, functions, schedule: Schedule) -> list:
    """The limit of expr's pairing with each function, from one ``limit_pairings`` batch.

    A stall gives a QuadratureError at the same height whose message names
    the pairing, and a pairing that does not converge an ExtensionError,
    returned, not raised.
    """
    values = []
    for function, pairing in zip(functions, limit_pairings(expr, functions, schedule)):
        name = "cutoff-change" if isinstance(function, CutoffChange) else "subtracted"
        if isinstance(pairing, QuadratureError):
            values.append(QuadratureError(f"{name} pairing for {expr.label!r}: {pairing}",
                                          pairing.height))
        elif pairing.status != "converged":
            why = ("the schedule does not resolve the cutoff shift"
                   if isinstance(function, CutoffChange) else
                   f"the declared order p={p} is too small, the schedule is too coarse, "
                   f"or the expression is outside scope")
            values.append(ExtensionError(
                f"{name} pairing for {expr.label!r} classified as {pairing.status}; {why}"))
        else:
            values.append(pairing.value)
    return values


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------


# The absolute tolerance of ``factorization_identity_check``.
_FACTORIZATION_ATOL = 1e-7


@dataclass(frozen=True)
class FactorizationReport:
    lhs_value: complex | None
    rhs_value: complex | None
    lhs_status: str
    rhs_status: str
    difference: float | None
    tolerance: float
    ok: bool


def factorization_identity_check(expr: ProductExpression, kappa: int,
                                 psi: TestFunction) -> FactorizationReport:
    """(T, x^(kappa+1) psi) versus (x^(kappa+1) T, psi).

    The left side pairs the expression with the probe x^(kappa+1)*psi; the
    right side moves the monomial into the expression's prefactor power.
    Both pair on ``DEFAULT_SCHEDULE`` and must agree within
    _FACTORIZATION_ATOL.  Either side failing to converge is reported via
    the status flags, not raised.
    """
    lhs = limit_pairing(expr, vanish_probe(kappa, psi))
    rhs = limit_pairing(expr.with_extra_power(kappa + 1), psi)
    diff = None
    ok = False
    if lhs.status == "converged" and rhs.status == "converged":
        diff = abs(lhs.value - rhs.value)
        ok = diff <= _FACTORIZATION_ATOL
    return FactorizationReport(lhs.value, rhs.value, lhs.status, rhs.status,
                               diff, _FACTORIZATION_ATOL, ok)
