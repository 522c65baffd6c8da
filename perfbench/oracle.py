"""The oracle table: what each benchmark operation must return.

Every product in the workloads is built from the Poisson kernel
P_y = y / (pi (x^2 + y^2)) and its relatives, so its pairing with a
polynomial-Gaussian phi has a closed form: a converged limit in terms of
phi(0), phi'(0), the integral of phi and principal values (Dawson's
function), or a divergence A * y^-s with integer s and a closed-form A from
Beta integrals.  Those closed forms are computed here independently of
distprod.  The few printed numbers without a closed form (the pv(1/x)^2
continuation and its cutoff shift) are the values the program printed at
the commit that introduced this benchmark, on inputs no seed changes.

Known defects stay in the workloads.  A result that matches a recorded
defect counts as a failed operation but not as a wrong benchmark; anything
else that disagrees with the table makes the run incorrect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.special import dawsn

from workloads import Op, Phi

PI = math.pi

# Tolerances of the checks.
VALUE_RTOL = 1e-6        # converged limits, relative to max(1, |ref|) (as C01, C02)
ZERO_ATOL = 1e-8         # limits that are exactly 0 (annihilation, c = 0 continuations)
RATE_ATOL = 0.05         # |s - integer rate| (as C03)
COEFF_RTOL = 1e-3        # leading coefficient A, relative (seed: <= 1.2e-4)
OFFSET_RTOL = 1e-12      # counterterm offsets, relative to 1 + |value|
SEED_RTOL = 1e-8         # numbers pinned to the seed's output


class Moments:
    """Closed-form data of phi = poly(x) exp(-(x - mu)^2 / (2 sigma^2))."""

    def __init__(self, phi: Phi, order: int = 2):
        poly = np.asarray(phi.poly, dtype=float)
        sigma, mu = phi.sigma, phi.mu
        self.even = mu == 0.0 and not np.any(poly[1::2])
        self.d = self._derivatives_at_zero(poly, sigma, mu, order)
        self.integral = self._integral(poly, sigma, mu)
        self.pv = self._pv_over_x(poly, sigma, mu)
        # phi' = (poly' - poly (x - mu) / sigma^2) exp(...)
        dpoly = npoly.polyadd(npoly.polyder(poly),
                              npoly.polymul(poly, [mu / sigma**2, -1.0 / sigma**2]))
        self.pv_d = self._pv_over_x(dpoly, sigma, mu)

    @staticmethod
    def _derivatives_at_zero(poly, sigma, mu, order):
        # exp(a x + b x^2) has Taylor coefficients (k+1) e_{k+1} = a e_k + 2 b e_{k-1}
        a, b = mu / sigma**2, -0.5 / sigma**2
        e = [1.0, a]
        for k in range(1, order):
            e.append((a * e[k] + 2.0 * b * e[k - 1]) / (k + 1))
        taylor = npoly.polymul(poly, e)[: order + 1] * math.exp(-mu * mu / (2 * sigma**2))
        taylor = np.pad(taylor, (0, order + 1 - len(taylor)))
        return [float(t) * math.factorial(k) for k, t in enumerate(taylor)]

    @staticmethod
    def _gauss_moments(n, sigma, mu):
        """Integrals of x^k exp(-(x - mu)^2 / (2 sigma^2)), k < n."""
        m = [1.0, mu]
        for k in range(2, n):
            m.append(mu * m[k - 1] + (k - 1) * sigma**2 * m[k - 2])
        return [math.sqrt(2 * PI) * sigma * v for v in m[:n]]

    @classmethod
    def _integral(cls, poly, sigma, mu):
        return float(np.dot(poly, cls._gauss_moments(len(poly), sigma, mu)))

    @classmethod
    def _pv_over_x(cls, poly, sigma, mu):
        """PV of the integral of poly(x) exp(...) / x.

        poly(0) times the Hilbert transform of the Gaussian,
        2 sqrt(pi) D(mu / (sqrt(2) sigma)) with D Dawson's function, plus the
        regular part (poly(x) - poly(0)) / x integrated by moments.
        """
        hilbert = 2.0 * math.sqrt(PI) * dawsn(mu / (math.sqrt(2.0) * sigma))
        rest = np.dot(poly[1:], cls._gauss_moments(len(poly) - 1, sigma, mu)) if len(poly) > 1 else 0.0
        return float(poly[0] * hilbert + rest)


@dataclass(frozen=True)
class Expect:
    status: str                       # "converged" or "diverged"
    value: complex | None = None      # the limit, when converged
    s: int | None = None              # integer divergence rate
    coeff: complex | None = None      # A in I(y) ~ A y^-s


def _conv(value) -> Expect:
    return Expect("converged", value=complex(value))


def _div(s, coeff) -> Expect:
    return Expect("diverged", s=s, coeff=complex(coeff))


def _odd(s, coeff, f: Moments) -> Expect:
    """Odd kernel: exactly zero at every height on an even phi."""
    return _conv(0.0) if f.even else _div(s, coeff)


# Closed forms, by expression.  With P = P_y, d(delta) -> P', d(d(delta)) -> P''.
PRODUCTS = {
    "1": lambda f: _conv(f.integral),
    "delta": lambda f: _conv(f.d[0]),
    "pv(1/x)": lambda f: _conv(f.pv),
    "x^1 * delta": lambda f: _conv(0.0),
    "delta * pv(1/x)": lambda f: _conv(f.d[1] / 2.0),
    "(x+i0)^-1 * (x+i0)^-1": lambda f: _conv(f.pv_d - 1j * PI * f.d[1]),
    "(x-i0)^-1 * (x-i0)^-1": lambda f: _conv(f.pv_d + 1j * PI * f.d[1]),
    "(x+i0)^-1 * (x-i0)^-1": lambda f: _div(1, PI * f.d[0]),
    "delta * delta": lambda f: _div(1, f.d[0] / (2 * PI)),
    "delta * d(delta)": lambda f: _odd(1, -f.d[1] / (4 * PI), f),
    "pv(1/x) * pv(1/x)": lambda f: _div(1, PI * f.d[0] / 2),
    "x^2 * delta * delta": lambda f: _conv(0.0),
    "delta * delta * delta": lambda f: _div(2, 3 * f.d[0] / (8 * PI**2)),
    "d(delta) * d(delta)": lambda f: _div(3, f.d[0] / (4 * PI)),
    "delta * delta * delta * delta": lambda f: _div(3, 5 * f.d[0] / (16 * PI**3)),
    "pv(1/x) * pv(1/x) * pv(1/x) * pv(1/x)": lambda f: _div(3, PI * f.d[0] / 16),
    "(x+i0)^-3 * (x-i0)^-3": lambda f: _div(5, 3 * PI * f.d[0] / 8),
    "d(d(delta)) * d(d(delta))": lambda f: _div(5, 3 * f.d[0] / (4 * PI)),
    "d(delta) * d(delta) * d(delta)": lambda f: _odd(4, -3 * f.d[1] / (32 * PI**2), f),
    "d(d(delta)) * d(delta)": lambda f: _odd(3, -f.d[1] / (8 * PI), f),
    "d(delta) * d(delta) * delta": lambda f: _div(4, 5 * f.d[0] / (32 * PI**2)),
}

# run_job: subtraction order, c = 0 continued value and the cutoff-change
# difference.  Delta-derived products are supported at the origin: their
# c = 0 continuation is 0 and does not depend on the cutoff.  pv(1/x)^2 is
# not; its two numbers are the seed's output on exp(-x^2) with cutoffs
# (1, 2) and (0.5, 1).  delta^3 diverges like y^-2 from phi(0) alone, so
# p = 0 would suffice; the seed's search reports p = 2 because its order-0
# probe x exp(-x^2) pairs to exactly 0 by parity.  p = 2 is pinned here.
CONTINUATIONS = {
    "delta * delta": (0, 0.0, 0.0),
    "delta * delta * delta": (2, 0.0, 0.0),
    "d(delta) * d(delta)": (2, 0.0, 0.0),
    "pv(1/x) * pv(1/x)": (0, -2.2000008574118066, 1.3449068444002088),
}

# Known defects at the seed: (expression, phi is even, op kind) -> what the
# seed returns instead of the table entry, and why.
KNOWN_DEFECTS = {
    ("delta * d(delta)", True, "pairing"):
        ("inconclusive", "exact parity zero read as inconclusive"),
    ("d(delta) * d(delta) * d(delta)", True, "pairing"):
        ("diverged", "exact parity zero read as a divergence from quadrature noise"),
    ("d(d(delta)) * d(delta)", True, "pairing"):
        ("diverged", "exact parity zero read as a divergence from quadrature noise"),
    ("d(delta) * d(delta)", True, "job"):
        ("subtraction error", "the subtraction-order search stalls in quadrature"),
}


@dataclass
class Verdict:
    """The check of one operation's output."""

    failure: str | None = None        # why the output is wrong, if it is
    known: bool = False               # the failure is a recorded seed defect
    bands: tuple[bool, ...] = ()      # per diverged result: s_ci covers the rate


def _close(a: complex, b: complex, atol: float) -> bool:
    return abs(complex(a) - complex(b)) <= atol


def _check_limit(status, value, s, coeff, expect: Expect) -> str | None:
    """Compare one classified pairing with its table entry."""
    if status != expect.status:
        return f"status {status}, expected {expect.status}"
    if status == "converged":
        ref = expect.value
        tol = ZERO_ATOL if ref == 0 else VALUE_RTOL * max(1.0, abs(ref))
        if value is None or not _close(value, ref, tol):
            return f"value {value}, expected {ref} within {tol:.1e}"
        return None
    if abs(s - expect.s) > RATE_ATOL:
        return f"rate s = {s}, expected {expect.s}"
    if coeff is not None and not _close(coeff, expect.coeff, COEFF_RTOL * abs(expect.coeff)):
        return f"leading coefficient {coeff}, expected {expect.coeff}"
    return None


def _band(status, s_ci, expect: Expect) -> tuple[bool, ...]:
    if status != "diverged" or expect.status != "diverged" or s_ci is None:
        return ()
    return (bool(s_ci[0] <= expect.s <= s_ci[1]),)


def _known(op: Op, phi: Phi, observed: str) -> bool:
    entry = KNOWN_DEFECTS.get((op.expr, Moments(phi).even, op.kind))
    return entry is not None and entry[0] == observed


def check_pairing(op: Op, result) -> Verdict:
    phi = op.phis[0]
    expect = PRODUCTS[op.expr](Moments(phi))
    failure = _check_limit(result.status, result.value, result.s,
                           result.leading_coeff, expect)
    bands = _band(result.status, result.s_ci, expect)
    if failure is None:
        return Verdict(bands=bands)
    return Verdict(f"{op.label}: {failure}", _known(op, phi, result.status), bands)


def _cpx(pair) -> complex:
    return complex(pair[0], pair[1])


def _check_entry(op: Op, phi: Phi, entry: dict) -> tuple[str | None, str, tuple]:
    """One test function's block of a job report: (failure, observed, bands)."""
    f = Moments(phi)
    expect = PRODUCTS[op.expr](f)
    pairing = entry["pairing"]
    value = None if pairing["value"] is None else _cpx(pairing["value"])
    failure = _check_limit(pairing["status"], value, pairing["s"], None, expect)
    bands = _band(pairing["status"], pairing["s_ci"], expect)
    if failure:
        return failure, pairing["status"], bands
    sub, exts, indep = entry["subtraction"], entry["extensions"], entry["omega_independence"]
    if expect.status == "converged":
        if sub is not None or exts is not None or indep is not None:
            return "convergent product was continued", "continued", bands
        return None, "", bands
    if sub is None or "error" in sub:
        return f"subtraction failed: {sub}", "subtraction error", bands
    p, continued, shift = CONTINUATIONS[op.expr]
    if sub != {"p": p, "needed": True}:
        return f"subtraction {sub}, expected p = {p}", "wrong p", bands
    rows = [(0j,) * (p + 1)] + [tuple(r) for r in op.c_grid]
    if [[_cpx(c) for c in b["c"]] for b in exts] != [list(r) for r in rows]:
        return "extension blocks do not follow the c grid", "bad blocks", bands
    base = exts[0]
    ref_tol = ZERO_ATOL if continued == 0.0 else SEED_RTOL * abs(continued)
    if not _close(_cpx(base["value"]), continued, ref_tol):
        return f"c = 0 continuation {base['value']}, expected {continued}", "value", bands
    v0 = _cpx(base["value"])
    for row, block in zip(rows, exts):
        if block["Tbar_phibar"] != base["Tbar_phibar"]:
            return "(Tbar, phibar) depends on c", "value", bands
        predicted = sum(complex(c) * (-1) ** k * f.d[k] for k, c in enumerate(row))
        offset = _cpx(block["value"]) - v0
        if not _close(offset, predicted, OFFSET_RTOL * (1.0 + abs(v0) + abs(predicted))):
            return f"counterterm offset {offset}, expected {predicted}", "value", bands
    shift_tol = ZERO_ATOL if shift == 0.0 else SEED_RTOL * shift
    if not _close(indep["difference"], shift, shift_tol):
        return f"cutoff difference {indep['difference']}, expected {shift}", "value", bands
    return None, "", bands


def check_job(op: Op, report: dict) -> Verdict:
    if len(report["results"]) != len(op.phis):
        return Verdict(f"{op.label}: {len(report['results'])} results")
    bands = ()
    for phi, entry in zip(op.phis, report["results"]):
        failure, observed, b = _check_entry(op, phi, entry)
        bands += b
        if failure:
            return Verdict(f"{op.label}: {failure}", _known(op, phi, observed), bands)
    return Verdict(bands=bands)


def check(op: Op, out) -> Verdict:
    return check_pairing(op, out) if op.kind == "pairing" else check_job(op, out)
