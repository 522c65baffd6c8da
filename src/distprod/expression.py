"""Product expressions and their text grammar.

The core objects are product expressions: an ordered list of boundary-value
pairs, each optionally carrying a monomial prefactor power.  What a product
is before any quadrature lives here: its scaling degree, parity and side,
and the parity and wavefront tests that ``pairing`` reads to pair it.  Its
text form lives here too: ``ProductExpression.label`` prints it and
``parse_expression`` reads it back.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from functools import cached_property

from .boundary import CatalogError, HyperfunctionPair, catalog


@dataclass(frozen=True)
class ProductExpression:
    """Ordered factors with a nonnegative monomial prefactor power each.

    The pairing integrand is x^(sum of powers) * prod_i F_i^y(x) * phi(x);
    attaching the power to a slot rather than multiplying in an explicit
    monomial factor keeps the prefactor exact at finite y (the monomial
    catalog entry regulates x^r to Re((x+iy)^r), which differs from x^r at
    finite height for r >= 2, though the limits agree).
    """

    factors: tuple[HyperfunctionPair, ...]
    powers: tuple[int, ...] = ()

    def __post_init__(self):
        factors = tuple(self.factors)
        powers = tuple(int(r) for r in self.powers) if self.powers else (0,) * len(factors)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "powers", powers)
        if not factors:
            raise ValueError("a product needs at least one factor")
        if len(powers) != len(factors):
            raise ValueError("one prefactor power per factor required")
        if any(r < 0 for r in powers):
            raise ValueError("prefactor powers must be nonnegative")

    @property
    def total_power(self) -> int:
        return sum(self.powers)

    @property
    def scaling_degree(self) -> int:
        """sd = -(sum_i n_i + R), read off the representatives.

        n_i is the power that factor i's nonzero representatives share (0 for
        a zero factor such as d(1)) and R the total prefactor power.  The
        integrand is y^-sd times a function of x/y, so a local principal part
        needs Taylor orders q <= sd - 2: ``pairing.subtraction_order`` batches its
        search up to that order.
        """
        return -(self.total_power + sum(
            next((rep.power for rep in (pair.f_plus, pair.f_minus) if not rep.is_zero), 0)
            for pair in self.factors))

    @property
    def one_sided(self) -> tuple[complex, int, int]:
        """(C, P, M): the one-sided factors together are C (x + iy)^P (x - iy)^M.

        P is the sum of the (+)-side factors' powers and M of the (-)-side
        ones.  C is the product of the former's f+ coefficients and of the
        latter's f- coefficients negated, since such a factor's F_y is
        -f-(x - iy).  Every one-sided atom of the grammar and its derivatives
        has a real coefficient, so C is real.  (1, 0, 0) when there is no
        one-sided factor.
        """
        C, P, M = 1 + 0j, 0, 0
        for pair in self.factors:
            side = pair.side
            if side == "+":
                C, P = C * pair.f_plus.coeff, P + pair.f_plus.power
            elif side == "-":
                C, M = -C * pair.f_minus.coeff, M + pair.f_minus.power
        return C, P, M

    @property
    def parity(self) -> int | None:
        """The kernel x^R * prod F_i's parity in x: +1, -1, or None when it has none.

        Each two-sided factor brings its own parity, and one without makes it
        None.  The one-sided factors together are C (x + iy)^P (x - iy)^M
        (``one_sided``); x -> -x maps that to (-1)^(P + M) C (x - iy)^P
        (x + iy)^M, which is +- itself exactly when P = M, and then it is
        C (x^2 + y^2)^P, even.
        """
        parity = (-1) ** self.total_power
        for pair in self.factors:
            if pair.side is None:
                if pair.parity is None:
                    return None
                parity *= pair.parity
        _, P, M = self.one_sided
        return parity if P == M else None

    @cached_property
    def side(self) -> str | None:
        """'+' or '-' when every factor with a pole (alpha > 0) is a boundary
        value from that side, and None otherwise.

        Then the kernel x^R * prod F_i^y extends to a function holomorphic on
        that side of the real axis (its poles sit at -+iy), and the product
        is a boundary value from that side too.
        """
        sides = {pair.side for pair in self.factors if pair.alpha}
        return sides.pop() if sides in ({"+"}, {"-"}) else None

    @property
    def supported_at_origin(self) -> bool:
        """True when some factor is (``HyperfunctionPair.supported_at_origin``).

        Away from 0 that factor's F_y is O(y) and every other factor and x^R
        stay bounded, so the product's pairing with a test function that
        vanishes near 0 tends to exactly 0, though no I(y) at y > 0 need be 0.
        """
        return any(pair.supported_at_origin for pair in self.factors)

    def converges_against(self, phi) -> bool:
        """True when the pairing with phi is proved convergent before any quadrature.

        m is phi's vanishing order at 0 (``vanishing_order``): its Taylor
        orders below m are 0, so the kernel meets x^m psi, and psi's Taylor
        order q gives a term y^(q + 1 - (sd - m)) times the q-th moment of
        the scaled x^m * kernel.  The pairing converges when no such term
        grows: sd - m <= 1; or every singular factor is a boundary value
        from the same side (``side``), so the product is one too (Hormander,
        ALPDO I, Thm 8.2.10); or the kernel has a parity and every
        q <= sd - m - 2 has the other parity than x^m * kernel, so each
        growing moment is 0; or the pairing vanishes (``vanishes_against``).
        ``pairing.limit_pairings`` reads it only to decide which schedules
        run together, never a classification.  The same wavefront test,
        ``side``, picks the contour: such a product pairs with a TestFunction
        on the line Im z = +-sigma (``pairing._line``).
        """
        m = phi.vanishing_order
        sd = self.scaling_degree
        if sd - m <= 1:
            return True
        if self.side:
            return True
        parity = self.parity
        if parity is not None and all(
                (-1) ** q != parity * (-1) ** m for q in range(sd - m - 1)):
            return True
        return self.vanishes_against(phi)

    def vanishes_against(self, phi) -> bool:
        """True when the pairing with phi is exactly 0 at every height: a parity zero.

        The kernel has a parity (``parity``) and phi the other one, so
        x^R * prod F_i^y * phi is odd at every height (for a two-sided factor
        F_y(-x) = +-F_y(x) holds exactly, see ``HyperfunctionPair.parity``)
        and its integral over [-L, L], or over the line, is 0.
        ``pairing.limit_pairings`` pairs it without quadrature.
        """
        parity = self.parity
        return parity is not None and phi.parity == -parity

    @property
    def label(self) -> str:
        """Canonical text form; parses back to an identical expression."""
        parts = []
        for pair, r in zip(self.factors, self.powers):
            parts.append(f"x^{r} * {pair.label}" if r else pair.label)
        return " * ".join(parts)

    def with_extra_power(self, k: int) -> "ProductExpression":
        """Raise the total monomial prefactor power by k (attached up front)."""
        if k < 0:
            raise ValueError("extra power must be nonnegative")
        powers = (self.powers[0] + k,) + self.powers[1:]
        return ProductExpression(self.factors, powers)


# ---------------------------------------------------------------------------
# expression grammar
# ---------------------------------------------------------------------------
#
# The text form that ProductExpression.label prints (whitespace-insensitive):
#
#     Expr := Term ('*' Term)*
#     Term := 'x^' INT | Atom
#     Atom := 'delta' | 'pv(1/x)' | '(x+i0)^-' INT | '(x-i0)^-' INT | '1'
#           | 'd(' Atom ')'
#
# An 'x^r' term folds into the prefactor power of the factor that follows it
# (consecutive powers accumulate); a trailing 'x^r' becomes a standalone
# monomial factor, and so does an 'x^0' with no factor: 'x^0' is the
# constant 1.  'd(...)' differentiates its atom.  Parse errors carry the
# byte offset of the offending token.


class ParseError(ValueError):
    """Expression syntax error with the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# One alternation, tried in order at each offset; MISMATCH takes a character
# that starts no token.  An atom's kind is its catalog name; the other kinds
# are upper case, as parse errors name them.
_TOKEN = re.compile("|".join((
    r"(?P<WS>\s+)",
    r"(?P<STAR>\*)",
    r"x\^(?P<XPOW>\d+)",
    r"(?P<delta>delta)",
    r"(?P<pv_inv_x>pv\(1/x\))",
    r"\(x\+i0\)\^-(?P<plus_i0_pow>\d+)",
    r"\(x-i0\)\^-(?P<minus_i0_pow>\d+)",
    r"(?P<DOPEN>d\()",
    r"(?P<RPAREN>\))",
    r"(?P<one>1)",
    r"(?P<MISMATCH>.)",
)), re.DOTALL)
_INTEGER_KINDS = ("XPOW", "plus_i0_pow", "minus_i0_pow")


def _scan(text: str) -> list[tuple[str, int | None, int]]:
    """Every token of text as (kind, value, offset), then ('END', None, len(text)).

    The whole text is scanned before any of it is parsed, so an unrecognized
    token is reported before any grammar error.  An integer past Python's
    digit limit for ``int`` (``sys.get_int_max_str_digits``) is refused at
    its token's offset.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        kind, i = m.lastgroup, m.start()
        if kind == "MISMATCH":
            raise ParseError(f"unrecognized input {text[i:i + 12]!r}", i)
        if kind == "WS":
            continue
        value = None
        if kind in _INTEGER_KINDS:
            try:
                value = int(m[kind])
            except ValueError:
                raise ParseError(f"integer parameter of {len(m[kind])} digits is too large",
                                 i) from None
        tokens.append((kind, value, i))
    return tokens + [("END", None, len(text))]


def _atom(kind: str, value: int | None, offset: int) -> HyperfunctionPair:
    """The catalog atom a token names; a ParseError at its offset otherwise."""
    if kind == "END":
        raise ParseError("unexpected end of expression", offset)
    if kind.isupper():
        raise ParseError(f"expected an atom, found {kind}", offset)
    try:
        return catalog(kind, value)
    except CatalogError as exc:
        raise ParseError(str(exc), offset) from exc


def parse_expression(text: str) -> ProductExpression:
    """Read the text form that ``ProductExpression.label`` prints.

    An atom term is a run of 'd(' openers, its atom, then one derivative
    per ')'.  The openers are collected in a loop, not a recursion, so any
    nesting depth is read.  A derivative whose coefficient is not a finite
    float (d^171 of delta is n! / (2 pi) past the largest double) is refused
    at the offset of its 'd('.
    """
    tokens = iter(_scan(text))
    factors, powers, pending = [], [], 0
    while True:
        kind, value, offset = next(tokens)
        if kind == "END":
            raise ParseError("expected a factor", offset)
        if kind == "XPOW":
            pending += value
        else:
            openers = []
            while kind == "DOPEN":
                openers.append(offset)
                kind, value, offset = next(tokens)
            atom = _atom(kind, value, offset)
            for opener in reversed(openers):
                kind, _, offset = next(tokens)
                if kind != "RPAREN":
                    raise ParseError("unexpected end of expression" if kind == "END"
                                     else "expected ')' after derivative atom", offset)
                try:
                    atom = atom.derivative()
                    finite = cmath.isfinite(atom.f_plus.coeff) and cmath.isfinite(atom.f_minus.coeff)
                except OverflowError:              # a pole order past the largest double
                    finite = False
                if not finite:
                    raise ParseError("derivative coefficient is not finite", opener)
            factors.append(atom)
            powers.append(pending)
            pending = 0
        kind, _, offset = next(tokens)
        if kind == "END":
            break
        if kind != "STAR":
            raise ParseError("expected '*' between factors", offset)
    if pending or not factors:
        factors.append(catalog("monomial", pending))
        powers.append(0)
    return ProductExpression(tuple(factors), tuple(powers))
