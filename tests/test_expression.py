"""Product expressions and their text grammar: parsing, errors, round trips,
and what a product is before any quadrature."""

import ast
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from distprod.boundary import HyperfunctionPair, catalog
from distprod.expression import ParseError, ProductExpression, parse_expression
from distprod.ratfun import RationalFunction


class TestParser:
    def test_two_factors(self):
        expr = parse_expression("delta * pv(1/x)")
        assert [f.label for f in expr.factors] == ["delta", "pv(1/x)"]
        assert expr.powers == (0, 0)

    def test_power_folds_into_next_factor(self):
        expr = parse_expression("x^2 * delta * delta")
        assert [f.label for f in expr.factors] == ["delta", "delta"]
        assert expr.powers == (2, 0)
        assert expr.total_power == 2

    def test_repeated_one_sided_powers(self):
        expr = parse_expression("(x+i0)^-1 * (x+i0)^-1")
        assert len(expr.factors) == 2
        assert all(f.label == "(x+i0)^-1" for f in expr.factors)

    def test_minus_side_and_parameter(self):
        expr = parse_expression("(x-i0)^-3")
        assert expr.factors[0].label == "(x-i0)^-3"

    def test_unity_atom(self):
        expr = parse_expression("1 * delta")
        assert [f.label for f in expr.factors] == ["1", "delta"]

    def test_derivative_atom(self):
        expr = parse_expression("d(delta)")
        assert expr.factors[0].label == "d(delta)"

    def test_nested_derivative(self):
        expr = parse_expression("d(d(pv(1/x)))")
        assert expr.factors[0].label == "d(d(pv(1/x)))"

    def test_deep_nesting_parses(self):
        # far past the interpreter's recursion limit; every derivative of 1
        # is the zero pair, whose coefficient stays finite
        text = "d(" * 5000 + "1" + ")" * 5000
        [pair] = parse_expression(text).factors
        assert pair.label == text
        assert pair.f_plus.is_zero and pair.f_minus.is_zero

    def test_trailing_power_becomes_monomial(self):
        expr = parse_expression("delta * x^2")
        assert [f.label for f in expr.factors] == ["delta", "x^2"]
        assert expr.powers == (0, 0)

    def test_consecutive_powers_accumulate(self):
        expr = parse_expression("x^1 * x^2 * delta")
        assert expr.powers == (3,)

    def test_whitespace_insensitive(self):
        a = parse_expression("x^2*delta*pv(1/x)")
        b = parse_expression("  x^2 * delta   *  pv(1/x) ")
        assert a == b

    def test_pure_monomial(self):
        expr = parse_expression("x^3")
        assert expr.factors[0].label == "x^3"


class TestParseErrors:
    def test_unknown_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta * heaviside")
        assert err.value.offset == 8

    def test_double_star(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta ** delta")
        assert err.value.offset == 7

    def test_trailing_star(self):
        with pytest.raises(ParseError):
            parse_expression("delta * ")

    def test_missing_closing_paren(self):
        with pytest.raises(ParseError):
            parse_expression("d(delta")

    def test_nested_missing_closing_paren_offset(self):
        with pytest.raises(ParseError, match="expected '\\)'") as err:
            parse_expression("d(d(delta) * delta")
        assert err.value.offset == 11

    def test_zero_inverse_power(self):
        with pytest.raises(ParseError):
            parse_expression("(x+i0)^-0")

    def test_empty_expression(self):
        with pytest.raises(ParseError):
            parse_expression("")

    def test_overflowing_derivative_refused_at_its_opener(self):
        # d^170 of delta has the coefficient 170!/(2 pi) = 1.2e306; d^171
        # overflows, and the 'd(' that takes it is named
        deep = parse_expression("d(" * 170 + "delta" + ")" * 170).factors[0]
        assert deep.f_plus.coeff == pytest.approx(math.factorial(170) / (2 * math.pi) * 1j)
        for depth, offset in ((171, 0), (172, 2), (5000, 2 * (5000 - 171))):
            with pytest.raises(ParseError, match="derivative coefficient is not finite") as err:
                parse_expression("d(" * depth + "delta" + ")" * depth)
            assert err.value.offset == offset
        # a pole order past the largest double overflows the first derivative
        with pytest.raises(ParseError, match="not finite") as err:
            parse_expression("delta * d((x-i0)^-" + "9" * 400 + ")")
        assert err.value.offset == 8

    def test_missing_separator(self):
        with pytest.raises(ParseError) as err:
            parse_expression("delta delta")
        assert err.value.offset == 6

    @pytest.mark.parametrize("text, message, offset", [
        # the whole text is scanned first: an unrecognized token is reported
        # before the missing '*' in front of it
        ("delta delta %", "unrecognized input '%'", 12),
        ("\tdelta * heaviside", "unrecognized input 'heaviside'", 9),
        ("", "expected a factor", 0),
        ("delta * ", "expected a factor", 8),
        ("delta delta", "expected '*' between factors", 6),
        ("d(", "unexpected end of expression", 2),
        ("d(delta", "unexpected end of expression", 7),
        ("d(d(delta) * delta", "expected ')' after derivative atom", 11),
        ("* delta", "expected an atom, found STAR", 0),
        ("d(x^2)", "expected an atom, found XPOW", 2),
        ("x^2 * )", "expected an atom, found RPAREN", 6),
        ("(x-i0)^-0", "atom 'minus_i0_pow' requires an integer parameter >= 1, got 0", 0),
        # past Python's 4300-digit limit for int(): refused at the token
        pytest.param("x^" + "1" * 5000 + " * delta",
                     "integer parameter of 5000 digits is too large", 0, id="x^<5000 digits>"),
        pytest.param("delta * (x+i0)^-" + "9" * 4301,
                     "integer parameter of 4301 digits is too large", 8,
                     id="(x+i0)^-<4301 digits>"),
    ])
    def test_error_message_and_offset(self, text, message, offset):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert str(err.value) == f"{message} (byte offset {offset})"
        assert err.value.offset == offset


_ATOM = st.sampled_from([
    "delta", "pv(1/x)", "(x+i0)^-1", "(x+i0)^-2", "(x-i0)^-1", "1",
    "d(delta)", "d(pv(1/x))", "d(d(delta))",
])
_TERM = st.one_of(_ATOM, st.integers(1, 3).map(lambda k: f"x^{k}"))


@settings(max_examples=80)
@given(st.lists(_TERM, min_size=1, max_size=5))
def test_round_trip_parse_print_parse(terms):
    text = " * ".join(terms)
    first = parse_expression(text)
    printed = first.label
    second = parse_expression(printed)
    assert first == second
    assert second.label == printed


def test_format_canonical_examples():
    assert parse_expression("x^2*delta").label == "x^2 * delta"
    assert parse_expression("delta * x^2").label == "delta * x^2"
    assert parse_expression("x^0 * delta").label == "delta"
    # x^0 alone, or a product of x^0 alone, is the constant 1
    assert parse_expression("x^0").label == "1"
    assert parse_expression("x^0 * x^0").label == "1"


# the scaling degrees of the products whose subtraction orders test_pairing.py pins
_SCALING_DEGREES = {
    0: ["1", "x^1 * delta", "x^2 * delta * delta"],
    1: ["delta", "pv(1/x)"],
    2: ["delta * pv(1/x)", "(x+i0)^-1 * (x+i0)^-1", "(x-i0)^-1 * (x-i0)^-1",
        "(x+i0)^-1 * (x-i0)^-1", "delta * delta", "pv(1/x) * pv(1/x)",
        "(x-i0)^-2 * x^2 * d(delta)", "x^1 * delta * delta * delta"],
    3: ["delta * d(delta)", "delta * delta * delta"],
    4: ["d(delta) * d(delta)", "delta * delta * delta * delta",
        "pv(1/x) * pv(1/x) * pv(1/x) * pv(1/x)"],
    5: ["d(delta) * d(delta) * delta", "d(d(delta)) * d(delta)"],
    6: ["d(delta) * d(delta) * d(delta)", "(x+i0)^-3 * (x-i0)^-3", "d(d(delta)) * d(d(delta))"],
    400: ["(x+i0)^-400"],
}


class TestProductExpression:
    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            ProductExpression(())

    def test_power_bookkeeping(self):
        expr = ProductExpression((catalog("delta"), catalog("one")), (2, 1))
        assert expr.total_power == 3
        assert expr.with_extra_power(2).total_power == 5

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            ProductExpression((catalog("delta"),), (-1,))

    @pytest.mark.parametrize("depth", range(7))
    @pytest.mark.parametrize("atom, sd", [
        ("delta", 1), ("pv(1/x)", 1), ("(x+i0)^-1", 1), ("(x-i0)^-1", 1),
        ("(x+i0)^-3", 3), ("(x-i0)^-2", 2), ("1", 0)])
    def test_scaling_degree_of_atoms(self, atom, sd, depth):
        # each derivative lowers the shared power by one; every derivative of
        # 1 is the zero pair, which counts 0
        text = "d(" * depth + atom + ")" * depth
        want = sd + depth if atom != "1" else 0
        assert parse_expression(text).scaling_degree == want
        # the prefactor power lowers it, and a trailing x^r is a factor of power r
        assert parse_expression(f"x^2 * {text}").scaling_degree == want - 2
        assert parse_expression(f"{text} * x^3").scaling_degree == want - 3

    @pytest.mark.parametrize("text, sd", [
        (text, sd) for sd, texts in _SCALING_DEGREES.items() for text in texts])
    def test_scaling_degree_of_the_catalog(self, text, sd):
        assert parse_expression(text).scaling_degree == sd

    def test_label_round_trips_structure(self):
        expr = ProductExpression(
            (catalog("delta"), catalog("pv_inv_x")), (2, 0)
        )
        assert expr.label == "x^2 * delta * pv(1/x)"


@pytest.mark.parametrize("text, want", [
    ("(x+i0)^-1 * (x-i0)^-1", 1),
    ("(x+i0)^-2 * (x-i0)^-2", 1),
    ("x^1 * (x+i0)^-1 * (x-i0)^-1", -1),
    ("(x+i0)^-1 * (x+i0)^-1 * (x-i0)^-2", 1),
    ("d((x+i0)^-1) * (x-i0)^-2", 1),
    ("delta * (x-i0)^-3 * (x+i0)^-3", 1),
    ("d(delta) * (x+i0)^-1 * (x-i0)^-1", -1),
    ("(x+i0)^-1", None),
    ("(x+i0)^-1 * (x+i0)^-1", None),
    ("(x+i0)^-1 * (x-i0)^-2", None),
    ("d(delta) * (x+i0)^-1", None),
    # a two-sided library factor with no parity: f+ = 1/z, f- = 2/z
    (ProductExpression((HyperfunctionPair(RationalFunction(1.0, -1),
                                          RationalFunction(2.0, -1)),)), None),
])
def test_product_parity(text, want):
    # the one-sided factors have a joint parity, +1, when their (+)-side and
    # (-)-side powers sum to the same; checked on the kernel's values
    expr = text if isinstance(text, ProductExpression) else parse_expression(text)
    assert expr.parity == want

    def kernel(x, y):
        value = x**expr.total_power
        for pair in expr.factors:
            value = value * pair.regulated(x, y)
        return value

    x = np.linspace(0.2, 2.0, 10)
    for y in (1.0, 0.1, 1e-3):
        plus, minus = kernel(x, y), kernel(-x, y)
        even = np.allclose(minus, plus, rtol=1e-12, atol=0.0)
        odd = np.allclose(minus, -plus, rtol=1e-12, atol=0.0)
        assert (even, odd) == (want == 1, want == -1)


def test_expression_imports_no_quadrature():
    # the grammar and a product's structure stand alone: the only distprod
    # module they import is boundary, so no Gauss-Kronrod comes with them
    path = os.path.join(os.path.dirname(__file__), "..", "src", "distprod", "expression.py")
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.add("." + (node.module or ""))
            elif node.module.split(".")[0] == "distprod":
                imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names if a.name.split(".")[0] == "distprod")
    assert imported == {".boundary"}
