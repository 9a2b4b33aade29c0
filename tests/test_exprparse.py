import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diracnsbf.exprparse import (
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Var,
    evaluate,
    evaluate_on_grid,
    parse,
)
from diracnsbf.grid import Grid


def to_source(node):
    """Fully parenthesized source form; parse(to_source(t)) == t."""
    if isinstance(node, Num):
        v = node.value
        if v.imag == 0.0:
            return repr(v.real)
        if v.real == 0.0:
            return repr(v.imag) + "i"
        return "(%r+%ri)" % (v.real, v.imag)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return "(-%s)" % to_source(node.operand)
    if isinstance(node, BinOp):
        return "(%s%s%s)" % (to_source(node.lhs), node.op, to_source(node.rhs))
    if isinstance(node, Call):
        return "%s(%s)" % (node.name, to_source(node.arg))
    raise TypeError("not an expression node: %r" % (node,))


def val(src, x=None):
    return np.complex128(evaluate(parse(src), x))


class TestParseEvaluate:
    def test_variable(self):
        assert val("x", 0.3) == pytest.approx(0.3)

    def test_negated_variable(self):
        assert val("-x", 0.25) == pytest.approx(-0.25)

    def test_two_sin_squared(self):
        # 2 sin(pi/4)^2 = 1
        assert val("2*sin(pi*x)^2", 0.25) == pytest.approx(1.0, abs=1e-14)

    def test_literals(self):
        assert val("42") == 42
        assert val("3.5e2") == 350.0
        assert val(".5") == 0.5

    def test_imaginary_literals(self):
        assert val("1i") == 1j
        assert val("0.5i") == 0.5j
        assert val("1+2i") == 1 + 2j

    def test_constants(self):
        assert val("pi") == pytest.approx(np.pi)
        assert val("exp(x)", 1.0) == pytest.approx(2.718281828459045)

    def test_precedence_mul_over_add(self):
        assert val("2+3*4") == 14

    def test_power_right_associative(self):
        assert val("2^3^2") == 512

    def test_unary_minus_looser_than_power(self):
        assert val("-2^2") == -4
        assert val("(0-3)^2") == 9

    def test_power_with_negative_exponent(self):
        assert val("2^-1") == 0.5

    def test_division(self):
        assert val("x/4", 1.0) == 0.25

    def test_functions(self):
        assert val("sinh(1)") == pytest.approx(np.sinh(1))
        assert val("sqrt(4)") == pytest.approx(2.0)
        assert val("abs(0-3)") == pytest.approx(3.0)
        assert val("tan(0.5)") == pytest.approx(np.tan(0.5))

    def test_whitespace_insensitive(self):
        assert val(" 1 +  2 * x ", 2.0) == 5.0

    def test_complex_arithmetic(self):
        assert val("(1+1i)*(1-1i)") == pytest.approx(2.0)
        assert val("sqrt(0-1)") == pytest.approx(1j)


class TestErrors:
    def test_unknown_identifier(self):
        with pytest.raises(ParseError) as exc:
            parse("2*foo")
        assert exc.value.position == 2

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            parse("sin(x")
        with pytest.raises(ParseError):
            parse("(1+2")

    def test_unexpected_token(self):
        with pytest.raises(ParseError):
            parse("1+*2")
        with pytest.raises(ParseError):
            parse("")

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse("1 + $")
        assert exc.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1 2")

    def test_variable_rejected_for_constants(self):
        with pytest.raises(ValueError):
            evaluate(parse("2*x"))

    def test_division_by_zero_on_grid(self):
        g = Grid(1.0, 50)
        with pytest.raises(ArithmeticError) as exc:
            evaluate_on_grid(parse("1/x"), g)
        assert "node 0" in str(exc.value)


class TestGridEvaluation:
    def test_constant_expression_broadcasts(self):
        g = Grid(1.0, 50)
        vals = evaluate_on_grid(parse("0"), g)
        assert vals.shape == g.nodes.shape
        assert np.all(vals == 0)

    def test_imaginary_constant(self):
        g = Grid(1.0, 50)
        vals = evaluate_on_grid(parse("1i"), g)
        assert np.all(vals == 1j)

    def test_exp_at_node(self):
        g = Grid(1.0, 50)
        vals = evaluate_on_grid(parse("exp(x)"), g)
        assert vals[-1] == pytest.approx(2.7182818284590452)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "src",
        [
            "x",
            "-x",
            "2*sin(pi*x)^2",
            "1+2i",
            "(x+1)/(x-2)",
            "cosh(sqrt(abs(x)))",
            "2^-x",
            "-(1/x)^3",
        ],
    )
    def test_parse_print_parse(self, src):
        tree = parse(src)
        assert parse(to_source(tree)) == tree


class TestProperties:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.floats(0.1, 9.9),
        st.floats(0.1, 9.9),
        st.floats(0.1, 3.0),
    )
    def test_precedence_identities(self, a, b, c):
        fa, fb, fc = (repr(t) for t in (a, b, c))
        lhs = val(f"{fa}+{fb}*{fc}")
        rhs = val(f"{fa}+({fb}*{fc})")
        assert lhs == rhs
        lhs = val(f"{fa}^{fb}^{fc}")
        rhs = val(f"{fa}^({fb}^{fc})")
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)
        lhs = val(f"-{fa}^{fb}")
        rhs = val(f"-({fa}^{fb})")
        np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.text(
            alphabet="0123456789.+-*/^()xei psincoq",
            min_size=0,
            max_size=30,
        )
    )
    def test_fuzz_never_crashes(self, soup):
        # any input either parses or raises a positioned ParseError
        try:
            parse(soup)
        except ParseError as exc:
            assert 0 <= exc.position <= len(soup)
