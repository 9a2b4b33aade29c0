"""Recursive-descent parser for scalar potential expressions in x.

Grammar (whitespace insensitive):

    expr   :=  term (('+' | '-') term)*
    term   :=  unary (('*' | '/') unary)*
    unary  :=  '-' unary | power
    power  :=  atom ('^' unary)?          # right associative
    atom   :=  NUMBER | NUMBER 'i' | 'pi' | 'e' | 'x'
             | FUNC '(' expr ')' | '(' expr ')'
    FUNC   :=  sin | cos | tan | exp | sinh | cosh | sqrt | abs

so '^' binds tighter than unary minus (-x^2 is -(x^2)), and an imaginary
literal is a decimal number with an 'i' suffix (0.5i, 2i).  There are no
user variables beyond x and no implicit multiplication.  Parse failures
raise ParseError with the offending position.
"""

import re
from dataclasses import dataclass

import numpy as np

__all__ = ["ParseError", "parse", "evaluate", "evaluate_on_grid"]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "sinh": np.sinh,
    "cosh": np.cosh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}
_CONSTANTS = {"pi": complex(np.pi), "e": complex(np.e)}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?i?)"
    r"|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>[-+*/^()]))"
)


class ParseError(ValueError):
    """Syntax or evaluation error with a source position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


@dataclass(frozen=True)
class Num:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: object
    rhs: object


@dataclass(frozen=True)
class Call:
    name: str
    arg: object


def _tokenize(source):
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(
                "unexpected character %r" % stripped[0],
                len(source) - len(stripped),
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source):
        self.source = source
        self.tokens = _tokenize(source)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def take(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect_op(self, op):
        kind, text, pos = self.peek()
        if kind != "op" or text != op:
            raise ParseError("expected %r" % op, pos)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, text, pos = self.peek()
        if kind != "end":
            raise ParseError("unexpected token %r" % text, pos)
        return node

    def expr(self):
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.take()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self):
        node = self.unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.take()
                node = BinOp(text, node, self.unary())
            else:
                return node

    def unary(self):
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.take()
            return BinOp("^", node, self.unary())
        return node

    def atom(self):
        kind, text, pos = self.take()
        if kind == "num":
            if text.endswith("i"):
                return Num(1j * float(text[:-1]))
            return Num(complex(float(text)))
        if kind == "ident":
            if text == "x":
                return Var()
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text])
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            raise ParseError("unknown identifier %r" % text, pos)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError("unexpected token %r" % (text or "end of input"), pos)


def parse(source):
    """Parse an expression in x into an immutable syntax tree."""
    return _Parser(source).parse()


def evaluate(node, x=None):
    """Evaluate at x (scalar or array); x=None rejects the variable."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if x is None:
            raise ValueError("expression depends on x but no x was supplied")
        return np.asarray(x, dtype=complex)
    if isinstance(node, Neg):
        return -evaluate(node.operand, x)
    if isinstance(node, Call):
        return np.asarray(_FUNCTIONS[node.name](evaluate(node.arg, x)), dtype=complex)
    # numpy semantics throughout: overflowing results become inf/nan and
    # are caught by the grid evaluator's finiteness check, never raised
    lhs = np.asarray(evaluate(node.lhs, x), dtype=complex)
    rhs = np.asarray(evaluate(node.rhs, x), dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            return lhs / rhs
        if node.op == "^":
            return lhs**rhs
    raise ValueError("unknown operator %r" % node.op)


def evaluate_on_grid(node, grid):
    """Nodewise values on the grid; non-finite results name the node."""
    vals = np.broadcast_to(
        np.asarray(evaluate(node, grid.nodes), dtype=complex), grid.nodes.shape
    ).copy()
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise ArithmeticError(
            "expression is non-finite at node %d (x = %.17g)" % (i, grid.nodes[i])
        )
    return vals
