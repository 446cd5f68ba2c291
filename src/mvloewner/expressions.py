"""Parsing and evaluation of multivariate rational expressions.

Expressions act as sampling oracles for high-dimensional test functions
where a dense measurement tensor would be too large to materialize.  The
grammar covers exactly the rational-function vocabulary: numeric literals,
``pi``, declared variable names (identifiers other than ``pi``), unary
minus, ``+ - * /`` and nonnegative integer powers written
``base^exponent``.  Precedence from tightest to loosest is power, unary
minus, multiply/divide, add/subtract; binary operators of equal
precedence associate to the left.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ExpressionError

PI = complex(np.pi)


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class PiConstant:
    pass


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Negate:
    operand: "Expression"


@dataclass(frozen=True)
class BinaryOp:
    op: str  # one of "+", "-", "*", "/"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int  # nonnegative


Expression = Constant | PiConstant | Variable | Negate | BinaryOp | Power


# --- tokenizer ---------------------------------------------------------

_OPERATOR_CHARS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | "op" | "end"
    text: str
    position: int


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATOR_CHARS:
            tokens.append(_Token("op", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                m = j + 1
                if m < n and text[m] in "+-":
                    m += 1
                if m < n and text[m].isdigit():
                    while m < n and text[m].isdigit():
                        m += 1
                    j = m
            tokens.append(_Token("number", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


# --- parser ------------------------------------------------------------


class _Parser:
    def __init__(self, text, variable_names):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.variables = set(variable_names)

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        tok = self.advance()
        if tok.kind != "op" or tok.text != symbol:
            raise ExpressionError(f"expected {symbol!r}, found {tok.text!r}", tok.position)
        return tok

    def parse_expression(self):
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinaryOp(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinaryOp(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Negate(self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        while self.peek().kind == "op" and self.peek().text == "^":
            caret = self.advance()
            node = Power(node, self.parse_exponent(caret))
        return node

    def parse_exponent(self, caret):
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            raise ExpressionError("negative exponent is not allowed", tok.position)
        if tok.kind != "number":
            raise ExpressionError("exponent must be an integer literal", caret.position)
        self.advance()
        value = float(tok.text)
        if value != int(value):
            raise ExpressionError(f"non-integer exponent {tok.text!r}", tok.position)
        return int(value)

    def parse_atom(self):
        tok = self.advance()
        if tok.kind == "number":
            return Constant(float(tok.text))
        if tok.kind == "ident":
            if tok.text == "pi":
                return PiConstant()
            if tok.text not in self.variables:
                raise ExpressionError(f"unknown identifier {tok.text!r}", tok.position)
            return Variable(tok.text)
        if tok.kind == "op" and tok.text == "(":
            node = self.parse_expression()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {tok.text!r}", tok.position)


def _check_name(name):
    """Refuse a variable name that an expression cannot address: ``pi`` or not one identifier."""
    try:
        tokens = _tokenize(name) if isinstance(name, str) else []
    except ExpressionError:
        tokens = []
    if name == "pi" or [(t.kind, t.text) for t in tokens] != [("ident", name), ("end", "")]:
        raise ExpressionError(
            f"variable name {name!r} cannot appear in an expression: "
            "it must be one identifier other than 'pi'"
        )


def parse(text, variable_names):
    """Parse ``text`` into an expression tree over the declared variables.

    Parameters
    ----------
    text : str
        Expression source, e.g. ``"(s^2+4)/(s+1)"``.
    variable_names : sequence of str
        Identifiers allowed to appear in the expression (besides ``pi``).

    Returns
    -------
    Expression
        Immutable syntax tree.

    Raises
    ------
    ExpressionError
        On a declared name that is ``pi`` or not one identifier, empty
        input, syntax errors, unknown identifiers, and negative or
        non-integer exponents; carries the offending position.
    """
    for name in variable_names:
        _check_name(name)
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    parser = _Parser(text, variable_names)
    node = parser.parse_expression()
    trailing = parser.peek()
    if trailing.kind != "end":
        raise ExpressionError(f"unexpected trailing input {trailing.text!r}", trailing.position)
    return node


# --- evaluation --------------------------------------------------------


def evaluate(expr, assignment):
    """Evaluate an expression at a point (or elementwise over arrays).

    Parameters
    ----------
    expr : Expression
    assignment : mapping from variable name to complex scalar or ndarray
        Arrays must be mutually broadcastable; the result then has the
        broadcast shape.  A subexpression over scalars alone is computed
        with Python ``complex`` arithmetic, except that it divides by
        numpy's rule, so on real values it rounds as its array form would.

    Returns
    -------
    complex or ndarray

    Raises
    ------
    EvaluationError
        If a referenced variable is missing from ``assignment``, any
        divisor is exactly zero, or a scalar power overflows.
    """
    # dispatch on the exact node type, most frequent first
    kind = type(expr)
    if kind is BinaryOp:
        left = evaluate(expr.left, assignment)
        right = evaluate(expr.right, assignment)
        op = expr.op
        if op == "+":
            return left + right
        if op == "*":
            return left * right
        if op == "-":
            return left - right
        if isinstance(right, np.ndarray):
            if not right.all():
                raise EvaluationError("division by zero")
            return left / right
        if right == 0:
            raise EvaluationError("division by zero")
        if isinstance(left, np.ndarray):
            return left / right
        # numpy's rule, not Python's: numpy multiplies by the reciprocal of
        # Smith's denominator, so a scalar quotient rounds as its array form
        return complex(np.complex128(left) / right)
    if kind is Variable:
        try:
            value = assignment[expr.name]
        except KeyError:
            raise EvaluationError(f"no value assigned to variable {expr.name!r}") from None
        return value if isinstance(value, np.ndarray) else complex(value)
    if kind is Power:
        base = evaluate(expr.base, assignment)
        try:
            return base ** expr.exponent
        except OverflowError:
            # Python's complex power raises where numpy's returns inf
            raise EvaluationError(f"power ^{expr.exponent} overflows") from None
    if kind is Constant:
        return complex(expr.value)
    if kind is PiConstant:
        return PI
    if kind is Negate:
        return -evaluate(expr.operand, assignment)
    raise TypeError(f"not an expression node: {expr!r}")


def variables_of(expr):
    """Return the set of variable names referenced by ``expr``."""
    if isinstance(expr, Variable):
        return {expr.name}
    if isinstance(expr, Negate):
        return variables_of(expr.operand)
    if isinstance(expr, Power):
        return variables_of(expr.base)
    if isinstance(expr, BinaryOp):
        return variables_of(expr.left) | variables_of(expr.right)
    return set()


# --- canonical printer -------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _precedence(expr):
    if isinstance(expr, BinaryOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Negate):
        return _PREC_NEG
    if isinstance(expr, Power):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(text, needed):
    return f"({text})" if needed else text


def to_string(expr):
    """Render an expression canonically; ``parse(to_string(e)) == e``."""
    if isinstance(expr, Constant):
        value = expr.value
        if value == int(value) and abs(value) < 1e16:
            return str(int(value))
        return repr(value)
    if isinstance(expr, PiConstant):
        return "pi"
    if isinstance(expr, Variable):
        return expr.name
    if isinstance(expr, Negate):
        inner = to_string(expr.operand)
        return "-" + _wrap(inner, _precedence(expr.operand) < _PREC_NEG)
    if isinstance(expr, Power):
        base = to_string(expr.base)
        return _wrap(base, _precedence(expr.base) < _PREC_POW) + f"^{expr.exponent}"
    if isinstance(expr, BinaryOp):
        prec = _precedence(expr)
        # parenthesize a same-precedence right child so left associativity
        # reconstructs the original tree
        left = _wrap(to_string(expr.left), _precedence(expr.left) < prec)
        right = _wrap(to_string(expr.right), _precedence(expr.right) <= prec)
        return f"{left}{expr.op}{right}"
    raise TypeError(f"not an expression node: {expr!r}")
