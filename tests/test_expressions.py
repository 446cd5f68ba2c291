"""Parser and evaluator tests, including an independent shunting-yard oracle."""

import cmath
import math
import re

import numpy as np
import pytest

from mvloewner import EvaluationError, ExpressionError, evaluate, parse, to_string
from mvloewner.expressions import BinaryOp, Constant, Negate, PiConstant, Power, Variable


def test_parse_simple_rational():
    tree = parse("(s^2+4)/(s+1)", ["s"])
    assert isinstance(tree, BinaryOp) and tree.op == "/"
    assert tree.left == BinaryOp("+", Power(Variable("s"), 2), Constant(4.0))


def test_parse_high_degree_with_pi():
    tree = parse("x1^10 + x13^3*pi", [f"x{i}" for i in range(1, 21)])
    assert tree == BinaryOp(
        "+",
        Power(Variable("x1"), 10),
        BinaryOp("*", Power(Variable("x13"), 3), PiConstant()),
    )


def test_negative_exponent_rejected():
    with pytest.raises(ExpressionError, match="negative exponent"):
        parse("s^-1", ["s"])


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError, match="non-integer"):
        parse("s^1.5", ["s"])


def test_unknown_identifier_rejected_with_position():
    with pytest.raises(ExpressionError) as info:
        parse("s + qq", ["s"])
    assert info.value.position == 4


@pytest.mark.parametrize("name", ["pi", "a b", " s", "x-1", "2x", "", 5])
def test_a_declared_name_an_expression_cannot_address_is_refused(name):
    # "pi" would read as the constant, and the others are no single identifier
    message = f"variable name {re.escape(repr(name))} cannot appear in an expression"
    with pytest.raises(ExpressionError, match=message):
        parse("1", ["s", name])


def test_empty_and_trailing_input():
    with pytest.raises(ExpressionError):
        parse("   ", ["s"])
    with pytest.raises(ExpressionError, match="trailing"):
        parse("s s", ["s"])


def test_precedence_and_associativity():
    assert parse("2-3-4", []) == BinaryOp(
        "-", BinaryOp("-", Constant(2.0), Constant(3.0)), Constant(4.0)
    )
    # power binds tighter than unary minus
    assert parse("-s^2", ["s"]) == Negate(Power(Variable("s"), 2))
    assert parse("(-s)^2", ["s"]) == Power(Negate(Variable("s")), 2)
    assert evaluate(parse("2+3*4^2", []), {}) == pytest.approx(50)


def test_evaluate_worked_values():
    h1 = parse("(s^2+4)/(s+1)", ["s"])
    assert evaluate(h1, {"s": 1}) == pytest.approx(5 / 2)
    h3 = parse("(s+p*t)/(p^2+s+t)", ["s", "t", "p"])
    assert evaluate(h3, {"s": 2, "t": 1, "p": 5}) == pytest.approx(1 / 4)


def test_division_by_zero_and_missing_variable():
    expr = parse("1/(s-1)", ["s"])
    with pytest.raises(EvaluationError, match="division by zero"):
        evaluate(expr, {"s": 1})
    with pytest.raises(EvaluationError, match="no value"):
        evaluate(expr, {})


def test_evaluate_broadcasts_over_arrays():
    expr = parse("(s^2+4)/(s+1)", ["s"])
    s = np.array([1.0, 3.0, 5.0])
    np.testing.assert_allclose(evaluate(expr, {"s": s}), (s**2 + 4) / (s + 1))


def test_array_division_by_zero_detected():
    expr = parse("1/(s-1)", ["s"])
    with pytest.raises(EvaluationError):
        evaluate(expr, {"s": np.array([0.0, 1.0])})


def test_printer_round_trip_is_stable():
    for text in [
        "(s^2+4)/(s+1)",
        "-s^2 + 3*(t - -2)/(s*t - 1)",
        "1/(1+25*(s+p)^2)+0.5/(1+25*(s-0.5)^2)+0.1/(p+25)",
        "s - (t - p) - s/(t/p)",
        "2e-3*s + 1.5E+2",
    ]:
        names = ["s", "t", "p"]
        once = parse(text, names)
        printed = to_string(once)
        again = parse(printed, names)
        assert again == once
        assert to_string(again) == printed


# --- independent oracle: shunting-yard evaluation of random expressions ---

_PREC = {"u-": 3, "^": 4, "*": 2, "/": 2, "+": 1, "-": 1}


def _shunting_yard_eval(text, assignment):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE" or (
                text[j] in "+-" and text[j - 1] in "eE"
            )):
                j += 1
            tokens.append(("num", float(text[i:j])))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            tokens.append(("num", cmath.pi) if name == "pi" else ("var", name))
            i = j
        else:
            tokens.append(("op", ch))
            i += 1

    output, stack = [], []
    prev = None
    for kind, value in tokens:
        if kind in ("num", "var"):
            output.append((kind, value))
        elif value == "(":
            stack.append("(")
        elif value == ")":
            while stack[-1] != "(":
                output.append(("op", stack.pop()))
            stack.pop()
        else:
            op = value
            if op == "-" and prev not in ("num", "var", ")"):
                op = "u-"
            while (
                stack
                and stack[-1] != "("
                and (
                    _PREC[stack[-1]] > _PREC[op]
                    or (_PREC[stack[-1]] == _PREC[op] and op != "u-")
                )
            ):
                output.append(("op", stack.pop()))
            stack.append(op)
        prev = value if kind == "op" else kind
    while stack:
        output.append(("op", stack.pop()))

    values = []
    for kind, value in output:
        if kind == "num":
            values.append(complex(value))
        elif kind == "var":
            values.append(complex(assignment[value]))
        elif value == "u-":
            values.append(-values.pop())
        else:
            b, a = values.pop(), values.pop()
            if value == "+":
                values.append(a + b)
            elif value == "-":
                values.append(a - b)
            elif value == "*":
                values.append(a * b)
            elif value == "/":
                values.append(a / b)
            else:
                values.append(a ** int(b.real))
    assert len(values) == 1
    return values[0]


def _random_expression(rng, names, depth):
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        choice = rng.random()
        if choice < 0.4:
            return str(rng.integers(1, 9))
        if choice < 0.5:
            return f"{rng.uniform(0.1, 5):.3f}"
        if choice < 0.55:
            return "pi"
        return str(rng.choice(names))
    if roll < 0.35:
        return f"-({_random_expression(rng, names, depth - 1)})"
    if roll < 0.5:
        base = str(rng.choice(names))
        return f"{base}^{rng.integers(0, 5)}"
    op = rng.choice(["+", "-", "*", "/"])
    left = _random_expression(rng, names, depth - 1)
    right = _random_expression(rng, names, depth - 1)
    return f"({left}){op}({right})"


def test_evaluator_matches_shunting_yard_oracle():
    rng = np.random.default_rng(2024)
    names = ["s", "t", "p"]
    checked = 0
    while checked < 1000:
        text = _random_expression(rng, names, depth=4)
        expr = parse(text, names)
        point = {name: complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for name in names}
        try:
            mine = evaluate(expr, point)
        except EvaluationError:
            continue
        reference = _shunting_yard_eval(text, point)
        if abs(reference) > 1e12 or not (math.isfinite(reference.real) and math.isfinite(reference.imag)):
            continue
        assert mine == pytest.approx(reference, rel=1e-14, abs=1e-13)
        checked += 1
