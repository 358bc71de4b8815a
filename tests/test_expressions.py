import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nodalrec.errors import ExpressionError
from nodalrec.expressions import compile_expression, is_zero_expression


def test_basic_eval():
    f = compile_expression("x/2 - pi/4", ("x",))
    assert f(math.pi / 2) == pytest.approx(0.0)
    assert f(0.0) == pytest.approx(-math.pi / 4)


def test_two_variable_kernel():
    k = compile_expression("sin((x+t)/2) - 2/pi", ("x", "t"))
    assert k(0.3, 0.1) == pytest.approx(math.sin(0.2) - 2 / math.pi)


def test_vectorized_broadcast():
    f = compile_expression("cos(x)", ("x",))
    xs = np.linspace(0, math.pi, 7)
    assert np.allclose(f(xs), np.cos(xs))


def test_constants_and_functions():
    f = compile_expression("exp(1) - e", ("x",))
    assert abs(f(0.0)) < 1e-15


def test_zero_detection():
    assert is_zero_expression(compile_expression("0", ("x",)))
    assert is_zero_expression(compile_expression("0.0", ("x",)))
    assert not is_zero_expression(compile_expression("x", ("x",)))


@pytest.mark.parametrize("bad", [
    "import os",
    "__builtins__",
    "x.__class__",
    "lambda y: y",
    "open('f')",
    "x; x",
    "unknown_fn(x)",
    "t",  # undeclared variable for a 1-var expression
])
def test_rejected_sources(bad):
    with pytest.raises(ExpressionError):
        compile_expression(bad, ("x",))


@pytest.mark.parametrize("source, variables, fragment", [
    ("1/0", ("x",), "division by zero"),
    ("10^400", ("x",), "out of range"),
    ("(-1)^0.5", ("x",), "complex"),
    ("2^2000", ("x", "t"), "out of range"),
    ("sin((-1)^0.5)", ("x",), "complex"),
])
def test_unevaluable_constant_rejected(source, variables, fragment):
    with pytest.raises(ExpressionError) as info:
        compile_expression(source, variables, name="V")
    assert str(info.value).startswith(f"V: cannot evaluate {source!r}")
    assert fragment in str(info.value)
    assert info.value.category == "parse"


@pytest.mark.parametrize("source, part, fragment", [
    ("x*(-1)^0.5 - pi/2*(-1)^0.5", "(-1)**0.5", "complex"),
    ("x + 1/0", "1/0", "division by zero"),
])
def test_unevaluable_constant_part_rejected(source, part, fragment):
    # a part without variables is evaluated once, when compiled, so it fails
    # even though the expression as a whole has variables
    with pytest.raises(ExpressionError) as info:
        compile_expression(source, ("x",), name="V")
    assert str(info.value).startswith(f"V: cannot evaluate {part!r} in {source!r}")
    assert fragment in str(info.value)
    assert info.value.category == "parse"


def test_folded_constant_parts_keep_their_values():
    xs = np.linspace(0.0, math.pi, 9)
    f = compile_expression("2*pi*x + sin(1)^2 - x*exp(-1)/3", ("x",))
    assert np.array_equal(f(xs), 2 * math.pi * xs + np.sin(1.0) ** 2 - xs * np.exp(-1.0) / 3)


@pytest.mark.parametrize("source, message", [
    ("cos(x)*True", "V: literal True not allowed (line 1, column 8)"),
    ("x + False", "V: literal False not allowed (line 1, column 5)"),
    ("x % 2", "V: operator Mod not allowed (line 1, column 1)"),
    ("not x", "V: unary Not not allowed (line 1, column 1)"),
    ("~x", "V: unary Invert not allowed (line 1, column 1)"),
    ("'x'", "V: literal 'x' not allowed (line 1, column 1)"),
    ("sin(x, x)", "V: sin takes exactly one argument (line 1, column 1)"),
    (3.0, "V: expression must be a string, got float"),
], ids=["true", "false", "mod", "not", "invert", "string", "two-arguments", "not-a-string"])
def test_construct_outside_the_grammar_rejected(source, message):
    # bool is a subclass of int, yet True and False are not numeric literals
    with pytest.raises(ExpressionError) as info:
        compile_expression(source, ("x",), name="V")
    assert str(info.value) == message
    assert info.value.category == "parse"


def test_compiled_callable_takes_one_argument_per_variable():
    k = compile_expression("x*t", ("x", "t"), name="chi.12")
    with pytest.raises(TypeError, match=r"^chi\.12 expects 2 argument\(s\), got 1$"):
        k(1.0)


def test_out_of_range_literal_rejected():
    with pytest.raises(ExpressionError, match="literal out of the float range"):
        compile_expression("x + 1" + "0" * 400, ("x",))


def test_syntax_error_carries_location():
    with pytest.raises(ExpressionError) as info:
        compile_expression("sin(x", ("x",))
    assert "column" in str(info.value)


@given(st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_polynomial_matches_python(x):
    f = compile_expression("x*x/3 + 2*x - 1", ("x",))
    assert f(x) == pytest.approx(x * x / 3 + 2 * x - 1, rel=1e-12, abs=1e-12)
