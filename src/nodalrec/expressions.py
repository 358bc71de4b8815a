"""Tiny safe expression language for problem files.

Grammar: arithmetic (+ - * /), powers (** or ^), unary minus, the functions
sin, cos, exp, the constants pi and e, numeric literals, and the declared
variable names (``x`` for coefficients, ``x`` and ``t`` for kernels).
Anything else is rejected with a position, never evaluated.
"""

import ast
import math

import numpy as np

from .errors import ExpressionError

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_SCOPE = {"__builtins__": {}, **_FUNCTIONS, **_CONSTANTS}

_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


def _reject(node, message, where):  # where: the expression's (name, source)
    name, source = where
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0) + 1
    raise ExpressionError(f"{name}: {message}", line=line, column=col, source=source)


def _check(node, variables, where):
    if isinstance(node, ast.Expression):
        _check(node.body, variables, where)
    elif isinstance(node, ast.BinOp):
        if not isinstance(node.op, _BINOPS):
            _reject(node, f"operator {type(node.op).__name__} not allowed", where)
        _check(node.left, variables, where)
        _check(node.right, variables, where)
    elif isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            _reject(node, f"unary {type(node.op).__name__} not allowed", where)
        _check(node.operand, variables, where)
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            _reject(node, f"literal {node.value!r} not allowed", where)
        try:
            node.value = float(node.value)
        except OverflowError:
            _reject(node, "literal out of the float range", where)
    elif isinstance(node, ast.Name):
        if node.id not in variables and node.id not in _CONSTANTS:
            _reject(node, f"unknown name '{node.id}'", where)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCTIONS:
            _reject(node, "only sin, cos, exp may be called", where)
        if len(node.args) != 1 or node.keywords:
            _reject(node, f"{node.func.id} takes exactly one argument", where)
        _check(node.args[0], variables, where)
    else:
        _reject(node, f"{type(node).__name__} not allowed", where)


def _fold(tree, variables, name, source, prepared):
    """tree with each largest subtree free of variables replaced by its value,
    computed once by the functions the compiled callable uses, so values are
    unchanged.  A subtree with no real value (a complex value, or an
    arithmetic error) raises ExpressionError."""

    def fold(node):
        if isinstance(node, ast.Constant):
            return node
        if any(isinstance(n, ast.Name) and n.id in variables for n in ast.walk(node)):
            if isinstance(node, ast.BinOp):
                node.left, node.right = fold(node.left), fold(node.right)
            elif isinstance(node, ast.UnaryOp):
                node.operand = fold(node.operand)
            elif isinstance(node, ast.Call):
                node.args = [fold(node.args[0])]
            return node
        try:
            value = eval(compile(ast.Expression(node), name, "eval"), _SCOPE)
            if isinstance(value, complex):
                raise ArithmeticError(f"complex value {value!r}")
        except ArithmeticError as exc:
            part = "" if node is tree.body else f"{ast.get_source_segment(prepared, node)!r} in "
            raise ExpressionError(f"{name}: cannot evaluate {part}{source!r} ({exc.args[-1]})",
                                  source=source) from None
        return ast.copy_location(ast.Constant(float(value)), node)

    tree.body = fold(tree.body)
    return tree


def compile_expression(source, variables=("x",), name="<expression>"):
    """Compile an expression string into a numpy-broadcasting callable.

    The callable takes one positional argument per entry of ``variables``
    (scalars or arrays) and returns a float array of the broadcast shape
    (a float for all-scalar input).  Raises ExpressionError, its message
    starting with name, with 1-based line/column on any construct outside
    the grammar, and when a part without variables (evaluated here, once:
    _fold) has no real value.
    """
    if not isinstance(source, str):
        raise ExpressionError(f"{name}: expression must be a string, got {type(source).__name__}")
    # '^' is accepted as a power spelling; Python's ast would parse it as xor.
    prepared = source.replace("^", "**")
    try:
        tree = ast.parse(prepared, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(
            f"{name}: {exc.msg}", line=exc.lineno or 1, column=exc.offset or 1, source=source
        ) from None
    _check(tree, variables, (name, source))
    tree = _fold(tree, variables, name, source, prepared)
    code = compile(tree, name, "eval")
    constant = tree.body.value if isinstance(tree.body, ast.Constant) else None

    def fn(*args):
        if len(args) != len(variables):
            raise TypeError(f"{name} expects {len(variables)} argument(s), got {len(args)}")
        arrays = [np.asarray(a, dtype=float) for a in args]
        shape = np.broadcast_shapes(*(a.shape for a in arrays)) if arrays else ()
        out = np.asarray(eval(code, _SCOPE, dict(zip(variables, arrays))), dtype=float)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return float(out) if out.ndim == 0 else out

    fn.constant_value = constant
    fn.__name__ = name
    return fn


def is_zero_expression(fn):
    """True when the compiled expression folds to the literal constant 0."""
    return getattr(fn, "constant_value", None) == 0.0
