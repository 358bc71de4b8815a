"""The package root exports what the README documents, and every error
class; its modules import each other only at their top, without a cycle."""

import ast
import graphlib
import inspect
import re
from pathlib import Path

import nodalrec
import nodalrec.errors as errors

REPO = Path(__file__).resolve().parent.parent
README = (REPO / "README.md").read_text()
ERRORS = {name for name, obj in vars(errors).items()
          if inspect.isclass(obj) and issubclass(obj, errors.NodalrecError)}


def test_exported_names_are_documented():
    in_backticks = set(re.findall(r"`([^`\s]+)`", README))
    missing = [name for name in nodalrec.__all__ if name not in ERRORS | in_backticks]
    assert not missing, f"exported but not in backticks in README.md: {missing}"


def test_every_error_class_is_exported():
    assert ERRORS
    assert not ERRORS - set(nodalrec.__all__)


def _package_imports(tree):
    """(module imported, line, whether inside a function) for each import
    of a nodalrec module in a module's syntax tree."""
    found = []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                names = [child.module.split(".")[0]] if child.module else [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("nodalrec"):
                names = [child.module.partition(".")[2] or "__init__"]
            elif isinstance(child, ast.Import):
                names = [a.name.partition(".")[2] or "__init__" for a in child.names
                         if a.name.split(".")[0] == "nodalrec"]
            else:
                names = []
            found.extend((name, child.lineno, in_function) for name in names)
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def test_modules_import_only_at_the_top_and_without_cycles():
    # a package import inside a function hides a cycle between modules
    graph, lazy = {}, []
    for path in sorted((REPO / "src" / "nodalrec").glob("*.py")):
        imports = _package_imports(ast.parse(path.read_text(), str(path)))
        lazy += [f"{path.name}:{line} imports {name}" for name, line, inner in imports if inner]
        graph[path.stem] = {name for name, _, inner in imports if not inner}
    assert not lazy, f"package imports inside a function: {lazy}"
    assert {"io", "spectrum", "asymptotics", "problem"} <= set(graph)
    try:
        order = list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        cycle = " imports ".join(reversed(exc.args[1]))
        raise AssertionError(f"module imports form a cycle: {cycle}") from None
    assert set(order) <= set(graph), f"imports of no module in the package: {set(order) - set(graph)}"
