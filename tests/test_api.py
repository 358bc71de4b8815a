"""The package root exports what the README documents, and every error
class."""

import inspect
import re
from pathlib import Path

import nodalrec
import nodalrec.errors as errors

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
ERRORS = {name for name, obj in vars(errors).items()
          if inspect.isclass(obj) and issubclass(obj, errors.NodalrecError)}


def test_exported_names_are_documented():
    in_backticks = set(re.findall(r"`([^`\s]+)`", README))
    missing = [name for name in nodalrec.__all__ if name not in ERRORS | in_backticks]
    assert not missing, f"exported but not in backticks in README.md: {missing}"


def test_every_error_class_is_exported():
    assert ERRORS
    assert not ERRORS - set(nodalrec.__all__)
