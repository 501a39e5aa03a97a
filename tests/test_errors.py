"""The error contract: every input fault raises a DensfdaError, and the
package neither raises the built-in ValueError or KeyError itself nor
catches every exception."""

import ast
import inspect
from pathlib import Path

import densfda
from densfda import errors

SOURCES = sorted(Path(densfda.__file__).parent.glob("*.py"))


def _names(node) -> list:
    """The names an ``except`` clause or a ``raise`` statement refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    return [node.id] if isinstance(node, ast.Name) else []


def test_no_built_in_raise_and_no_catch_all():
    found, raises = [], 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                raises += 1
                found += [f"{where} raise {n}" for n in _names(node.exc) if n in ("ValueError", "KeyError")]
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    found.append(f"{where} bare except")
                found += [f"{where} except {n}" for n in _names(node.type) if n in ("Exception", "BaseException")]
    assert raises > 30  # the walk saw the package's raise statements
    assert found == []


def test_every_error_is_a_densfda_error():
    classes = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]
    faults = [c for c in classes if not issubclass(c, Warning)]
    assert errors.BadArgumentError in faults
    assert all(issubclass(c, errors.DensfdaError) for c in faults)
    assert issubclass(errors.BadArgumentError, ValueError)
