"""Checks on the package surface and its source: one tolerance knob, and no
imports left behind when code is removed."""

import ast
import inspect
from pathlib import Path

import pytest

import stiefel_retract
from stiefel_retract import sampling

SOURCES = sorted(Path(stiefel_retract.__file__).parent.glob("*.py"))


def _public_callables():
    for name in stiefel_retract.__all__:
        obj = getattr(stiefel_retract, name)
        # Exception classes take a message; builtin bases expose no signature.
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, BaseException)):
            yield name, obj
    yield "sampling.generate_injective", sampling.generate_injective


def test_only_validate_injective_takes_a_tolerance():
    # Tolerances are the core constants; validate_injective keeps tol_rank so
    # callers can build loosely validated inputs.
    knobs = {
        name: [p for p in inspect.signature(fn).parameters if p.startswith("tol_")]
        for name, fn in _public_callables()
    }
    assert {name: params for name, params in knobs.items() if params} == {
        "validate_injective": ["tol_rank"]
    }


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_no_unused_imports(path):
    # No linter ships with the test dependencies; ``__init__.py`` is skipped
    # because its imports are the package's re-exports.
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {
        name: line for name, line in _imported_names(tree).items() if name not in used
    }
    assert unused == {}
