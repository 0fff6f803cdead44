"""Checks on the package surface and its source: no tolerance knob, no
imports left behind when code is removed, private helpers shared between
modules only where listed, one owner of the rank rule and its threshold,
one reader of array input, one writer of number text, triangles read in
place, and acceptance criteria that restate no kernel."""

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
    # Tolerances are the core constants; no operation takes one.
    knobs = {
        name: [p for p in inspect.signature(fn).parameters if p.startswith("tol_")]
        for name, fn in _public_callables()
    }
    assert {name: params for name, params in knobs.items() if params} == {}


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


def test_private_names_cross_modules_only_where_listed():
    # A private helper imported by another module is shared code its owner
    # can no longer change alone, so every such import is listed here.
    crossing = set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                crossing.update(
                    (path.stem, node.module, alias.name)
                    for alias in node.names
                    if alias.name.startswith("_")
                )
    assert crossing <= {
        ("homotopy", "gram_schmidt", "_factor"),
        ("equivariance", "homotopy", "_step"),
    }


def _named(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_library_reads_triangles_without_copying():
    # A triangle's matrix is read-only, so library code reads it in place;
    # to_dense() is the writable copy kept for callers outside the package.
    calling = [
        path.name
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "to_dense"
    ]
    assert calling == []


def test_only_core_runs_a_singular_value_decomposition():
    # Every computed rank verdict and condition estimate comes from
    # core.condition_estimates, so the rule's SVD and its overflow rescale
    # have one owner; an SVD elsewhere would be a second copy of the rule.
    naming = [
        path.name
        for path in SOURCES
        if "svd" in _named(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert naming == ["core.py"]


def test_only_matio_formats_numbers():
    # matio writes numbers with repr, which round-trips exactly; a repr
    # elsewhere would be a second writer of number text.
    naming = [
        path.name
        for path in SOURCES
        if "repr" in _named(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert naming == ["matio.py"]


def test_only_core_and_matio_cast_to_float():
    # core.as_real_array is the one reading of array input, and matio's
    # parsers read text; a float cast anywhere else would be a second rule,
    # with numpy's quiet readings of complex, text and object input.
    def casts(node):
        if isinstance(node, ast.keyword) and node.arg == "dtype":
            return ast.unparse(node.value).split(".")[-1] in {"float", "float64", "double"}
        return isinstance(node, ast.Attribute) and node.attr == "astype"

    naming = [
        path.name
        for path in SOURCES
        if any(map(casts, ast.walk(ast.parse(path.read_text(), filename=str(path)))))
    ]
    assert naming == ["core.py", "matio.py"]


def test_only_listed_modules_name_the_rank_tolerance():
    # core.rank_ratio is the one rank verdict. The sweep's collapse
    # floor is a different rule on residual ratios, selftest prints the
    # threshold in its rows, and __init__ re-exports it; a copy anywhere
    # else, say as an absolute norm floor, would be a second rank rule.
    naming = [
        path.name
        for path in SOURCES
        if "DEFAULT_TOL_RANK" in _named(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert naming == ["__init__.py", "core.py", "gram_schmidt.py", "selftest.py"]


def test_selftest_runs_no_linear_algebra_kernel_of_its_own():
    # Each criterion reads the library's results, so a fault in a kernel
    # fails its row; a criterion with its own SVD or solve would check a
    # copy instead. Norms of the gaps it reports are the one exception.
    path = Path(stiefel_retract.__file__).parent / "selftest.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    linalg = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and ast.unparse(node.value).split(".")[-1] == "linalg"
    }
    imported = [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "")
    ]
    assert linalg <= {"norm"} and imported == []
