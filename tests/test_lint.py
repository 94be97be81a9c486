"""Source checks that keep invariants typed in the library modules.

`python -O` strips `assert` statements, and the CLI maps only a
`WorkbenchError` to exit 3, so every module of the package raises a
`WorkbenchError` (usually `InvariantViolation`) for a failed internal check:
no `assert` and no `ArithmeticError`, `RuntimeError` or `AssertionError`."""

import ast
from pathlib import Path

import pytest

import workbench

PACKAGE = Path(workbench.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_bare_asserts(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


UNTYPED = {"ArithmeticError", "RuntimeError", "AssertionError"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_untyped_internal_raises(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                lines.append(node.lineno)
    assert lines == [], f"{path.name} raises untyped errors at lines {lines}"
