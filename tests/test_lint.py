"""Source checks that keep invariants typed in the library modules.

`python -O` strips `assert` statements, so every module of the package
raises a `WorkbenchError` (usually `InvariantViolation`) instead."""

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
