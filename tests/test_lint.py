"""Source checks that keep invariants typed in the library modules.

`python -O` strips `assert` statements, so the modules below raise a
`WorkbenchError` (usually `InvariantViolation`) instead."""

import ast
from pathlib import Path

import pytest

import workbench

PACKAGE = Path(workbench.__file__).parent


@pytest.mark.parametrize("module", ["modrep", "meataxe", "gf2", "blocks", "solver"])
def test_no_bare_asserts(module):
    path = PACKAGE / f"{module}.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module}.py has assert statements at lines {lines}"
