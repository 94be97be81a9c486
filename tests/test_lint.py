"""Source checks that keep invariants typed in the library modules.

`python -O` strips `assert` statements, and the CLI maps only a
`WorkbenchError` to exit 3, so every module of the package raises a
`WorkbenchError` (usually `InvariantViolation`) for a failed internal check:
no `assert` and no `ArithmeticError`, `RuntimeError` or `AssertionError`.
A module-level UPPER_CASE constant that no module of the package reads is
dead code and fails the lint too, as does a name a module imports and never
uses, and an import inside a function: none of the package's imports breaks
a cycle, so each belongs at the top of its module."""

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


def _module_constants(tree):
    """Names of the UPPER_CASE constants a module assigns at top level."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        names += [t.id for t in targets if isinstance(t, ast.Name)
                  and t.id.upper() == t.id and any(ch.isalpha() for ch in t.id)]
    return names


def test_module_constants_are_read():
    # a module-level constant that no module of the package reads is dead
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else node.attr)
    unread = [f"{stem}.{name}" for stem, tree in trees.items()
              for name in _module_constants(tree) if name not in read]
    assert unread == [], f"module constants nobody reads: {unread}"


def _unused_imports(tree):
    """Names a module imports at top level (`from __future__` aside) but
    never loads."""
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in loaded)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = _unused_imports(tree)
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_function_level_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = sorted({sub.lineno for node in ast.walk(tree)
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    for sub in ast.walk(node)
                    if isinstance(sub, (ast.Import, ast.ImportFrom))})
    assert lines == [], f"{path.name} imports inside functions at lines {lines}"
