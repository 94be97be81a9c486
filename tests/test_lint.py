"""Source checks that keep invariants typed in the library modules.

`python -O` strips `assert` statements, and the CLI maps only a
`WorkbenchError` to exit 3, so every module of the package raises a
`WorkbenchError` (usually `InvariantViolation`) for a failed internal check:
no `assert` and no `ArithmeticError`, `RuntimeError` or `AssertionError`.
A module-level UPPER_CASE constant that no module of the package reads is
dead code and fails the lint too, as does a name a module imports and never
uses, and an import inside a function: none of the package's imports breaks
a cycle, so each belongs at the top of its module.  A function, class or
method that nothing in the package refers to is there only for the tests,
and fails the lint unless it is a traced boundary (`perfbench/spans.py`)
or on the allowlist of public checks.  Only `perm` reads a group's `index`
dict, whose keys are the closure's own (bytes up to degree 256): every
other module, and the oracles, go through `idx` and `in`.  Only `perm`
reads a group's private tables (its closure, BFS slots, root, conjugation
rows and classes): other modules reach them through `perm` methods."""

import ast
from pathlib import Path

import pytest

import workbench

PACKAGE = Path(workbench.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
ORACLES = Path(__file__).resolve().parent / "oracles.py"


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


# Public checks and views of the paper's objects that no package code calls
# today; they are API for callers of the library, not helpers of a function.
PUBLIC_CHECKS = {
    "blocks.couple_conjugacy_check", "modrep.o2_principal_check", "perm.cycle_notation",
    "pgroup.count_real_columns", "pgroup.expected_reality", "solver.count_real_characters",
    "solver.nonreal_brauer_count", "solver.predicted_multiplicities",
    "solver.MoritaProfile.symbolic_rows", "solver.MoritaProfile.column_names",
    "gf2.BitMatrix.from_lists", "gf2.BitMatrix.from_text", "gf2.BitMatrix.is_zero",
}


def _definitions(stem, tree):
    """(qualified name, node) for each top-level function and class of a
    module and each method of its classes, dunder methods aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{stem}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (sub.name.startswith("__") and sub.name.endswith("__"))):
                    yield f"{stem}.{node.name}.{sub.name}", sub


def test_no_test_only_helpers():
    # a helper that nothing in the package uses is deleted or moved to the
    # tests; a reference is a name or an attribute outside the definition,
    # and a method is referenced only as an attribute, so that a function
    # of the same name does not count as its use
    boundaries = set(ast.literal_eval(next(
        node.value for node in ast.parse(SPANS.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "BOUNDARIES")))
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                refs.setdefault(node.id if isinstance(node, ast.Name) else node.attr,
                                []).append(node)
    unused = []
    for stem, tree in trees.items():
        for name, node in _definitions(stem, tree):
            inside = {id(sub) for sub in ast.walk(node)}
            kinds = ast.Attribute if name.count(".") == 2 else (ast.Name, ast.Attribute)
            if not any(id(ref) not in inside and isinstance(ref, kinds)
                       for ref in refs.get(node.name, ())):
                unused.append(name)
    flagged = sorted(set(unused) - boundaries - PUBLIC_CHECKS)
    assert flagged == [], f"only tests call these package functions: {flagged}"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "perm"] + [ORACLES],
                         ids=[p.stem for p in MODULES if p.stem != "perm"] + ["oracles"])
def test_only_perm_reads_group_index(path):
    # `x.index(...)` is a list or bytes method and stays; any other read of
    # an `index` attribute (a subscript, `in`, `.get`) is a group's dict
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "index" and id(node) not in calls]
    assert lines == [], f"{path.name} reads a group's index at lines {lines}"


GROUP_TABLES = {"_tables", "_closure", "_members", "_parent", "_conjugations", "_classes"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "perm"],
                         ids=[p.stem for p in MODULES if p.stem != "perm"])
def test_only_perm_reads_group_tables(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in GROUP_TABLES]
    assert lines == [], f"{path.name} reads a group's private tables at lines {lines}"
