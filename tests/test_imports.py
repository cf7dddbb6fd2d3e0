"""Every name a module imports is used in that module, every public name
of the package, down to the methods and properties of its classes, is used
by a route: the package itself, the scripts or the benchmark, no route
imports the exact search, and no assert statement guards the package."""

import ast
from pathlib import Path

import pytest

import huntrab

PACKAGE = Path(huntrab.__file__).parent
ROOT = PACKAGE.parent.parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))
# the benchmark's own tests call the package like the other tests do
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py") if p.name != "test_bench.py")


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"))


def imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def referenced_names(tree: ast.AST) -> set[str]:
    """Names read as a variable or as an attribute anywhere in the tree."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def public_names(tree: ast.Module) -> dict[str, str]:
    """Top-level functions, classes and constants, and the methods and
    properties of the classes, not marked private: each qualified name
    mapped to the name a use reads."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names[node.name] = node.name
        elif isinstance(node, ast.Assign):
            names.update((t.id, t.id) for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            names.update((f"{node.name}.{m.name}", m.name) for m in node.body
                         if isinstance(m, ast.FunctionDef))
    return {qualified: name for qualified, name in names.items()
            if not qualified.startswith("_") and not name.startswith("_")}


@pytest.mark.parametrize("path", MODULES + SCRIPTS + TESTS, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported_names(tree) - used)
    assert not unused, f"{path.name} imports {unused} without using them"


def test_every_public_name_is_used_outside_the_tests():
    used = set().union(*(referenced_names(parse(p)) for p in MODULES + SCRIPTS + BENCHMARK))
    unused = sorted(f"{path.stem}.{qualified}" for path in MODULES
                    for qualified, name in public_names(parse(path)).items() if name not in used)
    assert not unused, f"only the tests use {unused}; move them into tests/conftest.py"


def imported_modules(tree: ast.AST) -> set[str]:
    """The last dotted part of every module the tree imports, with the
    modules a bare "from . import" names."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                modules.update(alias.name for alias in node.names)
            else:
                modules.add(node.module)
    return {module.split(".")[-1] for module in modules}


@pytest.mark.parametrize("name", ["nesting.py", "cube.py"])
def test_no_route_computes_through_the_exact_search(name):
    # the routes check one another, so the nest-order and cube routes take
    # nothing from the search
    found = sorted(imported_modules(parse(PACKAGE / name)) & {"solver"})
    assert not found, f"{name} imports {found}"


def test_no_assert_guards_the_package():
    # python -O strips assert statements; a check that guards an answer raises
    found = sorted(f"{path.name}:{node.lineno}" for path in MODULES + [PACKAGE / "__init__.py"]
                   for node in ast.walk(parse(path)) if isinstance(node, ast.Assert))
    assert not found, f"assert statements in the package: {found}"
