"""Static hygiene of the package source: no unused private helpers or imports."""

import ast
from pathlib import Path

import pytest

import modham

SOURCES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(Path(modham.__file__).parent.glob("*.py"))}


def _private_definitions(tree):
    """Module-level private functions, classes and constants (dunders aside)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node, name


NODES = [node for tree in SOURCES.values() for node in ast.walk(tree)]


def _is_reference(node, name):
    """Whether ``node`` reads ``name``: a bare name, an attribute or an import."""
    if isinstance(node, ast.Name):
        return node.id == name and isinstance(node.ctx, ast.Load)
    if isinstance(node, ast.Attribute):
        return node.attr == name
    if isinstance(node, ast.ImportFrom):
        return any(alias.name == name for alias in node.names)
    return False


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_private_definition_is_referenced(module):
    unused = []
    for definition, name in _private_definitions(SOURCES[module]):
        inside = {id(node) for node in ast.walk(definition)}
        if not any(_is_reference(node, name) for node in NODES if id(node) not in inside):
            unused.append(name)
    assert not unused, f"{module} defines private names nothing uses: {unused}"


@pytest.mark.parametrize("module", sorted(set(SOURCES) - {"__init__"}))
def test_every_import_is_used(module):
    tree = SOURCES[module]
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(imported - read)
    assert not unused, f"{module} imports names it never uses: {unused}"
