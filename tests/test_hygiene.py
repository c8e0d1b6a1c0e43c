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


def _private_functions():
    """Every private function or method, by name, with its parameters."""
    found = {}
    for node in NODES:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _is_private(node.name):
            found.setdefault(node.name, []).append(node.args)
    return found


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _passed(call, params):
    """Map each parameter a call passes to its argument node; None when the
    call unpacks ``*args`` or ``**kwargs`` and so hides what it passes."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            k.arg is None for k in call.keywords):
        return None
    passed = dict(zip(params, call.args))
    passed.update((k.arg, k.value) for k in call.keywords)
    return passed


def _literal(node):
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_constant_poses_as_a_parameter():
    # a parameter of a private function that every call in the package
    # passes the same literal, or that no call passes, is a constant
    constant = []
    for name, signatures in _private_functions().items():
        if len(signatures) != 1:
            continue  # the name is ambiguous: its calls cannot be told apart
        (args,) = signatures
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if params[:1] in (["self"], ["cls"]):
            params = params[1:]
        calls = [node for node in NODES if isinstance(node, ast.Call)
                 and _is_reference(node.func, name)]
        funcs = {id(call.func) for call in calls}
        read = [node for node in NODES if _is_reference(node, name)
                and not isinstance(node, ast.ImportFrom)]
        if not calls or any(id(node) not in funcs for node in read):
            continue  # passed around as a value: not every call is visible
        passed = [_passed(call, params) for call in calls]
        if None in passed:
            continue
        for param in params:
            values = {_literal(p[param]) if param in p else "absent" for p in passed}
            if len(values) == 1 and None not in values:
                constant.append(f"{name}({param}={values.pop()})")
    assert not constant, f"parameters that only ever take one value: {constant}"
