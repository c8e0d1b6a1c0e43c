"""Static hygiene of the package source: no unused private helpers,
constants, imports, exports or instance attributes."""

import ast
import re
from pathlib import Path

import pytest

import modham

SOURCES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(Path(modham.__file__).parent.glob("*.py"))}


def _definitions(tree):
    """Module-level functions, classes and assigned names, with their nodes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
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


def _unreferenced(module, wanted):
    """The module-level names of ``module`` that ``wanted`` selects and that
    nothing in the package reads outside their own definition."""
    unused = []
    for definition, name in _definitions(SOURCES[module]):
        if not wanted(name, definition):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(_is_reference(node, name) for node in NODES if id(node) not in inside):
            unused.append(name)
    return unused


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_private_definition_is_referenced(module):
    unused = _unreferenced(module, lambda name, _: _is_private(name))
    assert not unused, f"{module} defines private names nothing uses: {unused}"


def _is_public_constant(name, node):
    return (isinstance(node, (ast.Assign, ast.AnnAssign)) and name.isupper()
            and not _is_private(name))


@pytest.mark.parametrize("module", sorted(SOURCES))
def test_every_constant_is_referenced(module):
    # an UPPER_CASE module constant that no code reads is a leftover
    unused = _unreferenced(module, _is_public_constant)
    assert not unused, f"{module} defines constants nothing reads: {unused}"


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


ROOT = Path(__file__).parents[1]
EXPORT_READERS = [ast.parse(path.read_text(), filename=str(path))
                  for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                               ROOT / "tests" / "test_acceptance.py"]]
OUTSIDE = [node for tree in EXPORT_READERS for node in ast.walk(tree)]
README = (ROOT / "README.md").read_text()
EXPORTS = [node for node in SOURCES["__init__"].body if isinstance(node, ast.ImportFrom)]


def _has_reader(name, excluded):
    """Whether ``name`` is read by the package outside the nodes ``excluded``,
    by the benchmark, the README or the acceptance criteria."""
    return (any(_is_reference(node, name) for node in NODES if id(node) not in excluded)
            or any(_is_reference(node, name) for node in OUTSIDE)
            or re.search(rf"\b{name}\b", README) is not None)


def test_every_export_has_a_reader():
    # a name the package exports is read by the package itself, the
    # benchmark, the README or the acceptance criteria, not by unit tests alone
    definitions = {name: definition for module, tree in SOURCES.items() if module != "__init__"
                   for definition, name in _definitions(tree)}
    unread = [alias.name for export in EXPORTS for alias in export.names
              if not _has_reader(alias.name, {id(node) for node in ast.walk(definitions[alias.name])}
                                 | {id(export)})]
    assert not unread, f"modham exports names only unit tests read: {unread}"


def _public_code(tree):
    """Public module-level functions and classes, and the public methods and
    properties of public classes, by name, with their nodes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for definition, name in _definitions(tree):
        if _is_private(name) or not isinstance(definition, (*functions, ast.ClassDef)):
            continue
        yield definition, name
        if isinstance(definition, ast.ClassDef):
            yield from ((node, f"{name}.{node.name}") for node in definition.body
                        if isinstance(node, functions) and not node.name.startswith("_"))


def test_no_public_code_serves_unit_tests_alone():
    # a public function, class, method or property is read outside its
    # definition and its export; one that only unit tests call belongs in
    # the tests
    exports = {id(export) for export in EXPORTS}
    unread = [f"{module}.{name}" for module, tree in SOURCES.items()
              for definition, name in _public_code(tree)
              if not _has_reader(name.rpartition(".")[2],
                                 {id(node) for node in ast.walk(definition)} | exports)]
    assert not unread, f"src/ defines public code only unit tests read: {unread}"


def _self_attributes(tree):
    """``(class, name)`` for every ``self.<name> = ...`` inside a class,
    tuple targets included."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for leaf in ast.walk(target):
                        if (isinstance(leaf, ast.Attribute) and isinstance(leaf.value, ast.Name)
                                and leaf.value.id == "self"):
                            yield cls.name, leaf.attr


ATTRIBUTE_READERS = [*SOURCES.values(), *EXPORT_READERS] + [
    ast.parse(path.read_text(), filename=str(path)) for path in sorted((ROOT / "tests").glob("*.py"))]


def test_every_instance_attribute_is_read():
    # an attribute a class of src/ sets on self is read as .<name> by the
    # package, the tests or the benchmark; one that nothing reads is a
    # leftover of a refactor
    read = {node.attr for tree in ATTRIBUTE_READERS for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assigned = {(module, *found) for module, tree in SOURCES.items()
                for found in _self_attributes(tree)}
    assert len(assigned) >= 20
    unread = sorted(f"{module}.{cls}.{name}" for module, cls, name in assigned if name not in read)
    assert not unread, f"src/ sets attributes nothing reads: {unread}"


def _defaulted(args):
    """The parameters of a signature that carry a default, each with its
    position among the positional parameters (None when keyword-only); a
    leading ``self`` or ``cls`` is not counted."""
    positional = args.posonlyargs + args.args
    offset = 1 if [a.arg for a in positional[:1]] in (["self"], ["cls"]) else 0
    first = len(positional) - len(args.defaults)
    found = [(a.arg, i - offset) for i, a in enumerate(positional) if i >= first]
    found += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def test_every_default_of_a_private_function_is_passed():
    # a defaulted parameter of a private function that no call in src/,
    # tests/ or the benchmark passes is an option nothing exercises: a
    # leftover of the caller that needed it
    calls = [node for tree in ATTRIBUTE_READERS for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    never = []
    for name, signatures in sorted(_private_functions().items()):
        named = [call for call in calls if _is_reference(call.func, name)]
        for args in signatures:
            for param, index in _defaulted(args):
                if not any(_passes(call, param, index) for call in named):
                    never.append(f"{name}({param})")
    assert not never, f"defaults no call overrides: {never}"


def _passes(call, param, index):
    """Whether a call passes ``param``, by keyword or at positional ``index``;
    a call that unpacks ``*args`` or ``**kwargs`` may pass anything."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
        return True
    return (any(k.arg == param for k in call.keywords)
            or (index is not None and index < len(call.args)))


def _class_names(tree):
    """The names the classes of a module set: in their bodies, methods
    included, or on ``self``."""
    for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (t.id for t in targets if isinstance(t, ast.Name))
    yield from (name for _, name in _self_attributes(tree))


def test_no_private_attribute_crosses_a_module():
    # obj._name, with obj not self or cls, reads the private state of a
    # class of another module: what one module must tell another goes
    # through a public name or an argument; module-level private functions
    # stay callable across modules
    owners = {}
    for module, tree in SOURCES.items():
        for name in filter(_is_private, _class_names(tree)):
            owners.setdefault(name, set()).add(module)
    crossing = sorted(
        f"{module}:{node.lineno} {ast.unparse(node)}" for module, tree in SOURCES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and owners.get(node.attr, set()) - {module}
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")))
    assert not crossing, f"src/ reads private attributes of another module's class: {crossing}"
