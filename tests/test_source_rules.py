"""Rules the library source keeps, read from its syntax trees: invariants
are enforced by exceptions, which ``python -O`` keeps, never by
``assert``, which it strips; no module imports a name it does not use,
so a deletion cannot leave a dead import behind; every private function,
method or class has a caller in the library; and only
``local.local_isomorphic`` tells the two kinds of closed place apart by
type."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "hasseforms"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"finfield.py", "forms.py", "__init__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "__init__.py"], ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert unused == [], f"{path.name} imports names it does not use: {unused}"


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, scope=()):
    """(name, enclosing definitions) of each name or attribute read under
    node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Name):
            yield child.id, scope
        elif isinstance(child, ast.Attribute):
            yield child.attr, scope
        yield from _references(child, scope + (child,) if isinstance(child, DEFINITIONS) else scope)


def test_every_private_definition_has_a_caller():
    # a private name is referenced somewhere in the library outside its own
    # body, so code that only tests reach is deleted rather than kept;
    # dunder methods are called by the language
    trees = {path.name: _tree(path) for path in MODULES}
    callers = {}
    for tree in trees.values():
        for name, scope in _references(tree):
            callers.setdefault(name, []).append(scope)
    unused = [
        (module, node.lineno, node.name)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, DEFINITIONS)
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and all(node in scope for scope in callers.get(node.name, ()))
    ]
    assert unused == [], f"private definitions nothing in the library references: {unused}"


# the two public names of a closed place: a prime of the line, or a point
PLACE_TYPES = {"PrimePoly", "AffinePoint"}


def _place_type_tests(node, scope=()):
    """(enclosing function or class path, line) of each isinstance call
    that names a place type, under node."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
        if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "isinstance":
            kinds = child.args[1].elts if isinstance(child.args[1], ast.Tuple) else child.args[1:]
            if any(isinstance(kind, ast.Name) and kind.id in PLACE_TYPES for kind in kinds):
                yield ".".join(inner), child.lineno
        yield from _place_type_tests(child, inner)


def test_place_kinds_are_told_apart_only_at_the_public_boundary():
    # a closed place is one point of its Frobenius orbit on both curves,
    # read through x, y, degree and prime; only local_isomorphic, which
    # also takes a place by its prime, tells the two types apart
    sites = [
        (f"{path.stem}.{scope}", line)
        for path in MODULES
        for scope, line in _place_type_tests(_tree(path))
    ]
    assert {scope for scope, _ in sites} == {"local.local_isomorphic"}, sites
