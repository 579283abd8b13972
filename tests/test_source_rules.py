"""Rules the library source keeps, read from its syntax trees: invariants
are enforced by exceptions, which ``python -O`` keeps, never by
``assert``, which it strips; no module imports a name it does not use,
so a deletion cannot leave a dead import behind; every private function,
method or class has a caller in the library; every class that interns
its values in ``__new__`` defines ``__reduce__``; interned fields and
curves are compared with ``is``, never ``==``; only
``local.local_isomorphic`` tells the two kinds of closed place apart by
type; only ``cli.build_parser`` imports argparse; no module imports
``typing``, so a CLI process in an environment whose start-up does not
load it never does; a public name defined
in a module loaded on first use resolves from a second module exactly
when perfbench looks it up there, and a name that perfbench traces there
is neither imported from its home nor called there by its bare name;
and every module parses under the Python 3.10 grammar, the oldest that
``pyproject.toml`` admits."""

import ast
import importlib
from pathlib import Path

import pytest

import hasseforms
from test_traced_names import SESSION_CHAINS, _traced_names

SRC = Path(__file__).resolve().parents[1] / "src" / "hasseforms"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_modules_found():
    assert {"finfield.py", "forms.py", "__init__.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_parses_under_the_oldest_supported_grammar(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


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


def test_every_interned_class_pickles_as_itself():
    # a class whose __new__ returns a shared object also defines
    # __reduce__, so a copied or unpickled value is that object rather
    # than a second one built without __new__'s arguments
    missing = [
        (path.name, node.name)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and "__new__" in (names := {f.name for f in node.body if isinstance(f, ast.FunctionDef)})
        and "__reduce__" not in names
    ]
    assert missing == [], f"classes defining __new__ without __reduce__: {missing}"


# attributes that hold an interned FiniteField or CurveSpec
INTERNED_ATTRIBUTES = {"field", "curve"}


def test_interned_fields_and_curves_compare_by_identity():
    # one object per field and per curve, so ``is`` is the comparison;
    # ``==`` and ``!=`` on them only hide a second owner of the rule
    sites = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Compare)
        for op, left, right in zip(node.ops, [node.left, *node.comparators], node.comparators)
        if isinstance(op, (ast.Eq, ast.NotEq))
        and any(isinstance(side, ast.Attribute) and side.attr in INTERNED_ATTRIBUTES for side in (left, right))
    ]
    assert sites == [], f"fields or curves compared with == or !=: {sites}"


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


def _argparse_imports(node, scope=()):
    """(enclosing function or class path, line) of each import of argparse
    under node; the path is empty at module level."""
    for child in ast.iter_child_nodes(node):
        inner = scope + (child.name,) if isinstance(child, DEFINITIONS) else scope
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        else:
            modules = [child.module or ""] if isinstance(child, ast.ImportFrom) else []
        if any(module.split(".")[0] == "argparse" for module in modules):
            yield ".".join(inner), child.lineno
        yield from _argparse_imports(child, inner)


def test_argparse_is_imported_only_to_build_the_parser():
    # a well-formed command line is read off cli's flag table, so no module
    # imports argparse at start-up; it loads only where the parser is
    # built, to print help, usage or an error
    sites = [(f"{path.stem}.{scope}", line) for path in MODULES for scope, line in _argparse_imports(_tree(path))]
    assert {scope for scope, _ in sites} == {"cli.build_parser"}, sites


def test_no_module_imports_typing():
    # annotations are strings under ``from __future__ import annotations``:
    # ``X | None`` needs no import, and ``Iterator`` comes from collections.abc
    sites = [
        (path.name, node.lineno)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "typing" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "typing"
    ]
    assert sites == []


# modules that forward names defined in the modules loaded on first use
FORWARDING = ("forms", "funcfield", "curvepoints", "serialize", "hasse")
LAZY_HOMES = ("local", "genus", "search", "picard")


def _public_definitions(path):
    """The public names a module defines at top level: its functions,
    classes and assigned constants."""
    names = set()
    for node in _tree(path).body:
        if isinstance(node, DEFINITIONS):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_a_name_is_forwarded_exactly_where_perfbench_looks_it_up():
    # every name has one home; a second module forwards it only because
    # perfbench's tracer wraps it there or its session worker reads
    # hf.<module>.<name>, and the package reads a traced name where the
    # tracer wrapped it, so a traced session call reaches the wrapper
    traced = {(module, path.split(".")[0]) for module, path in _traced_names()}
    read = {tuple(path.split(".")[:2]) for path, _ in SESSION_CHAINS if "." in path}
    defined = set().union(*(_public_definitions(SRC / f"{home}.py") for home in LAZY_HOMES))
    forwarded = {
        (module, name)
        for module in FORWARDING
        for name in defined
        if hasattr(importlib.import_module(f"hasseforms.{module}"), name)
    }
    assert forwarded == {(module, name) for module, name in traced | read if module in FORWARDING and name in defined}
    homes = {name: module for module, name in traced if name in hasseforms._HOME}
    assert homes == {name: hasseforms._HOME[name] for name in homes}


def test_a_traced_name_is_called_through_the_module_perfbench_wraps_it_on():
    # perfbench's tracer wraps a name in the modules loaded before its own
    # look-ups, and those look-ups load the modules of first use; so a
    # traced name at home in one of them is reached through the module
    # that forwards it, and a copy imported from its home, or a call by
    # its bare name inside its home, would escape the counts and spans
    traced = {path.split(".")[0] for _, path in _traced_names()}
    homes = {name: home for home in LAZY_HOMES for name in _public_definitions(SRC / f"{home}.py") & traced}
    imported = [
        (path.name, node.lineno, alias.name)
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
        if homes.get(alias.name) == node.module.split(".")[-1]
    ]
    called = [
        (home, node.lineno, node.func.id)
        for home in sorted(set(homes.values()))
        for node in ast.walk(_tree(SRC / f"{home}.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and homes.get(node.func.id) == home
    ]
    assert homes and imported == [] and called == [], (imported, called)
