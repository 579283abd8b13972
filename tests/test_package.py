"""The package's public names resolve on first access to the objects of
their home modules, and behave like ordinary module attributes; and
``pyproject.toml`` ships every bundled fixture and a console script that
resolves."""

import importlib
from pathlib import Path

import pytest

import hasseforms


@pytest.mark.parametrize("name", hasseforms.__all__)
def test_public_name_is_its_home_module_object(name):
    home = importlib.import_module(f"hasseforms.{hasseforms._HOME[name]}")
    assert getattr(hasseforms, name) is getattr(home, name)


def test_search_is_one_object_under_three_names():
    from hasseforms import forms, search

    assert hasseforms.isom_search is forms.isom_search is search.isom_search


@pytest.mark.parametrize(
    "module",
    ["hasseforms", "hasseforms.forms", "hasseforms.funcfield", "hasseforms.curvepoints", "hasseforms.serialize"],
)
def test_unknown_attribute_raises_attribute_error(module):
    owner = importlib.import_module(module)
    with pytest.raises(AttributeError, match="no_such_name"):
        owner.no_such_name
    assert not hasattr(owner, "no_such_name")


def test_star_import_and_dir_list_all():
    namespace = {}
    exec("from hasseforms import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hasseforms.__all__)
    assert set(hasseforms.__all__) <= set(dir(hasseforms))


def test_pyproject_ships_every_fixture_and_a_working_console_script():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text())
    package = root / "src" / "hasseforms"
    globs = project["tool"]["setuptools"]["package-data"]["hasseforms"]
    shipped = {path for pattern in globs for path in package.glob(pattern) if path.is_file()}
    fixtures = {path for path in (package / "fixtures").rglob("*") if path.is_file()}
    assert fixtures and fixtures <= shipped
    module, _, attribute = project["project"]["scripts"]["hasseforms"].partition(":")
    assert (module, attribute) == ("hasseforms.cli", "main")
    assert callable(getattr(importlib.import_module(module), attribute))
