"""The package's public names resolve on first access to the objects of
their home modules, and behave like ordinary module attributes; and
``pyproject.toml`` ships every bundled fixture and a console script that
resolves."""

import importlib
import json
import subprocess
import sys
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


def test_hasse_principle_is_one_object_under_three_names():
    # the verdict lives in picard; hasse forwards only the name the
    # benchmark's tracer wraps there
    from hasseforms import hasse, picard

    assert hasseforms.hasse_principle is hasse.hasse_principle is picard.hasse_principle
    with pytest.raises(AttributeError, match="HasseDecision"):
        hasse.HasseDecision


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


# the names each module forwards to the module that defines them
FORWARDED = {
    "forms": {"diagonalize", "local_isomorphic", "GenusWitness", "verify_genus_witness", "isom_search"},
    "funcfield": {"monic_irreducibles", "factor", "valuation"},
    "curvepoints": {"enumerate_points", "point_report"},
    "serialize": {"genus_report_to_json"},
    "hasse": {"hasse_principle"},
}


@pytest.mark.parametrize("module", sorted(FORWARDED))
def test_star_import_and_dir_list_the_forwarded_names(module):
    # in a fresh interpreter, so that no earlier access has bound a name
    probe = (
        "import json, sys\n"
        f"namespace = {{}}\nexec('from hasseforms.{module} import *', namespace)\n"
        f"print(json.dumps([sorted(namespace), dir(sys.modules['hasseforms.{module}'])]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    bound, listed = map(set, json.loads(proc.stdout))
    owner = importlib.import_module(f"hasseforms.{module}")
    assert FORWARDED[module] <= bound and FORWARDED[module] <= listed
    assert set(owner.__all__) == {name for name in vars(owner) if not name.startswith("_")} | FORWARDED[module]


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
