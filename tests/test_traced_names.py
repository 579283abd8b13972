"""Every name the benchmark's tracer wraps, and every ``hf.<name>`` chain
its session worker calls, must exist in the library: a renamed or
deleted one would crash a benchmark run."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SESSION = PERFBENCH / "session.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return sorted({(module, path) for module, path, _ in tracing.SPANS + tracing.COUNTS})


@pytest.mark.parametrize("module, path", _traced_names())
def test_traced_name_resolves(module, path):
    owner = importlib.import_module(f"hasseforms.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _chain(node):
    """The dotted path below the package of an attribute chain rooted at
    ``hf`` or ``self.hf``, e.g. "serialize.pair_from_json"; else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    parts.reverse()
    if isinstance(node, ast.Name) and node.id == "self" and parts[:1] == ["hf"]:
        parts = parts[1:]
    elif not (isinstance(node, ast.Name) and node.id == "hf"):
        return None
    return ".".join(parts) or None


def _session_chains():
    """(path, called) for every package chain the session worker uses,
    and every prefix of one."""
    tree = ast.parse(SESSION.read_text())
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return sorted(
        {(_chain(node), id(node) in called) for node in ast.walk(tree) if isinstance(node, ast.Attribute) and _chain(node)}
    )


SESSION_CHAINS = _session_chains()


def test_session_chains_found():
    paths = {path for path, _ in SESSION_CHAINS}
    assert {"PrimePoly.finite", "AffinePoint", "FieldForm", "field_isomorphic", "serialize.pair_from_json"} <= paths


@pytest.mark.parametrize("path, called", SESSION_CHAINS)
def test_session_chain_resolves(path, called):
    import hasseforms
    import hasseforms.cli  # the worker imports these two before its first call
    import hasseforms.serialize  # noqa: F401

    owner = hasseforms
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner) or not called


FIXTURE = Path(__file__).resolve().parents[1] / "src" / "hasseforms" / "fixtures" / "polyline_pair.json"


@pytest.mark.parametrize(
    "command, code, span",
    [("isom-search", 1, "forms.isom_search"), ("genus-verify", 0, "forms.verify_genus_witness")],
)
def test_traced_run_records_its_command_span(tmp_path, command, code, span):
    # the tracer wraps forms.isom_search, so the CLI must reach the search
    # through forms for its span to be recorded
    out = tmp_path / "spans.json"
    argv = [sys.executable, str(PERFBENCH / "traced_cli.py"), "spans", str(out), "job", "--", command, "--input", str(FIXTURE)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    names = [name for _id, _parent, _job, name, _start, _end in json.loads(out.read_text())["spans"]]
    assert names.count(span) == 1
