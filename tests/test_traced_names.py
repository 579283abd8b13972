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


# Calls the session worker makes after it has imported the CLI and the
# serializer and installed the tracer: each name reached through the
# package resolves from its home module, where the tracer wrapped it,
# though the module that defines it loads only at the lookup.
SESSION_ORDER_CALLS = f"""
import json, sys
sys.path.insert(0, {str(PERFBENCH)!r})
import hasseforms as hf
import hasseforms.cli
import hasseforms.serialize
from tracing import Tracer, install

tracer = Tracer("job")
install(tracer, sys.argv[1])
field = hf.make_extension(5, 1)
line = hf.CurveSpec.polyline(field)
form = hf.FieldForm(field, [[1, 2], [2, 3]])
hf.diagonalize(form)
form.rank  # diagonalizes once more
hf.funcfield.monic_irreducibles(field, 1)
hf.factor(hf.Poly(field, [0, 1, 1]))  # x(x + 1)
f = hf.GramMatrix.identity(line, 2)
hf.local_isomorphic(f, f, hf.PrimePoly.finite(hf.Poly(field, [2, 0, 1])))
hf.point_report(hf.CurveSpec.weierstrass(field, 1, 1))
with open({str(FIXTURE)!r}) as handle:
    pair = hf.serialize.pair_from_json(json.load(handle))  # builds one GenusWitness
hf.verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=1)
hf.GenusWitness(pair["G"], pair["witness"].pairs)
names = [span[3] for span in tracer.spans]
print(json.dumps({{"counts": tracer.counts, "spans": {{name: names.count(name) for name in names}}}}))
"""


@pytest.mark.parametrize(
    "mode, want",
    [
        (
            "counts",
            {
                "forms.diagonalize.calls": 2,
                "funcfield.factor.calls": 1,
                "funcfield.monic_irreducibles.calls": 1,
                "curvepoints.enumerate_points.calls": 2,  # by the primes of degree 1 and by the genus check
                "forms.local_isomorphic.calls": 1,
                "forms.verify_genus_witness.calls": 1,
            },
        ),
        (
            "spans",
            {
                "funcfield.factor": 1,
                "funcfield.monic_irreducibles": 1,
                "curvepoints.enumerate_points": 2,
                "curvepoints.point_report": 1,
                "forms.verify_genus_witness": 1,
                "forms.genus_witness_init": 2,
            },
        ),
    ],
)
def test_tracer_sees_names_whose_modules_load_on_first_use(mode, want):
    proc = subprocess.run([sys.executable, "-c", SESSION_ORDER_CALLS, mode], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)[mode]
    assert {name: got.get(name, 0) for name in want} == want
