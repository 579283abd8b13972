"""Every name the benchmark's tracer wraps must exist in the library:
a renamed or deleted one would crash a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
