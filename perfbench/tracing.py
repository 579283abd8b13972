"""Spans and counters installed around hasseforms from outside the library.

``install(tracer, mode)`` replaces the public functions and methods named
in SPANS (mode "spans") or COUNTS (mode "counts") with wrappers, in
every hasseforms module that bound the name, since ``forms``, ``cli``
and ``serialize`` import with ``from ... import``.  Spans and counts are
taken in separate passes: a counting wrapper on a dunder method that
runs millions of times would otherwise inflate the self time of every
span around it.

A span is ``[id, parent, job, name, start, end]``; spans stay in memory
and are written once, when the traced process ends.  The time the span
wrappers add is estimated in the same process: the number of spans
times the measured cost of one wrapped call over a bare one.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute path, metric prefix)
SPANS = [
    ("finfield", "make_extension", "finfield.make_extension"),
    ("funcfield", "monic_irreducibles", "funcfield.monic_irreducibles"),
    ("funcfield", "factor", "funcfield.factor"),
    ("curvering", "RingMatrix.det", "curvering.det"),
    ("curvering", "congruence", "curvering.congruence"),
    ("curvepoints", "enumerate_points", "curvepoints.enumerate_points"),
    ("curvepoints", "point_report", "curvepoints.point_report"),
    ("forms", "isom_search", "forms.isom_search"),
    ("forms", "verify_genus_witness", "forms.verify_genus_witness"),
    ("forms", "GenusWitness.__post_init__", "forms.genus_witness_init"),
    ("forms", "GramMatrix.__init__", "forms.gram_init"),
    ("hasse", "hasse_principle", "hasse.hasse_principle"),
    ("serialize", "pair_from_json", "serialize.pair_from_json"),
    ("serialize", "dumps", "serialize.dumps"),
    ("cli", "run", "cli.run"),
]

COUNTS = [
    ("finfield", "FieldElement.__mul__", "finfield.mul"),
    ("finfield", "FieldElement.__add__", "finfield.add"),
    ("finfield", "FieldElement.inverse", "finfield.inverse"),
    ("finfield", "embed", "finfield.embed"),
    ("funcfield", "Poly.__mul__", "funcfield.poly_mul"),
    ("funcfield", "Poly.__divmod__", "funcfield.poly_divmod"),
    ("funcfield", "poly_gcd", "funcfield.poly_gcd"),
    ("funcfield", "monic_irreducibles", "funcfield.monic_irreducibles"),
    ("funcfield", "factor", "funcfield.factor"),
    ("funcfield", "valuation", "funcfield.valuation"),
    ("curvering", "RingElement.__mul__", "curvering.ring_mul"),
    ("curvering", "RingElement.__hash__", "curvering.ring_hash"),
    ("curvering", "RingElement.__eq__", "curvering.ring_eq"),
    ("curvering", "RingFraction.__init__", "curvering.fraction_new"),
    ("curvering", "RingMatrix.det", "curvering.det"),
    ("curvepoints", "enumerate_points", "curvepoints.enumerate_points"),
    ("forms", "isom_search", "forms.isom_search"),
    ("forms", "verify_genus_witness", "forms.verify_genus_witness"),
    ("forms", "diagonalize", "forms.diagonalize"),
    ("forms", "local_isomorphic", "forms.local_isomorphic"),
    ("hasse", "hasse_principle", "hasse.hasse_principle"),
]

# counted per distinct argument tuple: the first call with a key is a miss
MISSES = {"funcfield.monic_irreducibles"}
# the wrapper also sums covered + uncovered places of the returned report
PLACES = {"forms.verify_genus_witness"}


class Tracer:
    """Per-process span and counter store."""

    def __init__(self, job=None):
        self.job = job
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self.seen = set()
        self.import_s = 0.0
        self.span_cost_s = 0.0

    def span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else None, self.job, name, clock(), None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                return fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()

        return wrapper

    def count_wrapper(self, name, fn):
        counts, seen = self.counts, self.seen
        calls = name + ".calls"
        if name in MISSES:

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                key = (name, args, tuple(sorted(kwargs.items())))
                if key not in seen:
                    seen.add(key)
                    counts[name + ".misses"] += 1
                return fn(*args, **kwargs)

        elif name in PLACES:

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                report = fn(*args, **kwargs)
                counts[name + ".places"] += len(report.covered) + len(report.uncovered)
                return report

        else:

            def wrapper(*args, **kwargs):
                counts[calls] += 1
                return fn(*args, **kwargs)

        return wrapper

    def calibrate(self, calls=5000, repeats=5):
        """Measure what one span wrapper adds to a call, best of repeats."""

        def bare():
            return None

        probe = Tracer().span_wrapper("calibration", bare)
        clock = time.perf_counter
        best_bare = best_wrapped = math.inf
        for _ in range(repeats):
            start = clock()
            for _ in range(calls):
                bare()
            best_bare = min(best_bare, clock() - start)
            start = clock()
            for _ in range(calls):
                probe()
            best_wrapped = min(best_wrapped, clock() - start)
        self.span_cost_s = max(best_wrapped - best_bare, 0.0) / calls

    def record(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "import_s": self.import_s,
            "overhead_s": len(self.spans) * self.span_cost_s,
        }

    def write(self, path):
        with open(path, "w") as handle:
            json.dump(self.record(), handle)


def install(tracer: Tracer, mode: str):
    """Wrap every name in SPANS or COUNTS wherever hasseforms bound it."""
    table = SPANS if mode == "spans" else COUNTS
    make = tracer.span_wrapper if mode == "spans" else tracer.count_wrapper
    modules = [m for n, m in sorted(sys.modules.items()) if n == "hasseforms" or n.startswith("hasseforms.")]
    for module_name, path, metric in table:
        owner = sys.modules[f"hasseforms.{module_name}"]
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        original = getattr(owner, parts[-1])
        wrapped = make(metric, original)
        if len(parts) > 1:
            # a method: replace it and every alias of it on its class
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapped)
        else:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)


def self_times(spans) -> dict:
    """Sum over spans of (duration - time covered by direct children), by name."""
    child_time = defaultdict(float)
    for sid, parent, _job, _name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = defaultdict(float)
    for sid, _parent, _job, name, start, end in spans:
        out[name] += (end - start) - child_time[sid]
    return dict(out)


def per_layer(records, counts) -> dict:
    """Per-layer metrics of one workload from its traced-process records."""
    spans_by_process = [r["spans"] for r in records]
    selfs = defaultdict(float)
    for spans in spans_by_process:
        for name, value in self_times(spans).items():
            selfs[name] += value
    metrics = {}
    for _module, _path, metric in SPANS:
        metrics[metric + ".self_s"] = (selfs.get(metric, 0.0), "s")
    for _module, _path, metric in COUNTS:
        metrics[metric + ".calls"] = (counts.get(metric + ".calls", 0), "count")
    for metric in sorted(MISSES):
        metrics[metric + ".misses"] = (counts.get(metric + ".misses", 0), "count")
    for metric in sorted(PLACES):
        metrics[metric + ".places"] = (counts.get(metric + ".places", 0), "count")
    metrics["process.import_s"] = (sum(r["import_s"] for r in records), "s")
    metrics["trace.overhead_s"] = (sum(r["overhead_s"] for r in records), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
