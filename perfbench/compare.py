#!/usr/bin/env python3
"""Compare two sets of benchmark result records (parent vs change).

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result records written by run.py (``.perfbench/
results/*.json``), untraced runs of the same workloads and seeds on the
two commits.  For every workload and end-to-end metric of BENCHMARK.json
it prints each side's median and quartiles, the share of same-seed pairs
the change won (ties count for neither), and a verdict:

  regression  change median worse than the parent's by more than the bound
  unresolved  the parent's own spread (IQR / median) is wider than the bound,
              and not every change run beats every parent run
  gain        the change won at least 90% of pairs and the medians differ by
              more than the parent's IQR
  same        none of the above

Exits 1 when any metric regressed, and 2 without comparing when the
records were not all made with the same ``--seconds``: the run length
fixes the number of passes, so records of different lengths do not pair.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0 and rec.get("metrics"):
            records.setdefault(rec["workload"], []).append(rec)
    return records


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, pairs, bound, lower_better=True):
    """(verdict, share of pairs won) for one metric of one workload."""
    sign = 1 if lower_better else -1
    wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
    won = wins / len(pairs) if pairs else float("nan")
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if sign * (cm - pm) > bound * pm:
        return "regression", won
    all_better = max(sign * v for v in change) < min(sign * v for v in parent)
    if (p3 - p1) > bound * pm and not all_better:
        return "unresolved", won
    if pairs and won >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "gain", won
    return "same", won


def pair_by_seed(parent_recs, change_recs, name):
    by_seed = {}
    for rec in parent_recs:
        by_seed.setdefault(rec["seed"], []).append(rec["metrics"][name]["value"])
    pairs = []
    for rec in change_recs:
        queue = by_seed.get(rec["seed"])
        if queue:
            pairs.append((queue.pop(0), rec["metrics"][name]["value"]))
    return pairs


def describe(recs):
    first = recs[0]
    loads = [r["loadavg"][0] for r in recs]
    return (f"commit={first.get('commit') or '-'} src={first.get('src_sha256')} python={first.get('python')} "
            f"nproc={first.get('nproc')} runs={len(recs)} load1={min(loads):.2f}..{max(loads):.2f}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args[0]), load(args[1])
    lengths = {r["seconds"] for side in (parent, change) for recs in side.values() for r in recs}
    if len(lengths) > 1:
        print(f"error: records were made with different --seconds: {sorted(lengths)}", file=sys.stderr)
        return 2
    regressed = False
    header = f"{'workload':<9} {'metric':<12} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'won':>5}  verdict"
    print(header)
    for workload in sorted(set(parent) & set(change)):
        print(f"# {workload}  parent: {describe(parent[workload])}")
        print(f"# {workload}  change: {describe(change[workload])}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in parent[workload]]
            cv = [r["metrics"][name]["value"] for r in change[workload]]
            pairs = pair_by_seed(parent[workload], change[workload], name)
            result, won = verdict(pv, cv, pairs, metric["bound"], metric["better"] == "lower")
            regressed |= result == "regression"
            cells = []
            for values in (pv, cv):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] {metric['unit']}")
            won_cell = f"{won:.0%}" if pairs else "-"
            print(f"{workload:<9} {name:<12} {cells[0]:>34} {cells[1]:>34} {won_cell:>5}  {result}")
    missing = sorted(set(parent) ^ set(change))
    if missing:
        print(f"# workloads present on one side only: {', '.join(missing)}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
