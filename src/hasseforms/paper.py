"""The ``verify-paper`` command: re-run every bundled worked example and
print a pass/fail table.

Only ``verify-paper`` loads this module, and with it the loader of the
bundled pair files.  Its rows need point counting, genus verification
and the search; like every other caller, it imports the names
perfbench's tracer wraps from the modules it wraps them on
(``curvepoints``, ``forms``, ``hasse``) and every other name from its
home.
"""

from __future__ import annotations

import json
import sys
from importlib import resources

from .curvepoints import point_report
from .curvering import CurveSpec
from .finfield import make_extension
from .forms import is_unimodular, isom_search, verify_genus_witness
from .hasse import hasse_principle
from .serialize import dumps, pair_from_json


def load_bundled_pair(name: str) -> dict:
    """Load one of the worked-example pair files shipped with the package."""
    path = resources.files("hasseforms") / "fixtures" / f"{name}.json"
    return pair_from_json(json.loads(path.read_text()))


def _row(check: str, expected, got) -> dict:
    return {"check": check, "expected": str(expected), "got": str(got), "pass": expected == got}


def _verify_rows(budget: int):
    ec = load_bundled_pair("singular_cubic_pair")
    line = load_bundled_pair("polyline_pair")
    rows = []

    report = point_report(ec["curve"])
    rows.append(_row("projective point count of the singular cubic over F_5", 7, report.total))

    sing = [(p.x.coeffs[0], p.y.coeffs[0]) for p in report.singular_points]
    rows.append(_row("singular locus", [(4, 0)], sing))

    ec_report = verify_genus_witness(ec["F"], ec["G"], ec["witness"], degree=ec["degree"])
    first, second = ec_report.identity_ok
    rows.append(_row("first transition identity Q^t Q = G", True, first))
    rows.append(_row("second transition identity P^t P = G", True, second))

    rows.append(_row("unimodularity of G", True, is_unimodular(ec["G"])))

    line_report = verify_genus_witness(line["F"], line["G"], line["witness"], degree=line["degree"])
    rows.append(_row("affine-line pair genus verdict (degree 3)", "Certified", line_report.verdict))

    rows.append(_row("singular-cubic pair genus verdict (degree 2)", "GapFound", ec_report.verdict))
    gap = [(pt.x.coeffs[0], pt.y.coeffs[0]) for pt in ec_report.uncovered]
    rows.append(_row("uncovered point of the singular-cubic pair", [(4, 0)], gap))

    found = isom_search(
        ec["F"], ec["G"], deg_x=ec["bounds"]["deg_x"], deg_y=ec["bounds"]["deg_y"], budget=budget
    )
    rows.append(_row("isometry search 1_2 vs G (deg_x<=2, deg_y<=1)", "none-within-bounds",
                     "none-within-bounds" if found is None else "found"))

    found = isom_search(line["F"], line["G"], deg_x=line["bounds"]["deg_x"], budget=budget)
    rows.append(_row("isometry search over F_5[x] (deg<=2)", "none-within-bounds",
                     "none-within-bounds" if found is None else "found"))

    verdict = hasse_principle(CurveSpec.polyline(make_extension(5, 1)), 3).verdict
    rows.append(_row("genus-zero verdict (affine line, rank 3)", "Holds", verdict))

    return rows


def verify_paper(fmt: str, budget: int) -> int:
    """Print the table as JSON or text; the exit code is 0 when every
    row passes, else 1."""
    rows = _verify_rows(budget)
    ok = all(r["pass"] for r in rows)
    if fmt == "json":
        sys.stdout.write(dumps({"schema": 1, "pass": ok, "rows": rows}))
    else:
        width = max(len(r["check"]) for r in rows)
        for r in rows:
            status = "PASS" if r["pass"] else "FAIL"
            line = f"{status}  {r['check']:<{width}}  expected={r['expected']}  got={r['got']}"
            sys.stdout.write(line + "\n")
        sys.stdout.write(("all checks passed" if ok else "some checks FAILED") + "\n")
    return 0 if ok else 1
