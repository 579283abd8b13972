"""Command-line surface.

Subcommands:

  curve         point-count / smoothness report for a curve
  hasse         local-global verdict for a given rank
  form          flags and determinant of a matrix over a coordinate ring
  genus-verify  check a genus-witness pair file, report coverage
  isom-search   bounded search for an integral unit-determinant isometry
  verify-paper  re-run every bundled worked example, print a pass/fail table

Exit codes: 0 verdict produced (Certified / witness found / all table
rows pass), 1 verification failure (GapFound / none-within-bounds / a
table row failed), 2 malformed input.  JSON output is byte-identical
across runs on identical input; text output mirrors the JSON field for
field.  The environment variable HASSE_FORMS_BUDGET overrides the
search evaluation cap.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .curvering import CurveSpec
from .finfield import MAX_FIELD_SIZE, make_extension
from .forms import DEFAULT_SEARCH_BUDGET, BudgetExceededError
from .hasse import hasse_principle
from .serialize import (
    curve_from_json,
    dumps,
    fraction_to_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    render_text,
    require_key,
)


def _parse_coeffs(text: str):
    return [int(part) for part in text.split(",")]


def _field_from_q(q: int):
    if q > MAX_FIELD_SIZE:  # before the scan for a prime factor
        raise ValueError(f"field size {q} exceeds desk-scale bound {MAX_FIELD_SIZE}")
    # the smallest factor above 1 is prime; q is a prime power only of it
    p = next((d for d in range(2, q + 1) if q % d == 0), None)
    k, n = 0, q
    while p is not None and n % p == 0:
        n //= p
        k += 1
    if p is None or n != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_extension(p, k)


def _curve_from_args(args) -> CurveSpec:
    if getattr(args, "input", None) or getattr(args, "json", None):
        return curve_from_json(_load_input(args))
    if args.q is None:
        raise ValueError("pass --q (with --a/--b or --polyline), or a curve JSON")
    field = _field_from_q(args.q)
    if args.polyline:
        return CurveSpec.polyline(field)
    if args.a is None or args.b is None:
        raise ValueError("weierstrass curves need --a and --b (or pass --polyline)")
    return CurveSpec.weierstrass(field, _parse_coeffs(args.a), _parse_coeffs(args.b))


def _load_input(args) -> dict:
    if args.input:
        with open(args.input) as handle:
            data = json.load(handle)
    elif args.json:
        data = json.loads(args.json)
    else:
        raise ValueError("provide --input FILE or --json TEXT")
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _emit(payload: dict, fmt: str):
    if fmt == "text":
        sys.stdout.write(render_text(payload))
    else:
        sys.stdout.write(dumps(payload))


def _search_budget():
    raw = os.environ.get("HASSE_FORMS_BUDGET") or str(DEFAULT_SEARCH_BUDGET)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"HASSE_FORMS_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# subcommands: each imports what only it runs when it runs, taking a moved
# name from its home module (``forms``, ``curvepoints``, ``serialize``), so
# that perfbench's tracer, which wraps names there, sees the call


def _cmd_curve(args) -> int:
    from .curvepoints import point_report
    from .serialize import point_report_to_json

    report = point_report(_curve_from_args(args))
    _emit(point_report_to_json(report), args.format)
    return 0


def _cmd_hasse(args) -> int:
    from .serialize import decision_to_json

    decision = hasse_principle(_curve_from_args(args), args.rank)
    _emit(decision_to_json(decision), args.format)
    return 0


def _cmd_form(args) -> int:
    data = _load_input(args)
    if data.get("schema") != 1:
        raise ValueError("unsupported or missing schema version")
    curve = curve_from_json(require_key(data, "curve", "input"))
    matrix = matrix_from_json(curve, require_key(data, "matrix", "input"))
    det = matrix.det()
    symmetric = matrix.is_symmetric()
    integral = matrix.all_integral()
    unimodular = symmetric and integral and det.is_integral() and det.as_ring_element().is_unit()
    payload = {
        "schema": 1,
        "rank": matrix.n,
        "symmetric": symmetric,
        "integral": integral,
        "det": fraction_to_json(det),
        "unimodular": unimodular,
    }
    _emit(payload, args.format)
    return 0


def _cmd_genus_verify(args) -> int:
    from .forms import verify_genus_witness
    from .serialize import genus_report_to_json

    pair = pair_from_json(_load_input(args))
    if "witness" not in pair:
        raise ValueError("pair file carries no witnesses")
    degree = args.inspection_degree if args.inspection_degree is not None else pair.get("degree", 2)
    report = verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=degree)
    _emit(genus_report_to_json(report), args.format)
    return 0 if report.verdict == "Certified" else 1


def _cmd_isom_search(args) -> int:
    from .forms import isom_search

    pair = pair_from_json(_load_input(args))
    bounds = pair.get("bounds", {})
    deg_x = args.degree_bound if args.degree_bound is not None else bounds.get("deg_x")
    if deg_x is None:
        raise ValueError("no degree bound: pass --degree-bound or put isom_bounds in the file")
    deg_y = args.degree_bound_y if args.degree_bound_y is not None else bounds.get("deg_y", -1)
    witness = isom_search(pair["F"], pair["G"], deg_x=deg_x, deg_y=deg_y, budget=_search_budget())
    payload = {
        "schema": 1,
        "found": witness is not None,
        "deg_x": deg_x,
        "deg_y": deg_y,
        "witness": matrix_to_json(witness) if witness is not None else None,
        "note": "a negative result is bounded-search evidence, not a proof",
    }
    _emit(payload, args.format)
    return 0 if witness is not None else 1


def _cmd_verify_paper(args) -> int:
    from .paper import verify_paper

    return verify_paper(args.format, _search_budget())


# ---------------------------------------------------------------------------


def _add_format(p):
    p.add_argument("--format", choices=("json", "text"), default="json")


def _add_io(p):
    p.add_argument("--input", help="path to a JSON input file")
    p.add_argument("--json", help="inline JSON input")


def _add_curve_flags(p):
    p.add_argument("--q", type=int, help="field size (prime power)")
    p.add_argument("--a", help="cubic coefficient a (int or comma-separated coefficients)")
    p.add_argument("--b", help="cubic coefficient b")
    p.add_argument("--polyline", action="store_true", help="use the affine line F_q[x]")
    _add_io(p)  # a curve JSON may replace the flags


def _curve_args(p):
    _add_curve_flags(p)
    _add_format(p)


def _hasse_args(p):
    _add_curve_flags(p)
    p.add_argument("--rank", type=int, required=True)
    _add_format(p)


def _form_args(p):
    _add_io(p)
    _add_format(p)


def _genus_verify_args(p):
    _add_io(p)
    p.add_argument("--inspection-degree", type=int)
    _add_format(p)


def _isom_search_args(p):
    _add_io(p)
    p.add_argument("--degree-bound", type=int, help="max x-degree of entries")
    p.add_argument("--degree-bound-y", type=int, help="max x-degree of the y part")
    _add_format(p)


# each subcommand: its help line, what adds its arguments, and its handler
_COMMANDS = {
    "curve": ("point count and smoothness report", _curve_args, _cmd_curve),
    "hasse": ("local-global verdict for a rank", _hasse_args, _cmd_hasse),
    "form": ("inspect a matrix over a coordinate ring", _form_args, _cmd_form),
    "genus-verify": ("verify a genus-witness pair file", _genus_verify_args, _cmd_genus_verify),
    "isom-search": ("bounded integral isometry search", _isom_search_args, _cmd_isom_search),
    "verify-paper": ("re-run the bundled worked examples", _add_format, _cmd_verify_paper),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every subcommand, or with ``command``'s alone: a
    process parses one command line, and the other subparsers are only
    start-up.  On a line that starts with ``command`` both print the same
    help, usage and errors.  The one-command parser spells out every
    command in its usage; the full parser keeps the default metavar, which
    also names the argument ``command`` in its own errors."""
    parser = argparse.ArgumentParser(prog="hasseforms", description=__doc__)
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


# built on the first run and reused: parsing leaves the parser unchanged
_shared_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _shared_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, BudgetExceededError, json.JSONDecodeError) as exc:
        sys.stderr.write(dumps({"error": _error_text(exc)}))
        return 2


def _error_text(exc: Exception) -> str:
    """The exit-2 message.  A KeyError's own text is only the key's repr;
    it becomes ``missing key 'field'``, followed by the object the key is
    missing from when the loader named it (KeyError(key, object))."""
    if isinstance(exc, KeyError) and exc.args:
        where = f" in {exc.args[1]}" if len(exc.args) > 1 else ""
        return f"missing key {exc.args[0]!r}{where}"
    return str(exc)


def main() -> None:
    # the process ends after one command: the objects made at start-up
    # are exempted from every collection, the final ones at exit included
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
