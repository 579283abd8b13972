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

import json
import os
import sys
from types import SimpleNamespace

from . import curvepoints, forms, hasse
from .curvering import POLYLINE, CurveSpec
from .finfield import MAX_FIELD_SIZE, _prime_factors, make_extension
from .forms import DEFAULT_SEARCH_BUDGET, BudgetExceededError
from .serialize import (
    curve_from_json,
    dumps,
    elem_from_json,
    fraction_to_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    render_text,
    require_key,
    require_known_keys,
)


def _flag_element(field, text: str, flag: str):
    """A flag's comma-separated coefficients, read as a curve record's."""
    return elem_from_json(field, [int(part) for part in text.split(",")], flag)


def _field_from_q(q: int):
    if q > MAX_FIELD_SIZE:  # before the scan for a prime factor
        raise ValueError(f"field size {q} exceeds desk-scale bound {MAX_FIELD_SIZE}")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    p = primes[0]
    return make_extension(p, next(k for k in range(1, q) if p**k == q))


def _curve_from_args(args) -> CurveSpec:
    if args.input or args.json:
        return curve_from_json(_load_input(args))
    if args.q is None:
        raise ValueError("pass --q (with --a/--b or --polyline), or a curve JSON")
    field = _field_from_q(args.q)
    if args.polyline:
        return CurveSpec(POLYLINE, field, args.a, args.b)  # which refuses --a and --b
    if args.a is None or args.b is None:
        raise ValueError("weierstrass curves need --a and --b (or pass --polyline)")
    return CurveSpec.weierstrass(field, _flag_element(field, args.a, "--a"), _flag_element(field, args.b, "--b"))


def _load_input(args) -> dict:
    try:
        if args.input:
            with open(args.input) as handle:
                data = json.load(handle)
        elif args.json:
            data = json.loads(args.json)
        else:
            raise ValueError("provide --input FILE or --json TEXT")
    except RecursionError:  # the decoder's, on arrays or objects nested too deep
        raise ValueError("input JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    return data


def _emit(payload: dict, fmt: str):
    sys.stdout.write(render_text(payload) if fmt == "text" else dumps(payload))


def _search_budget():
    raw = os.environ.get("HASSE_FORMS_BUDGET") or str(DEFAULT_SEARCH_BUDGET)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"HASSE_FORMS_BUDGET must be a positive integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# subcommands: each imports what only it runs when it runs, and reads a
# name that perfbench's tracer wraps as an attribute of the module it
# wraps the name on (``forms``, ``curvepoints``, ``hasse``), so that the
# tracer sees the call and no call runs an import statement for it


def _cmd_report(args) -> int:
    """``curve``'s point report, or ``hasse``'s verdict at ``--rank``."""
    from .picard import report_to_json

    curve = _curve_from_args(args)
    report = hasse.hasse_principle(curve, args.rank) if args.command == "hasse" else curvepoints.point_report(curve)
    _emit(report_to_json(report), args.format)
    return 0


def _cmd_form(args) -> int:
    data = _load_input(args)
    if data.get("schema") != 1 or type(data["schema"]) is not int:  # true and 1.0 equal 1
        raise ValueError("unsupported or missing schema version")
    require_known_keys(data, ("schema", "curve", "matrix"), "input")
    curve = curve_from_json(require_key(data, "curve", "input"))
    matrix = matrix_from_json(curve, require_key(data, "matrix", "input"))
    det = matrix.det()
    symmetric = matrix.is_symmetric()
    integral = matrix.all_integral()
    unimodular = symmetric and integral and det.as_ring_element().is_unit()
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
    from .genus import genus_report_to_json

    data = _load_input(args)
    if "witnesses" not in data:  # refused before any form is built
        raise ValueError("pair file carries no witnesses")
    pair = pair_from_json(data)
    degree = args.inspection_degree if args.inspection_degree is not None else pair.get("degree", 2)
    report = forms.verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=degree)
    _emit(genus_report_to_json(report), args.format)
    return 0 if report.verdict == "Certified" else 1


def _cmd_isom_search(args) -> int:
    data = _load_input(args)
    bounds = data.get("isom_bounds", {})  # one that is no JSON object is refused by pair_from_json
    if args.degree_bound is None and isinstance(bounds, dict) and "deg_x" not in bounds:  # before any form is built
        raise ValueError("no degree bound: pass --degree-bound or put isom_bounds in the file")
    pair = pair_from_json(data, search=True)
    bounds = pair.get("bounds", {})
    deg_x = args.degree_bound if args.degree_bound is not None else bounds["deg_x"]
    deg_y = args.degree_bound_y if args.degree_bound_y is not None else bounds.get("deg_y", -1)
    witness = forms.isom_search(pair["F"], pair["G"], deg_x=deg_x, deg_y=deg_y, budget=_search_budget())
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


# every flag once, in argparse's keywords: an int type or none (a str),
# a switch (store_true), or --format's choices; and a help text
_FLAGS = {
    "--q": {"type": int, "help": "field size (prime power)"},
    "--a": {"help": "cubic coefficient a (int or comma-separated coefficients)"},
    "--b": {"help": "cubic coefficient b"},
    "--polyline": {"action": "store_true", "help": "use the affine line F_q[x]"},
    "--input": {"help": "path to a JSON input file"},
    "--json": {"help": "inline JSON input"},
    "--rank": {"type": int, "required": True},
    "--inspection-degree": {"type": int},
    "--degree-bound": {"type": int, "help": "max x-degree of entries"},
    "--degree-bound-y": {"type": int, "help": "max x-degree of the y part"},
    "--format": {"choices": ("json", "text"), "default": "json"},
}

_IO = ("--input", "--json")
_CURVE = ("--q", "--a", "--b", "--polyline", *_IO)  # a curve JSON may replace the flags

# each subcommand: its help line, its flags in help order (every command
# also takes --format, last), and its handler
_COMMANDS = {
    "curve": ("point count and smoothness report", _CURVE, _cmd_report),
    "hasse": ("local-global verdict for a rank", (*_CURVE, "--rank"), _cmd_report),
    "form": ("inspect a matrix over a coordinate ring", _IO, _cmd_form),
    "genus-verify": ("verify a genus-witness pair file", (*_IO, "--inspection-degree"), _cmd_genus_verify),
    "isom-search": ("bounded integral isometry search", (*_IO, "--degree-bound", "--degree-bound-y"), _cmd_isom_search),
    "verify-paper": ("re-run the bundled worked examples", (), _cmd_verify_paper),
}


def _read_args(argv):
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    the flag table, or None for a line this reader declines.  It takes a
    command followed by its flags spelled exactly, each value a word of
    its own that does not start with ``-`` and that the flag's type or
    choices accept.  Help, abbreviations, ``--flag=value``, negative
    numbers and every error are left to argparse, which prints them."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, names, handler = _COMMANDS[argv[0]]
    flags = {flag: _FLAGS[flag] for flag in (*names, "--format")}
    values = {flag: False if "action" in options else options.get("default") for flag, options in flags.items()}
    words = iter(argv[1:])
    for flag in words:
        options = flags.get(flag)
        if options is None:
            return None
        if "action" in options:  # a switch
            values[flag] = True
            continue
        value = next(words, "-")  # a flag with no value is declined
        if value.startswith("-") or "choices" in options and value not in options["choices"]:
            return None
        if options.get("type") is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[flag] = value
    if any(value is None and flags[flag].get("required") for flag, value in values.items()):
        return None
    return SimpleNamespace(command=argv[0], func=handler, **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def build_parser():
    """The argparse parser of every subcommand, from the flag table.  A
    process builds it, and loads argparse, only for a line that
    ``_read_args`` declines: to print help, usage or an error, or to
    parse a spelling that only argparse accepts."""
    import argparse

    parser = argparse.ArgumentParser(prog="hasseforms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "--format"):
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv) or build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # inside the try: an unwritable stdout exits 2 like any other OSError
        return code
    except (ValueError, KeyError, TypeError, OSError, BudgetExceededError) as exc:
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
    # the process ends after one command, whose output run() has flushed,
    # so it skips the interpreter's teardown
    os._exit(run())


if __name__ == "__main__":
    main()
