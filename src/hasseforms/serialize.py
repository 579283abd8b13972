"""JSON wire formats for fields, curves, matrices, witnesses, reports.

Conventions (a pair file, ``form`` input and every report carry
``"schema": 1``; the records below do not, a bare curve file included):

  field          {"p": 5, "k": 1}
  element        coefficient array, least significant first: [4]
  polynomial     text, e.g. "x^3+2*x+3", or "(1+2*t)*x+(t)" over F_{p^k} (read mod p)
  ring element   {"A": "<poly>", "B": "<poly>"}   (A + B*y)
  fraction       {"num": <ring element>, "den": "<poly>"}
  matrix         row-major nested arrays of entries; an entry may be a
                 fraction record, a ring-element record, a polynomial
                 string, or a plain integer
  curve          {"type": "polyline"|"weierstrass", "field": ..., "a": [...], "b": [...]}
  point          {"x": [...], "y": [...], "degree": d}
  place          its least point on a cubic, its prime's text on the line

On input a fraction denominator may also be a ring-element record; it
is rationalized into F_q[x] on load.  Every record refuses any key it
does not define.  Integers (the schema, field entries, element coefficients,
degrees, bounds) must be JSON integers, never floats, strings or
booleans.  Output is deterministic: ``dumps(obj)`` is byte for byte
``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, built by a
recursive encoder (the standard one indents only in pure Python).

The reports' encoders live next to the code that builds the reports and
load with it: ``report_to_json`` in ``picard``, for point reports and
verdicts, and ``genus_report_to_json`` in ``genus``.  The last, which
perfbench's session worker looks up here, is also reached through this
module (``__getattr__``).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from . import _lazy_names, forms
from .curvepoints import AffinePoint
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _coerce_entry, square_rows
from .finfield import MAX_FIELD_SIZE, FieldElement, FiniteField, capped_power, make_extension
from .forms import GramMatrix
from .funcfield import Poly, to_text

__getattr__ = _lazy_names(globals(), {"genus_report_to_json": "genus"})


def dumps(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", byte for byte."""
    return _encode(obj, "\n") + "\n"


def _encode(obj, newline: str) -> str:
    """The JSON text of obj, indented as if its line began ``newline``."""
    if type(obj) is str:
        return _quote(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if obj and type(obj[0]) is dict and (text := _points_text(obj, newline)) is not None:
            return text
        body = ("," + inner).join([_encode(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]" if obj else "[]"
    if isinstance(obj, dict):
        body = ("," + inner).join(
            [f"{_quote(k if isinstance(k, str) else json.dumps(k))}: {_encode(obj[k], inner)}" for k in sorted(obj)]
        )
        return f"{{{inner}{body}{newline}}}" if obj else "{}"
    return json.dumps(obj)  # other scalars; a non-JSON type raises TypeError


_POINT_KEYS = {"degree", "x", "y"}  # the keys of a ``point_to_json`` record


def _points_text(points, newline: str):
    """A list of point records, each an int degree and two nonempty flat
    lists of int coefficients, rendered in one pass with no call per node;
    None for any other list, which ``_encode`` then renders item by item."""
    if not all(type(p) is dict and p.keys() == _POINT_KEYS and type(p["x"]) is list and type(p["y"]) is list
               and p["x"] and p["y"] for p in points):
        return None
    if {type(v) for p in points for v in (p["degree"], *p["x"], *p["y"])} != {int}:
        return None
    inner = newline + "  "
    record, coefficient = inner + "  ", inner + "    "
    sep = "," + coefficient
    head, x, y = f'{{{record}"degree": ', f',{record}"x": [{coefficient}', f'{record}],{record}"y": [{coefficient}'
    tail = f"{record}]{inner}}}"
    body = ("," + inner).join([
        head + int.__repr__(p["degree"]) + x + sep.join(map(int.__repr__, p["x"]))
        + y + sep.join(map(int.__repr__, p["y"])) + tail
        for p in points
    ])
    return f"[{inner}{body}{newline}]"


def require_key(data, key: str, what: str):
    """data[key] of the JSON object ``what``; a missing key raises
    KeyError(key, what), which the CLI renders naming both."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in data:
        raise KeyError(key, what)
    return data[key]


def require_known_keys(data: dict, allowed: tuple, what: str):
    """Refuse a key of the JSON object ``what`` outside ``allowed`` with a
    ValueError naming the first in sorted order."""
    if unknown := sorted(data.keys() - allowed):
        raise ValueError(f"unknown key {unknown[0]!r} in {what}; allowed are {', '.join(allowed[:-1])} and {allowed[-1]}")


def require_int(value, what: str) -> int:
    """value if it is a JSON integer; a float, a string or true is
    refused with a ValueError naming ``what``, never rounded or read."""
    if type(value) is not int:  # JSON true is not a number either
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# fields and elements


def field_from_json(data: dict) -> FiniteField:
    """A base field F_{p^k}: p and k are integers and p^k is at most
    MAX_FIELD_SIZE, checked before the primality test."""
    p = require_int(require_key(data, "p", "field"), "field p")
    require_known_keys(data, ("p", "k"), "field")
    k = require_int(data.get("k", 1), "field k")
    if p >= 2 and capped_power(p, k, MAX_FIELD_SIZE) > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_FIELD_SIZE}")
    return make_extension(p, k)


def elem_to_json(e: FieldElement) -> list:
    return list(e.coeffs)


def elem_from_json(field: FiniteField, data, what: str = "field element") -> FieldElement:
    """An element from a JSON integer or a list of JSON integers (its
    coefficients, least significant first, at most k over F_{p^k})."""
    if isinstance(data, list):
        if len(data) > field.k:
            raise ValueError(f"{what} has {len(data)} coefficients; an element of F_{field.q} has at most {field.k}")
        return field.element([require_int(c, f"{what} coefficient") for c in data])
    return field.element(require_int(data, what))


# ---------------------------------------------------------------------------
# curves


def curve_from_json(data: dict) -> CurveSpec:
    field = field_from_json(require_key(data, "field", "curve"))
    require_known_keys(data, ("type", "field", "a", "b"), "curve")
    kind = require_key(data, "type", "curve")
    if kind == "polyline":
        return CurveSpec(kind, field, data.get("a"), data.get("b"))  # which refuses coefficients
    if kind == "weierstrass":
        return CurveSpec.weierstrass(
            field,
            elem_from_json(field, require_key(data, "a", "curve"), "curve a"),
            elem_from_json(field, require_key(data, "b", "curve"), "curve b"),
        )
    raise ValueError(f"unknown curve type {kind!r}")


# ---------------------------------------------------------------------------
# ring elements, fractions, matrices


def ring_elem_to_json(e: RingElement) -> dict:
    return {"A": to_text(e.a), "B": to_text(e.b)}


def ring_elem_from_json(curve: CurveSpec, data) -> RingElement:
    field = curve.field
    if type(data) is int:  # JSON true is not the constant 1
        return RingElement.constant(curve, data)
    if isinstance(data, str):
        return RingElement(curve, Poly.from_text(field, data))
    if not isinstance(data, dict):
        raise ValueError("ring element must be a JSON object, int or string")
    require_known_keys(data, ("A", "B"), "ring element")
    return RingElement(curve, Poly.from_text(field, data.get("A", "0")), Poly.from_text(field, data.get("B", "0")))


def fraction_to_json(e: RingFraction) -> dict:
    return {"num": ring_elem_to_json(e.num), "den": to_text(e.den)}


def entry_from_json(curve: CurveSpec, data):
    """A matrix entry as written: a RingElement for an int, a polynomial
    text or a ring-element record, else (num or den named) a RingFraction
    in lowest terms, its denominator rationalized into F_q[x]."""
    if not isinstance(data, dict) or data.keys().isdisjoint(("num", "den")):
        return ring_elem_from_json(curve, data)  # an int is the curve's shared constant
    require_known_keys(data, ("num", "den"), "fraction")
    num = ring_elem_from_json(curve, require_key(data, "num", "fraction"))
    den = data.get("den", "1")
    den = ring_elem_from_json(curve, den) if isinstance(den, dict) else Poly.from_text(curve.field, den)
    if den.is_zero():
        raise ValueError("fraction has a zero denominator")
    return RingFraction.make(num, den)


def fraction_from_json(curve: CurveSpec, data) -> RingFraction:
    return _coerce_entry(curve, entry_from_json(curve, data))


def matrix_to_json(m: RingMatrix) -> list:
    return [[fraction_to_json(e) for e in row] for row in m.rows]


def _rows_from_json(curve: CurveSpec, rows, what: str, entry):
    """``curvering.square_rows(curve, rows, entry)`` for a JSON list of
    rows, each a list of entries; any other shape is refused with a
    ValueError naming ``what``."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{what} must be a list of rows, each a list of entries")
    return square_rows(curve, rows, entry)


def matrix_from_json(curve: CurveSpec, rows, what: str = "matrix") -> RingMatrix:
    """A matrix over the fraction field from a JSON list of rows."""
    return RingMatrix(curve, _rows_from_json(curve, rows, what, fraction_from_json))


# ---------------------------------------------------------------------------
# points


def point_to_json(p: AffinePoint) -> dict:
    return {"x": elem_to_json(p.x), "y": elem_to_json(p.y), "degree": p.degree}


# ---------------------------------------------------------------------------
# witness / search pair files


def pair_from_json(data: dict, search: bool = False) -> dict:
    """Load a pair file: curve, forms F and G, optional witnesses,
    inspection degree, and search bounds.

    The curve must be a JSON object and the witnesses a JSON list; to
    replay a pair over another base field, edit ``curve.field`` in the
    JSON (polynomial texts are read mod p).  With ``search``, a rank the
    search does not take is refused once both shapes are read
    (``forms._require_search_rank``), before either form is built.
    """
    if data.get("schema") != 1 or type(data["schema"]) is not int:  # true and 1.0 equal 1
        raise ValueError("unsupported or missing schema version")
    require_known_keys(data, ("schema", "curve", "F", "G", "witnesses", "degree", "isom_bounds"), "pair")
    curve = curve_from_json(require_key(data, "curve", "pair"))
    # the entries load by entry_from_json, a fraction only for a fraction
    # record, and both shapes are checked before either form is built
    # with its determinant
    f, g = (_rows_from_json(curve, require_key(data, key, "pair"), key, entry_from_json) for key in "FG")
    if len(f) != len(g):
        raise ValueError("forms have different ranks")
    if search:
        forms._require_search_rank(len(f))
    out = {"curve": curve, "F": GramMatrix(curve, f), "G": GramMatrix(curve, g)}
    if "witnesses" in data:
        if not isinstance(data["witnesses"], list):
            raise ValueError("witnesses must be a JSON list")
        pairs = []
        for w in data["witnesses"]:
            q = require_key(w, "Q", "witness")
            require_known_keys(w, ("Q", "s"), "witness")
            pairs.append((matrix_from_json(curve, q, "witness Q"), ring_elem_from_json(curve, require_key(w, "s", "witness"))))
        out["witness"] = forms.GenusWitness(out["G"], pairs)  # compiles genus verification on first use
    if "degree" in data:
        out["degree"] = require_int(data["degree"], "degree")
    if "isom_bounds" in data:
        bounds = data["isom_bounds"]
        if not isinstance(bounds, dict):
            raise ValueError("isom_bounds must be a JSON object")
        require_known_keys(bounds, ("deg_x", "deg_y"), "isom_bounds")
        out["bounds"] = {k: require_int(v, f"isom_bounds {k}") for k, v in bounds.items()}
    return out


# ---------------------------------------------------------------------------
# text rendering (mirrors the JSON field for field)


def render_text(obj) -> str:
    lines = []
    _flatten(obj, "", lines)
    return "\n".join(lines) + "\n"


def _flatten(obj, prefix, lines):
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), lines)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            lines.append(f"{prefix}: []")
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}[{i}]", lines)
    else:
        lines.append(f"{prefix}: {json.dumps(obj)}")
