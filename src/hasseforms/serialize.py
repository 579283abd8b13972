"""JSON wire formats for fields, curves, matrices, witnesses, reports.

Conventions (all schemas carry ``"schema": 1``):

  field          {"p": 5, "k": 1}
  element        coefficient array, least significant first: [4]
  polynomial     text, e.g. "x^3+2*x+3" (coefficients read mod p)
  ring element   {"A": "<poly>", "B": "<poly>"}   (A + B*y)
  fraction       {"num": <ring element>, "den": "<poly>"}
  matrix         row-major nested arrays of entries; an entry may be a
                 fraction record, a ring-element record, a polynomial
                 string, or a plain integer
  curve          {"type": "polyline"|"weierstrass", "field": ..., "a": [...], "b": [...]}
  point          {"x": [...], "y": [...], "degree": d}
  prime          its polynomial text, or "inf"

On input a fraction denominator may also be a ring-element record; it
is rationalized into F_q[x] on load.  Integers (field entries, element
coefficients, degrees, bounds) must be JSON integers, never floats,
strings or booleans.  Output is deterministic: ``dumps(obj)`` is byte
for byte ``json.dumps(obj, sort_keys=True, indent=2) + "\n"``, built by
a recursive encoder (the standard one indents only in pure Python).
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote

from .curvepoints import AffinePoint, PointCountReport
from .curvering import CurveSpec, RingElement, RingFraction, RingMatrix, _coerce_entry
from .finfield import MAX_FIELD_SIZE, FieldElement, FiniteField, capped_power, make_extension
from .forms import GenusReport, GenusWitness, GramMatrix
from .funcfield import Poly, PrimePoly, to_text
from .hasse import HasseDecision


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
        body = ("," + inner).join([_encode(v, inner) for v in obj])
        return f"[{inner}{body}{newline}]" if obj else "[]"
    if isinstance(obj, dict):
        body = ("," + inner).join(
            [f"{_quote(k if isinstance(k, str) else json.dumps(k))}: {_encode(obj[k], inner)}" for k in sorted(obj)]
        )
        return f"{{{inner}{body}{newline}}}" if obj else "{}"
    return json.dumps(obj)  # other scalars; a non-JSON type raises TypeError


def require_key(data, key: str, what: str):
    """data[key] of the JSON object ``what``; a missing key raises
    KeyError(key, what), which the CLI renders naming both."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object")
    if key not in data:
        raise KeyError(key, what)
    return data[key]


def require_int(value, what: str) -> int:
    """value if it is a JSON integer; a float, a string or true is
    refused with a ValueError naming ``what``, never rounded or read."""
    if type(value) is not int:  # JSON true is not a number either
        raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# fields and elements


def field_to_json(field: FiniteField) -> dict:
    return {"p": field.p, "k": field.k}


def field_from_json(data: dict) -> FiniteField:
    """A base field F_{p^k}: p and k are integers and p^k is at most
    MAX_FIELD_SIZE, checked before the primality test."""
    p = require_int(require_key(data, "p", "field"), "field p")
    k = require_int(data.get("k", 1), "field k")
    if p >= 2 and capped_power(p, k, MAX_FIELD_SIZE) > MAX_FIELD_SIZE:
        raise ValueError(f"field size {p}^{k} exceeds desk-scale bound {MAX_FIELD_SIZE}")
    return make_extension(p, k)


def elem_to_json(e: FieldElement) -> list:
    return list(e.coeffs)


def elem_from_json(field: FiniteField, data, what: str = "field element") -> FieldElement:
    """An element from a JSON integer or a list of JSON integers (its
    coefficients, least significant first)."""
    if isinstance(data, list):
        return field.element([require_int(c, f"{what} coefficient") for c in data])
    return field.element(require_int(data, what))


# ---------------------------------------------------------------------------
# curves


def curve_to_json(curve: CurveSpec) -> dict:
    out = {"type": curve.kind, "field": field_to_json(curve.field)}
    if not curve.is_polyline:
        out["a"] = elem_to_json(curve.a)
        out["b"] = elem_to_json(curve.b)
    return out


def curve_from_json(data: dict) -> CurveSpec:
    field = field_from_json(require_key(data, "field", "curve"))
    kind = require_key(data, "type", "curve")
    if kind == "polyline":
        return CurveSpec.polyline(field)
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
    a = Poly.from_text(field, data.get("A", "0"))
    b = Poly.from_text(field, data.get("B", "0"))
    return RingElement(curve, a, b)


def fraction_to_json(e: RingFraction) -> dict:
    return {"num": ring_elem_to_json(e.num), "den": to_text(e.den)}


def fraction_from_json(curve: CurveSpec, data) -> RingFraction:
    if not isinstance(data, dict) or "num" not in data:
        # an int is the curve's shared c/1 (JSON true is no int)
        return _coerce_entry(curve, data if type(data) is int else ring_elem_from_json(curve, data))
    num = ring_elem_from_json(curve, data["num"])
    den = data.get("den", "1")
    den = ring_elem_from_json(curve, den) if isinstance(den, dict) else Poly.from_text(curve.field, den)
    if den.is_zero():
        raise ValueError("fraction has a zero denominator")
    return RingFraction.make(num, den)


def matrix_to_json(m: RingMatrix) -> list:
    return [[fraction_to_json(e) for e in row] for row in m.rows]


def matrix_from_json(curve: CurveSpec, rows, what: str = "matrix") -> RingMatrix:
    """A matrix from a JSON list of rows, each a list of entries; any
    other shape is refused with a ValueError naming ``what``."""
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError(f"{what} must be a list of rows, each a list of entries")
    return RingMatrix(curve, [[fraction_from_json(curve, e) for e in row] for row in rows])


# ---------------------------------------------------------------------------
# points and primes


def point_to_json(p: AffinePoint) -> dict:
    return {"x": elem_to_json(p.x), "y": elem_to_json(p.y), "degree": p.degree}


def place_to_json(place) -> object:
    if isinstance(place, PrimePoly):
        return place.text()
    return point_to_json(place)


# ---------------------------------------------------------------------------
# reports


def point_report_to_json(report: PointCountReport) -> dict:
    out = {
        "schema": 1,
        "affine": report.affine,
        "total": report.total,
        "smooth": report.smooth,
        "singular_points": [point_to_json(p) for p in report.singular_points],
    }
    for key in ("pic_order", "pic_parity", "two_torsion", "warning"):
        value = getattr(report, key)
        if value is not None:
            out[key] = value
    return out


def decision_to_json(decision: HasseDecision) -> dict:
    reason = {
        "pic_order": decision.reason.pic_order,
        "pic_parity": decision.reason.pic_parity,
        "ufd": decision.reason.ufd,
        "criterion": decision.reason.criterion,
    }
    if decision.reason.two_torsion is not None:
        reason["two_torsion"] = decision.reason.two_torsion
    return {"schema": 1, "verdict": decision.verdict, "rank": decision.rank, "reason": reason}


def genus_report_to_json(report: GenusReport) -> dict:
    return {
        "schema": 1,
        "verdict": report.verdict,
        "degree": report.degree,
        "identity_ok": list(report.identity_ok),
        "covered": [place_to_json(p) for p in report.covered],
        "uncovered": [place_to_json(p) for p in report.uncovered],
    }


# ---------------------------------------------------------------------------
# witness / search pair files


def pair_to_json(curve, f: GramMatrix, g: GramMatrix, witness=None, degree=None, bounds=None) -> dict:
    out = {
        "schema": 1,
        "curve": curve_to_json(curve),
        "F": matrix_to_json(f.matrix),
        "G": matrix_to_json(g.matrix),
    }
    if witness is not None:
        out["witnesses"] = [
            {"Q": matrix_to_json(q), "s": ring_elem_to_json(s)} for q, s in witness.pairs
        ]
    if degree is not None:
        out["degree"] = degree
    if bounds is not None:
        out["isom_bounds"] = dict(bounds)
    return out


def pair_from_json(data: dict, field: FiniteField | None = None) -> dict:
    """Load a pair file: curve, forms F and G, optional witnesses,
    inspection degree, and search bounds.

    ``field`` overrides the bundled base field, which lets one fixture
    be replayed over several primes (polynomial texts are re-read mod p).
    """
    if data.get("schema") != 1:
        raise ValueError("unsupported or missing schema version")
    curve_data = dict(require_key(data, "curve", "pair"))
    if field is not None:
        curve_data["field"] = field_to_json(field)
    curve = curve_from_json(curve_data)
    f = GramMatrix(curve, matrix_from_json(curve, require_key(data, "F", "pair"), "F"))
    g = GramMatrix(curve, matrix_from_json(curve, require_key(data, "G", "pair"), "G"))
    out = {"curve": curve, "F": f, "G": g}
    if "witnesses" in data:
        pairs = tuple(
            (
                matrix_from_json(curve, require_key(w, "Q", "witness"), "witness Q"),
                ring_elem_from_json(curve, require_key(w, "s", "witness")),
            )
            for w in data["witnesses"]
        )
        out["witness"] = GenusWitness(g, pairs)
    if "degree" in data:
        out["degree"] = require_int(data["degree"], "degree")
    if "isom_bounds" in data:
        bounds = data["isom_bounds"]
        if not isinstance(bounds, dict):
            raise ValueError("isom_bounds must be a JSON object")
        for key in bounds:
            if key not in ("deg_x", "deg_y"):
                raise ValueError(f"unknown key {key!r} in isom_bounds; allowed are deg_x and deg_y")
        out["bounds"] = {k: require_int(v, f"isom_bounds {k}") for k, v in bounds.items()}
    return out


def load_bundled_pair(name: str, field: FiniteField | None = None) -> dict:
    """Load one of the worked-example pair files shipped with the package."""
    from importlib import resources

    path = resources.files("hasseforms") / "fixtures" / f"{name}.json"
    return pair_from_json(json.loads(path.read_text()), field=field)


# ---------------------------------------------------------------------------
# text rendering (mirrors the JSON field for field)


def render_text(obj, prefix="") -> str:
    lines = []
    _flatten(obj, prefix, lines)
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
