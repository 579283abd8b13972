import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforms import curvering, serialize
from hasseforms.curvering import CurveSpec, RingElement, RingFraction, RingMatrix, diagonal_rows
from hasseforms.finfield import make_extension
from hasseforms.funcfield import Poly
from hasseforms.paper import load_bundled_pair
from hasseforms.serialize import (
    curve_from_json,
    dumps,
    fraction_from_json,
    fraction_to_json,
    matrix_from_json,
    matrix_to_json,
    pair_from_json,
    render_text,
    ring_elem_from_json,
    ring_elem_to_json,
)

from oracles import curve_to_json, pair_to_json

F5 = make_extension(5, 1)
EC = CurveSpec.weierstrass(F5, 2, 3)


def test_curve_round_trip():
    for curve in (EC, CurveSpec.polyline(F5), CurveSpec.weierstrass(make_extension(3, 2), [1, 2], [0, 1])):
        assert curve_from_json(curve_to_json(curve)) == curve


def test_ring_elem_round_trip():
    e = RingElement(EC, Poly.from_text(F5, "x^2+3"), Poly.from_text(F5, "2*x"))
    assert ring_elem_from_json(EC, ring_elem_to_json(e)) == e
    assert ring_elem_from_json(EC, 7) == RingElement.constant(EC, 2)
    assert ring_elem_from_json(EC, "x+1") == RingElement(EC, Poly.from_text(F5, "x+1"))


def test_int_entries_are_the_curves_shared_constants():
    shared = RingMatrix(EC, diagonal_rows([1, 1])).rows
    assert fraction_from_json(EC, 6) == shared[0][0]
    assert fraction_from_json(EC, -5) == shared[0][1]
    assert matrix_from_json(EC, [[1, 0], [0, 11]]).rows == shared
    with pytest.raises(ValueError, match="ring element must be a JSON object, int or string"):
        fraction_from_json(EC, True)


def test_fraction_round_trip_and_rationalization():
    f = RingFraction(EC, RingElement.constant(EC, 3), Poly.from_text(F5, "x+1"))
    assert fraction_from_json(EC, fraction_to_json(f)) == f
    # a y denominator rationalizes to y / (x^3+2x+3)
    inv_y = fraction_from_json(EC, {"num": "1", "den": {"B": "1"}})
    assert inv_y.num == RingElement.y(EC)
    assert inv_y.den == Poly.from_text(F5, "x^3+2*x+3")


def test_matrix_round_trip():
    m = RingMatrix(EC, [[1, Poly.from_text(F5, "x")], [0, 2]])
    assert matrix_from_json(EC, matrix_to_json(m)) == m


def test_pair_round_trip():
    pair = load_bundled_pair("singular_cubic_pair")
    data = pair_to_json(
        pair["curve"], pair["F"], pair["G"], pair["witness"], pair["degree"], pair["bounds"]
    )
    again = pair_from_json(data)
    assert again["F"].matrix == pair["F"].matrix
    assert again["G"].matrix == pair["G"].matrix
    assert len(again["witness"].pairs) == 2
    for (q1, s1), (q2, s2) in zip(again["witness"].pairs, pair["witness"].pairs):
        assert q1 == q2 and s1 == s2


def test_schema_version_enforced():
    with pytest.raises(ValueError):
        pair_from_json({"schema": 2, "curve": {}, "F": [], "G": []})


# JSON trees as the standard encoder sees them: tuples encode as lists,
# strings carry quotes, backslashes, control characters and non-ASCII text
JSON_TEXT = st.text(alphabet=st.characters(codec="utf-8") | st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€😀'))
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | JSON_TEXT
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(JSON_TREES)
def test_dumps_matches_standard_encoder(obj):
    assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dumps_matches_standard_encoder_on_other_keys_and_values():
    for obj in (
        {3: "a", -1: [], 10**30: {}},
        {1.5: 1, -0.0: 2, 1e300: 3},
        {True: None, False: 0},
        [float("nan"), float("inf"), -float("inf"), 1e-320],
        # lists of point records, rendered in one pass, and near misses
        [{"degree": 2, "x": [1, 2], "y": [0, 4]}, {"degree": 1, "x": [3], "y": [-1]}],
        ({"degree": 1, "x": [7], "y": [8]},),
        [{"degree": 1, "x": [], "y": [2]}],
        [{"degree": 1, "x": [True], "y": [2]}],
        [{"degree": 1.0, "x": [1], "y": [2]}],
        [{"degree": 1, "x": (1,), "y": [2]}],
        [{"degree": 1, "x": {1: 2}, "y": [2]}],
        [{"degree": 1, "x": [1], "y": [2]}, {"x": [1], "y": [2]}, 3],
    ):
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    for bad in ({"a": {1, 2}}, [object()], {1: 1, "a": 2}):
        with pytest.raises(TypeError):
            json.dumps(bad, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            dumps(bad)


def test_dumps_deterministic():
    payload = {"b": 1, "a": [1, 2], "c": {"y": True, "x": None}}
    assert dumps(payload) == dumps(json.loads(dumps(payload)))
    assert dumps(payload).endswith("\n")


def test_render_text_mirrors_structure():
    text = render_text({"verdict": "Certified", "identity_ok": [True, False], "n": 2})
    assert "verdict: \"Certified\"" in text
    assert "identity_ok[0]: true" in text
    assert "identity_ok[1]: false" in text
    assert "n: 2" in text


def test_loading_runs_no_gcd_for_a_constant_numerator(monkeypatch):
    # a nonzero constant numerator shares no factor with its denominator,
    # so an entry such as {"num": "1", "den": "1+x"} is only made monic
    calls, entries = [], []
    gcd, load = curvering.poly_gcd, serialize.fraction_from_json
    monkeypatch.setattr(curvering, "poly_gcd", lambda a, b: calls.append((a, b)) or gcd(a, b))

    def loading(curve, data):  # each entry with the gcds its loading ran
        before = len(calls)
        entry = load(curve, data)
        entries.append((entry, len(calls) - before))
        return entry

    monkeypatch.setattr(serialize, "fraction_from_json", loading)
    for name in ("polyline_pair", "singular_cubic_pair"):
        load_bundled_pair(name)
    fractions = [(e, n) for e, n in entries if e.den.degree >= 1]
    assert [n for e, n in fractions if e.num.is_constant()] == [0] * 4  # 1/(1+x), 1/(1-x), 3/(x+1), 1/(x+1)
    paying = [n for e, n in fractions if not e.num.is_constant()]  # the cubic pair's 1/y and 2/y: -y, -2y over a cubic
    assert len(paying) == 2 and all(n > 0 for n in paying)


def test_constant_denominators_scale_the_numerator():
    # an entry over a nonzero constant is integral as written: it loads as
    # the value RingFraction.make reduces it to, the numerator scaled
    line = CurveSpec.polyline(F5)
    for curve, nums in ((EC, ["x+1", 0, 3, {"A": "x^2+3", "B": "2*x"}, {"B": "1"}]), (line, ["x+1", 0, 3, {"A": "x^2"}])):
        for num in nums:
            for den in ("1", "2", "4", {"A": "3"}, {"A": "2", "B": "0"}):
                entry = {"num": num, "den": den}
                parsed = ring_elem_from_json(curve, den) if isinstance(den, dict) else Poly.from_text(F5, den)
                expected = RingFraction.make(ring_elem_from_json(curve, num), parsed)
                got = serialize.entry_from_json(curve, entry)
                assert got == expected.as_ring_element()
                assert fraction_from_json(curve, entry) == expected
        # a denominator of positive degree leaves a fraction in lowest terms
        cancels = serialize.entry_from_json(curve, {"num": "x^2+x", "den": "x"})
        assert type(cancels) is RingFraction and cancels.as_ring_element() == ring_elem_from_json(curve, "x+1")
        assert not serialize.entry_from_json(curve, {"num": "1", "den": "x"}).is_integral()
        with pytest.raises(ValueError, match="zero denominator"):
            serialize.entry_from_json(curve, {"num": "1", "den": {"A": "0"}})
