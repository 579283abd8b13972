"""Hypothesis fuzz of the input boundary: polynomial text and pair JSON.

Whatever the input, ``Poly.from_text`` either parses or raises
ValueError, and ``cli.run`` answers with exit code 0, 1 or 2; no other
exception may escape, and each example must finish within the deadline.
Inputs are mostly well formed (small fields, short polynomials, the
bundled pair files with a few leaves replaced) so that they reach the
search and the verification, with some arbitrary JSON and text mixed in.
A separate isom-search strategy draws well-formed pairs whose entries
reach the text-degree cap, for the search's evaluation points, and a
deep-nesting one draws JSON nested past the decoder's recursion limit.
"""

import contextlib
import copy
import io
import json
import os
from importlib import resources
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforms.cli import run
from hasseforms.finfield import make_extension
from hasseforms.funcfield import MAX_TEXT_DEGREE, Poly

FIELDS = [make_extension(p, k) for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 2))]
FUZZ = settings(max_examples=150, deadline=5000, derandomize=True, database=None)

_term = st.tuples(
    st.sampled_from(["", "+", "-"]),
    st.one_of(st.just(""), st.integers(0, 10**6).map(str), st.integers(0, 10**40).map(str)),
    st.sampled_from(["", "x", "*x", "x^"]),
    st.one_of(st.integers(0, 9), st.integers(0, 300), st.integers(0, 10**12)).map(str),
).map(lambda t: t[0] + t[1] + t[2] + (t[3] if t[2].endswith("^") else ""))
poly_texts = st.one_of(
    st.lists(_term, min_size=1, max_size=5).map("".join),
    st.text(alphabet="0123456789x^+-* ()tyX.٣", max_size=30),
    st.text(max_size=20),
)
# short polynomials the grammar accepts, as the pair files write them
small_polys = st.lists(
    st.tuples(st.integers(-12, 12), st.integers(0, 3)), min_size=1, max_size=3
).map(lambda terms: "+".join(f"{c}*x^{e}" for c, e in terms).replace("+-", "-"))

json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(10**20), 10**20),
        st.floats(allow_nan=False),
        poly_texts,
    ),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
small_ints = st.integers(-3, 3)
fields = st.one_of(
    st.fixed_dictionaries({"p": st.sampled_from([3, 5, 7]), "k": st.sampled_from([1, 1, 2])}),
    st.fixed_dictionaries({"p": st.sampled_from([0, -3, 2, 9, 121, 10**30]) | json_values, "k": small_ints | json_values}),
)
curves = st.fixed_dictionaries(
    {"type": st.sampled_from(["polyline", "polyline", "weierstrass", "nodal"]), "field": fields},
    optional={"a": small_ints | st.lists(small_ints, max_size=3) | json_values, "b": small_ints | json_values},
)
ring_elems = st.one_of(
    small_ints,
    small_polys,
    st.fixed_dictionaries({}, optional={"A": small_polys, "B": small_polys}),
    poly_texts,
    json_values,
)
entries = st.one_of(
    ring_elems,
    st.fixed_dictionaries({"num": ring_elems}, optional={"den": small_polys | ring_elems}),
)
matrices = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)),
    json_values,
)
schemas = st.sampled_from([1, 1, 1, 1, 2, "1"])
pairs = st.fixed_dictionaries(
    {"schema": schemas, "curve": curves, "F": matrices, "G": matrices},
    optional={
        "witnesses": st.lists(st.fixed_dictionaries({"Q": matrices, "s": ring_elems}), max_size=2) | json_values,
        "degree": st.integers(-2, 3) | json_values,
        "isom_bounds": st.fixed_dictionaries({"deg_x": st.integers(-2, 1)}, optional={"deg_y": st.integers(-2, 1)})
        | json_values,
    },
)


def _bundled(name):
    return json.loads((resources.files("hasseforms") / "fixtures" / f"{name}.json").read_text())


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for i, value in enumerate(obj):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def _replaced(obj, edits):
    obj = copy.deepcopy(obj)
    for path, value in edits:
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return obj


def _mutants(pair):
    paths = list(_leaf_paths(pair))
    edit = st.tuples(st.sampled_from(paths), small_ints | small_polys | ring_elems)
    return st.lists(edit, min_size=1, max_size=3).map(lambda edits: _replaced(pair, edits))


# the bundled pair files with a few leaves replaced; the cubic's own search
# bounds exceed the fuzz budget, so they are lowered
_cubic = _bundled("singular_cubic_pair")
_cubic["isom_bounds"] = {"deg_x": 0, "deg_y": 0}
mutated_pairs = st.sampled_from([_bundled("polyline_pair"), _cubic]).flatmap(_mutants)

junk = st.one_of(json_values.map(json.dumps), st.text(max_size=30))
payloads = {
    "curve": st.one_of(curves.map(json.dumps), junk),
    "form": st.one_of(
        st.fixed_dictionaries({"schema": schemas, "curve": curves, "matrix": matrices}).map(json.dumps), junk
    ),
}
payloads["isom-search"] = payloads["genus-verify"] = st.one_of(
    pairs.map(json.dumps), mutated_pairs.map(json.dumps), mutated_pairs.map(json.dumps), junk
)


# isom-search pairs with entries up to MAX_TEXT_DEGREE: they push the
# search's degree bound D far enough that the evaluation points come from
# F_{q^k} above 121 (the line over F_13, cubics over F_11 and F_13), or
# from no field within 121^2 at all (cubics over F_25 and F_27)
high_polys = st.lists(
    st.tuples(st.integers(1, 12), st.integers(0, 8) | st.integers(150, MAX_TEXT_DEGREE)), min_size=1, max_size=2
).map(lambda terms: "+".join(f"{c}*x^{e}" for c, e in terms))


def _degree_pair(kind, field, rank):
    entry = st.sampled_from([1, 2, -1, 3]) | high_polys
    if kind == "weierstrass":
        entry = entry | st.fixed_dictionaries({"A": high_polys, "B": high_polys})
    if rank == 1:
        gram = entry.map(lambda a: [[a]])
    else:
        gram = st.tuples(entry, st.just(0) | entry, entry).map(lambda t: [[t[0], t[1]], [t[1], t[2]]])
    return st.fixed_dictionaries(
        {
            "schema": st.just(1),
            "curve": st.just({"type": kind, "field": field, "a": 1, "b": 1}),
            "F": gram,
            "G": gram,
            "isom_bounds": st.fixed_dictionaries({"deg_x": st.integers(-1, 2), "deg_y": st.integers(-1, 2)}),
        }
    )


degree_pairs = st.tuples(
    st.sampled_from(["polyline", "weierstrass"]),
    st.sampled_from([{"p": 3, "k": 1}, {"p": 5, "k": 1}, {"p": 11, "k": 1}, {"p": 13, "k": 1}, {"p": 5, "k": 2}, {"p": 3, "k": 3}]),
    st.integers(1, 2),
).flatmap(lambda t: _degree_pair(*t))


@settings(FUZZ, max_examples=100)
@given(degree_pairs)
def test_isom_search_exit_codes_on_high_degree_entries(pair):
    out, err = io.StringIO(), io.StringIO()
    # a smaller budget than above: each pool entry now carries up to ~500
    # values, so the pools are kept to a few thousand entries
    with mock.patch.dict(os.environ, {"HASSE_FORMS_BUDGET": "3000"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["isom-search", f"--json={json.dumps(pair)}"])
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in json.loads(err.getvalue())


# JSON text nested up to 3 000 arrays or objects deep, beyond the decoder's
# recursion limit: alone, or in place of one leaf of a bundled pair file
_DEEP = "deep-nesting-marker"


def _nested(depth, kind):
    return "[" * depth + "]" * depth if kind == "array" else '{"a": ' * depth + "0" + "}" * depth


def _leaf_slots(pair):
    return st.sampled_from(list(_leaf_paths(pair))).map(lambda path: json.dumps(_replaced(pair, [(path, _DEEP)])))


deep_payloads = st.tuples(
    st.just(json.dumps(_DEEP)) | st.sampled_from([_bundled("polyline_pair"), _cubic]).flatmap(_leaf_slots),
    st.integers(1, 3000),
    st.sampled_from(["array", "object"]),
).map(lambda t: t[0].replace(json.dumps(_DEEP), _nested(t[1], t[2])))


@settings(FUZZ, max_examples=60)
@given(st.sampled_from(sorted(payloads)), deep_payloads)
def test_cli_exit_codes_on_deeply_nested_json(command, payload):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"HASSE_FORMS_BUDGET": "20000"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, f"--json={payload}"])
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in json.loads(err.getvalue())


@FUZZ
@given(st.sampled_from(FIELDS), poly_texts)
def test_poly_text_parses_or_raises_value_error(field, text):
    try:
        f = Poly.from_text(field, text)
    except ValueError:
        return
    assert f == Poly.from_text(field, text)


@settings(FUZZ, max_examples=300)
@given(st.sampled_from(sorted(payloads)).flatmap(lambda c: st.tuples(st.just(c), payloads[c])))
def test_cli_exit_codes_on_fuzzed_json(job):
    command, payload = job
    out, err = io.StringIO(), io.StringIO()
    # a small search budget keeps every accepted search quick
    with mock.patch.dict(os.environ, {"HASSE_FORMS_BUDGET": "20000"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([command, f"--json={payload}"])
    assert code in (0, 1, 2)
    if code == 2:
        assert "error" in json.loads(err.getvalue())
