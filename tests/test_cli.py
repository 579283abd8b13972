import ast
import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hasseforms.cli import _COMMANDS as COMMANDS
from hasseforms.cli import _FLAGS as FLAGS
from hasseforms.cli import _read_args, build_parser, run
from oracles import benchmark_jobs
from test_traced_names import _traced_names


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def invoke_json(capsys, *argv):
    code, out, err = invoke(capsys, *argv)
    return code, json.loads(out) if out else None, err


# -- curve ---------------------------------------------------------------


def test_curve_report_singular_cubic(capsys):
    code, data, _ = invoke_json(capsys, "curve", "--q", "5", "--a", "2", "--b", "3")
    assert code == 0
    assert data["total"] == 7
    assert data["smooth"] is False
    assert data["singular_points"] == [{"x": [4], "y": [0], "degree": 1}]
    assert "pic_order" not in data
    assert "warning" in data


def test_curve_report_smooth(capsys):
    code, data, _ = invoke_json(capsys, "curve", "--q", "5", "--a", "1", "--b", "1")
    assert code == 0
    assert data["pic_order"] == 9 and data["pic_parity"] == "odd"
    assert data["two_torsion"] is False


def test_curve_polyline(capsys):
    code, data, _ = invoke_json(capsys, "curve", "--q", "5", "--polyline")
    assert code == 0
    assert data["total"] == 6 and data["pic_order"] == 1


def test_curve_output_deterministic(capsys):
    _, out1, _ = invoke(capsys, "curve", "--q", "5", "--a", "2", "--b", "3")
    _, out2, _ = invoke(capsys, "curve", "--q", "5", "--a", "2", "--b", "3")
    assert out1 == out2


def test_text_format_mirrors_json(capsys):
    _, data, _ = invoke_json(capsys, "curve", "--q", "5", "--a", "1", "--b", "1")
    _, text, _ = invoke(capsys, "curve", "--q", "5", "--a", "1", "--b", "1", "--format", "text")
    for key, value in data.items():
        if isinstance(value, (int, bool, str)):
            assert f"{key}: {json.dumps(value)}" in text


# -- hasse ----------------------------------------------------------------


def test_hasse_polyline_rank4(capsys):
    code, data, _ = invoke_json(capsys, "hasse", "--polyline", "--q", "5", "--rank", "4")
    assert code == 0
    assert data["verdict"] == "Holds"
    assert data["reason"]["ufd"] is True


def test_hasse_rank2_fails_on_nontrivial_picard(capsys):
    code, data, _ = invoke_json(capsys, "hasse", "--q", "5", "--a", "1", "--b", "1", "--rank", "2")
    assert code == 0
    assert data["verdict"] == "Fails"
    assert data["reason"]["pic_order"] == 9


def test_hasse_singular_curve_is_input_error(capsys):
    code, out, err = invoke(capsys, "hasse", "--q", "5", "--a", "2", "--b", "3", "--rank", "3")
    assert code == 2
    assert json.loads(err) == {
        "error": "the Picard/point-group isomorphism requires a smooth curve; "
        "discriminant is zero (singular at ((F5(4), F5(0)),))"
    }


# -- form -----------------------------------------------------------------


def form_payload(entry):
    return json.dumps(
        {
            "schema": 1,
            "curve": {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": [2], "b": [3]},
            "matrix": [[0, 2], [2, entry]],
        }
    )


def test_form_unimodular(capsys):
    code, data, _ = invoke_json(capsys, "form", "--json", form_payload("3*x^3+6*x+9"))
    assert code == 0
    assert data["unimodular"] is True
    assert data["symmetric"] is True and data["integral"] is True
    assert data["det"] == {"num": {"A": "1", "B": "0"}, "den": "1"}


def test_form_non_unimodular(capsys):
    payload = json.dumps(
        {
            "schema": 1,
            "curve": {"type": "polyline", "field": {"p": 5, "k": 1}},
            "matrix": [["x^4-2*x^2+1", 0], [0, 1]],
        }
    )
    code, data, _ = invoke_json(capsys, "form", "--json", payload)
    assert code == 0
    assert data["unimodular"] is False


def test_form_determinant_y_is_not_a_unit(capsys):
    payload = json.dumps(
        {
            "schema": 1,
            "curve": {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": [2], "b": [3]},
            "matrix": [[{"A": "0", "B": "1"}]],
        }
    )
    code, data, _ = invoke_json(capsys, "form", "--json", payload)
    assert code == 0
    assert data["symmetric"] is True and data["integral"] is True
    assert data["det"] == {"num": {"A": "0", "B": "1"}, "den": "1"}
    assert data["unimodular"] is False  # N(y) = -(x^3+2x+3) is not constant either


def test_form_missing_input(capsys):
    code, _, err = invoke(capsys, "form")
    assert code == 2 and "error" in err


# -- genus-verify and isom-search on the bundled files ----------------------


def fixture_path(name):
    from importlib import resources

    return str(resources.files("hasseforms") / "fixtures" / f"{name}.json")


def test_genus_verify_certified(capsys):
    code, data, _ = invoke_json(capsys, "genus-verify", "--input", fixture_path("polyline_pair"))
    assert code == 0
    assert data["verdict"] == "Certified"
    assert data["identity_ok"] == [True, True]
    assert len(data["covered"]) == 55


def test_genus_verify_gap(capsys):
    code, data, _ = invoke_json(capsys, "genus-verify", "--input", fixture_path("singular_cubic_pair"))
    assert code == 1
    assert data["verdict"] == "GapFound"
    assert data["uncovered"] == [{"x": [4], "y": [0], "degree": 1}]


def test_genus_verify_gap_lists_each_closed_point_once(capsys):
    # 5 rational points and 9 closed points of degree 2 are covered; the
    # conjugate of a degree-2 point is not listed again
    code, data, _ = invoke_json(capsys, "genus-verify", "--input", fixture_path("singular_cubic_pair"))
    assert code == 1
    assert [p["degree"] for p in data["covered"]] == [1] * 5 + [2] * 9
    assert len({(tuple(p["x"]), tuple(p["y"])) for p in data["covered"]}) == 14
    assert data["uncovered"] == [{"x": [4], "y": [0], "degree": 1}]


def test_genus_verify_inspection_degree_flag(capsys):
    code, data, _ = invoke_json(
        capsys, "genus-verify", "--input", fixture_path("polyline_pair"), "--inspection-degree", "1"
    )
    assert code == 0
    assert data["degree"] == 1
    assert len(data["covered"]) == 5


def test_genus_verify_inspection_degree_zero_rejected(capsys):
    code, out, err = invoke(
        capsys, "genus-verify", "--input", fixture_path("polyline_pair"), "--inspection-degree", "0"
    )
    assert code == 2 and out == ""
    assert "inspection degree must be >= 1" in err


def test_isom_search_negative(capsys):
    code, data, _ = invoke_json(capsys, "isom-search", "--input", fixture_path("polyline_pair"))
    assert code == 1
    assert data["found"] is False
    assert data["witness"] is None
    assert "evidence" in data["note"]


def test_isom_search_positive_with_flag(capsys):
    payload = json.dumps(
        {
            "schema": 1,
            "curve": {"type": "polyline", "field": {"p": 5, "k": 1}},
            "F": [[1, 0], [0, 1]],
            "G": [[1, 0], [0, 1]],
        }
    )
    code, data, _ = invoke_json(capsys, "isom-search", "--json", payload, "--degree-bound", "1")
    assert code == 0
    assert data["found"] is True
    assert data["witness"] == [
        [{"num": {"A": "1", "B": "0"}, "den": "1"}, {"num": {"A": "0", "B": "0"}, "den": "1"}],
        [{"num": {"A": "0", "B": "0"}, "den": "1"}, {"num": {"A": "1", "B": "0"}, "den": "1"}],
    ]


def test_isom_search_budget_env(capsys, monkeypatch):
    monkeypatch.setenv("HASSE_FORMS_BUDGET", "3")
    code, _, err = invoke(capsys, "isom-search", "--input", fixture_path("polyline_pair"))
    assert code == 2
    assert "exceeds budget 3" in err
    # the budget bounds what the search charges, not the product of its
    # per-column candidate counts (270^3 here)
    monkeypatch.setenv("HASSE_FORMS_BUDGET", "1000000")
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    payload = {"schema": 1, "curve": {"type": "polyline", "field": {"p": 5, "k": 1}}, "F": identity, "G": identity}
    code, data, _ = invoke_json(capsys, "isom-search", "--json", json.dumps(payload), "--degree-bound", "1")
    assert code == 0
    assert data["found"] is True and len(data["witness"]) == 3


def test_isom_search_budget_env_must_be_positive_integer(capsys, monkeypatch):
    for raw in ("abc", "1e6", "0", "-5", "2.5"):
        monkeypatch.setenv("HASSE_FORMS_BUDGET", raw)
        code, out, err = invoke(capsys, "isom-search", "--input", fixture_path("polyline_pair"))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == f"HASSE_FORMS_BUDGET must be a positive integer, got {raw!r}"


# -- verify-paper ---------------------------------------------------------------


def test_verify_paper_all_rows_pass(capsys):
    code, data, _ = invoke_json(capsys, "verify-paper")
    assert code == 0
    assert data["pass"] is True
    assert len(data["rows"]) == 11
    assert all(r["pass"] for r in data["rows"])


def test_verify_paper_text_table(capsys):
    code, out, _ = invoke(capsys, "verify-paper", "--format", "text")
    assert code == 0
    assert out.count("PASS") == 11
    assert "all checks passed" in out


# -- input errors -----------------------------------------------------------------


def test_bad_q_rejected(capsys):
    code, _, err = invoke(capsys, "curve", "--q", "6", "--a", "1", "--b", "1")
    assert code == 2 and "error" in err
    code, _, err = invoke(capsys, "curve", "--q", "5", "--a", "1")  # no --b
    assert code == 2 and "weierstrass curves need --a and --b" in json.loads(err)["error"]


def test_q_not_a_prime_power_named(capsys):
    for q in ("12", "100"):
        code, _, err = invoke(capsys, "curve", "--q", q, "--polyline")
        assert code == 2 and f"{q} is not a prime power" in err
    code, data, _ = invoke_json(capsys, "curve", "--q", "9", "--polyline")
    assert code == 0 and data["affine"] == 9  # the line over F_9


def test_bad_json_rejected(capsys):
    code, _, err = invoke(capsys, "form", "--json", "{not json")
    assert code == 2


def test_oversized_field_rejected(capsys):
    payload = '{"type": "polyline", "field": {"p": 3, "k": 1000000}}'
    code, _, err = invoke(capsys, "curve", "--json", payload)
    assert code == 2 and "exceeds" in err


def run_cli(*argv):
    """The CLI in a fresh process; a hang fails the test at the timeout."""
    return subprocess.run(
        [sys.executable, "-m", "hasseforms.cli", *argv], capture_output=True, text=True, timeout=30
    )


def test_huge_characteristic_rejected_before_primality_test():
    payload = json.dumps({"type": "polyline", "field": {"p": 2**61 - 1, "k": 1}})
    proc = run_cli("curve", "--json", payload)
    assert proc.returncode == 2 and "exceeds" in proc.stderr


def test_huge_q_rejected_before_prime_power_scan():
    # the scan stops at p = 10 for 10^12, and runs to p = q for the prime 10^9 + 7
    for q in ("1000000000000", "1000000007"):
        proc = run_cli("curve", "--q", q, "--polyline")
        assert proc.returncode == 2 and "exceeds" in proc.stderr


def test_huge_inspection_degree_rejected():
    for degree in ("9", str(10**9)):
        proc = run_cli("genus-verify", "--input", fixture_path("polyline_pair"), "--inspection-degree", degree)
        assert proc.returncode == 2 and "inspection degree" in proc.stderr


def test_huge_exponent_in_pair_rejected(tmp_path):
    # the parser used to allocate max exponent + 1 coefficients first
    with open(fixture_path("polyline_pair")) as handle:
        pair = json.load(handle)
    pair["G"][0][0] = "x^1000000000"
    path = tmp_path / "huge_exponent.json"
    path.write_text(json.dumps(pair))
    for command in ("genus-verify", "isom-search"):
        proc = run_cli(command, "--input", str(path))
        assert proc.returncode == 2 and "exceeds" in proc.stderr


def test_genus_verify_f121_line_finishes(tmp_path):
    # 7381 primes of degree <= 2; trial-division enumeration alone took over a minute
    with open(fixture_path("polyline_pair")) as handle:
        pair = json.load(handle)
    pair["curve"]["field"] = {"p": 11, "k": 2}
    path = tmp_path / "pair121.json"
    path.write_text(json.dumps(pair))
    proc = run_cli("genus-verify", "--input", str(path), "--inspection-degree", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["verdict"] == "Certified" and len(report["covered"]) == 121 + 7260


def test_malformed_shapes_exit_2(capsys):
    # each of these escaped cli.run as AttributeError, IndexError or ZeroDivisionError
    line = {"type": "polyline", "field": {"p": 3, "k": 1}}
    cases = [
        ("isom-search", None, "input must be a JSON object"),
        ("form", [1], "input must be a JSON object"),
        ("isom-search", {"schema": 1, "curve": line, "F": [], "G": [], "isom_bounds": {"deg_x": 0}}, "at least one row"),
        ("isom-search", {"schema": 1, "curve": line, "F": [], "G": []}, "no degree bound"),  # refused first
        ("form", {"schema": 1, "curve": line, "matrix": []}, "at least one row"),
        ("form", {"schema": 1, "curve": line, "matrix": [[{"A": 7}]]}, "must be a string"),
        ("form", {"schema": 1, "curve": line, "matrix": [[[1]]]}, "ring element must be"),
        ("form", {"schema": 1, "curve": line, "matrix": [[{"num": "1", "den": "0"}]]}, "zero denominator"),
        ("form", {"schema": 1, "curve": line, "matrix": [[{"num": "1", "den": {"A": "3"}}]]}, "zero denominator"),
        ("genus-verify", {"schema": 1, "curve": line, "F": [[1]], "G": [[1]]}, "pair file carries no witnesses"),
        ("isom-search", {"schema": 1, "curve": line, "F": [[1]], "G": [[1]]}, "no degree bound"),
        ("curve", {**line, "a": [1]}, "the affine line takes no coefficients"),  # once dropped on load
    ]
    for text, message in (("", "empty"), ("1.5", "bad term"), ("--1", "cannot parse"), ("x^257", "exceeds")):
        cases.append(("genus-verify", {"schema": 1, "curve": line, "F": [[text]], "G": [[1]], "witnesses": []}, message))
    for command, payload, message in cases:
        code, _, err = invoke(capsys, command, "--json", json.dumps(payload))
        assert code == 2 and message in json.loads(err)["error"]
    for flags in (["--a", "1", "--b", "1"], ["--b", "0"]):  # once dropped by the flag reader
        code, _, err = invoke(capsys, "curve", "--q", "5", "--polyline", *flags)
        assert code == 2 and json.loads(err)["error"] == "the affine line takes no coefficients"
    # a y-degree bound below -1 was searched with, and echoed, exit 1
    with open(fixture_path("singular_cubic_pair")) as handle:
        cubic = json.load(handle)
    for payload, flags in (
        (cubic, ["--degree-bound", "1", "--degree-bound-y", "-5"]),
        (cubic, ["--degree-bound=1", "--degree-bound-y=-1000000"]),
        (dict(cubic, isom_bounds={"deg_x": 1, "deg_y": -5}), []),
    ):
        code, out, err = invoke(capsys, "isom-search", "--json", json.dumps(payload), *flags)
        assert (code, out, json.loads(err)["error"]) == (2, "", "degree bound deg_y must be >= -1")


@pytest.mark.parametrize("route", ["--json", "--input"])
def test_deeply_nested_json_exits_2(capsys, tmp_path, route):
    # the decoder's RecursionError once escaped run: a traceback and exit 1
    text = "[" * 2000 + "]" * 2000  # beyond the decoder's recursion limit
    path = tmp_path / "deep.json"
    path.write_text(text)
    for command in ("isom-search", "genus-verify", "form", "curve"):
        code, out, err = invoke(capsys, command, route, text if route == "--json" else str(path))
        assert (code, out) == (2, "") and json.loads(err)["error"] == "input JSON is nested too deeply"


def test_missing_bound_or_witnesses_is_refused_before_any_determinant(capsys, monkeypatch):
    # a dense rank-7 pair over F_5 with degree-1 entries: its two
    # determinants took 0.26 s before either refusal
    import hasseforms.forms

    taken = []
    det = hasseforms.forms.det
    monkeypatch.setattr(hasseforms.forms, "det", lambda rows: taken.append(len(rows)) or det(rows))
    rng = random.Random(7)
    cells = {(i, j): f"{rng.randint(1, 4)}*x+{rng.randint(0, 4)}" for i in range(7) for j in range(i + 1)}
    gram = [[cells[max(i, j), min(i, j)] for j in range(7)] for i in range(7)]  # nondegenerate
    pair = {"schema": 1, "curve": {"type": "polyline", "field": {"p": 5, "k": 1}}, "F": gram, "G": gram}
    for command, extra, message in [
        ("isom-search", {}, "no degree bound: pass --degree-bound or put isom_bounds in the file"),
        ("isom-search", {"isom_bounds": {"deg_y": 0}}, "no degree bound: pass --degree-bound or put isom_bounds in the file"),
        ("genus-verify", {}, "pair file carries no witnesses"),
    ]:
        code, out, err = invoke(capsys, command, "--json", json.dumps({**pair, **extra}))
        assert (code, out, json.loads(err)["error"], taken) == (2, "", message, [])
    small = dict(pair, F=[[1]], G=[[1]])
    invoke(capsys, "isom-search", "--json", json.dumps(small), "--degree-bound", "0")
    assert taken == [1, 1]  # the binding counted is the one the forms are built with


def test_malformed_pair_shape_is_refused_before_any_determinant(capsys, monkeypatch):
    # F's determinant, 0.46 s for a dense rank-8 F over F_5, once came
    # before G was read
    import hasseforms.forms

    taken = []
    det = hasseforms.forms.det
    monkeypatch.setattr(hasseforms.forms, "det", lambda rows: taken.append(len(rows)) or det(rows))
    rng = random.Random(8)
    cells = {(i, j): f"{rng.randint(1, 4)}*x+{rng.randint(0, 4)}" for i in range(8) for j in range(i + 1)}
    gram = [[cells[max(i, j), min(i, j)] for j in range(8)] for i in range(8)]
    pair = {"schema": 1, "curve": {"type": "polyline", "field": {"p": 5, "k": 1}}, "F": gram}
    for g, message in [
        ([], "matrix must have at least one row"),
        ([[1, 0], [0]], "matrix must be square"),
        ([row[:7] for row in gram], "matrix must be square"),
        ([[1]], "forms have different ranks"),
        ([[1, 0], [0, 1]], "forms have different ranks"),
    ]:
        for command, flags in (("isom-search", ["--degree-bound", "0"]), ("genus-verify", [])):
            payload = {**pair, "G": g, "witnesses": []}
            code, out, err = invoke(capsys, command, "--json", json.dumps(payload), *flags)
            assert (code, out, json.loads(err)["error"], taken) == (2, "", message, [])
    # the search's rank limit: a dense rank-8 pair took over a second to be
    # refused, after both determinants
    for n in (4, 8):
        rows = [row[:n] for row in gram[:n]]
        for extra, flags in (({}, ["--degree-bound", "0"]), ({"isom_bounds": {"deg_x": 0}}, [])):
            payload = {**pair, "F": rows, "G": rows, **extra}
            code, out, err = invoke(capsys, "isom-search", "--json", json.dumps(payload), *flags)
            assert (code, out, json.loads(err)["error"], taken) == (2, "", "search supports rank <= 3", [])


def test_missing_key_names_the_object(capsys):
    line = {"type": "polyline", "field": {"p": 3, "k": 1}}
    cases = [
        ({"schema": 1, "curve": {"type": "polyline"}, "F": [[1]], "G": [[1]]}, "missing key 'field' in curve"),
        ({"schema": 1, "curve": line, "G": [[1]]}, "missing key 'F' in pair"),
        ({"schema": 1, "curve": {"field": {"p": 3}}, "F": [[1]], "G": [[1]]}, "missing key 'type' in curve"),
        ({"schema": 1, "curve": {"type": "polyline", "field": {"k": 1}}, "F": [[1]], "G": [[1]]}, "missing key 'p' in field"),
    ]
    for payload, message in cases:
        code, _, err = invoke(capsys, "isom-search", "--json", json.dumps(payload), "--degree-bound", "0")
        assert code == 2 and json.loads(err)["error"] == message
    code, _, err = invoke(capsys, "form", "--json", json.dumps({"schema": 1, "curve": line}))
    assert code == 2 and json.loads(err)["error"] == "missing key 'matrix' in input"


def test_pair_curve_and_witnesses_must_have_json_shapes(capsys):
    # a curve that is not a JSON object (a list of pairs included) and witnesses
    # that are not a JSON list exit 2 with a message naming which
    line = {"type": "polyline", "field": {"p": 5}}
    cases = [
        ({"curve": [["field", {"p": 5}], ["type", "polyline"]]}, "curve must be a JSON object"),
        ({"curve": 7}, "curve must be a JSON object"),
        ({"curve": "abc"}, "curve must be a JSON object"),
        ({"curve": line, "witnesses": 5}, "witnesses must be a JSON list"),
    ]
    for fields, message in cases:
        payload = {"schema": 1, "F": [[1]], "G": [[1]], **fields}
        code, out, err = invoke(capsys, "isom-search", "--degree-bound", "0", "--json", json.dumps(payload))
        assert code == 2 and out == "" and json.loads(err)["error"] == message


def test_field_entries_must_be_integers(capsys):
    for field, message in [
        ({"p": None}, "field p must be an integer, got null"),
        ({"p": "5"}, 'field p must be an integer, got "5"'),
        ({"p": 5, "k": 1.0}, "field k must be an integer, got 1.0"),
        ({"p": 5, "k": True}, "field k must be an integer, got true"),
    ]:
        curve = {"type": "polyline", "field": field}
        code, _, err = invoke(capsys, "curve", "--json", json.dumps(curve))
        assert code == 2 and json.loads(err)["error"] == message


def test_pair_integers_must_be_json_integers(capsys):
    # these used to go through int(): 2.9 ran degree 2, true degree 1, "2" degree 2
    with open(fixture_path("polyline_pair")) as handle:
        pair = json.load(handle)
    for key, value, message in [
        ("degree", 2.9, "degree must be an integer, got 2.9"),
        ("degree", True, "degree must be an integer, got true"),
        ("degree", "2", 'degree must be an integer, got "2"'),
        ("isom_bounds", {"deg_x": 1.9}, "isom_bounds deg_x must be an integer, got 1.9"),
        ("isom_bounds", {"deg_x": 1, "deg_y": False}, "isom_bounds deg_y must be an integer, got false"),
        ("isom_bounds", [1], "isom_bounds must be a JSON object"),
    ]:
        for command in ("genus-verify", "isom-search"):
            code, out, err = invoke(capsys, command, "--json", json.dumps(dict(pair, **{key: value})))
            assert (code, out) == (2, "") and json.loads(err)["error"] == message


def test_unknown_isom_bounds_key_rejected(capsys):
    # a misspelt "degy" used to be dropped: the search ran with deg_y = -1
    with open(fixture_path("singular_cubic_pair")) as handle:
        pair = json.load(handle)
    payload = json.dumps(dict(pair, isom_bounds={"deg_x": 1, "degy": 1}))
    for command in ("genus-verify", "isom-search"):
        code, out, err = invoke(capsys, command, "--json", payload)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "unknown key 'degy' in isom_bounds; allowed are deg_x and deg_y"


def test_matrix_must_be_a_list_of_rows(capsys):
    # 5 and [5] failed with "'int' object is not iterable", a dict walked its keys
    line = {"type": "polyline", "field": {"p": 3, "k": 1}}
    shape = "must be a list of rows, each a list of entries"
    with open(fixture_path("polyline_pair")) as handle:
        pair = json.load(handle)
    for bad in (5, [5], {"a": 1}):
        for key in ("F", "G"):
            payload = json.dumps({"schema": 1, "curve": line, "F": [[1]], "G": [[1]], key: bad})
            code, out, err = invoke(capsys, "isom-search", "--json", payload, "--degree-bound", "0")
            assert (code, out) == (2, "") and json.loads(err)["error"] == f"{key} {shape}"
        witnesses = [dict(pair["witnesses"][0], Q=bad)]
        code, out, err = invoke(capsys, "genus-verify", "--json", json.dumps(dict(pair, witnesses=witnesses)))
        assert (code, out) == (2, "") and json.loads(err)["error"] == f"witness Q {shape}"
        code, out, err = invoke(capsys, "form", "--json", json.dumps({"schema": 1, "curve": line, "matrix": bad}))
        assert (code, out) == (2, "") and json.loads(err)["error"] == f"matrix {shape}"


def test_element_coefficients_must_be_json_integers(capsys):
    # "2" was read digit by digit, true taken as 1 and 2.7 truncated to 2
    for a, message in [
        ("2", 'curve a must be an integer, got "2"'),
        (True, "curve a must be an integer, got true"),
        (2.7, "curve a must be an integer, got 2.7"),
        ({"c": 2}, 'curve a must be an integer, got {"c": 2}'),
        ([2.7], "curve a coefficient must be an integer, got 2.7"),
        ([True], "curve a coefficient must be an integer, got true"),
        (["2"], 'curve a coefficient must be an integer, got "2"'),
    ]:
        curve = {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": a, "b": [3]}
        code, out, err = invoke(capsys, "curve", "--json", json.dumps(curve))
        assert (code, out) == (2, "") and json.loads(err)["error"] == message
    reports = []
    for a in (2, [2]):
        curve = {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": a, "b": 3}
        code, out, _ = invoke(capsys, "curve", "--json", json.dumps(curve))
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    # a matrix entry true is not the constant 1
    line = {"type": "polyline", "field": {"p": 3, "k": 1}}
    code, _, err = invoke(capsys, "form", "--json", json.dumps({"schema": 1, "curve": line, "matrix": [[True]]}))
    assert code == 2 and "ring element must be" in json.loads(err)["error"]


def test_base_field_cap_stays_at_121(capsys):
    # extension fields go up to 121^2, but no input may name a base field above 121
    code, _, err = invoke(capsys, "curve", "--json", json.dumps({"type": "polyline", "field": {"p": 5, "k": 4}}))
    assert code == 2 and "exceeds desk-scale bound 121" in json.loads(err)["error"]
    code, _, err = invoke(capsys, "curve", "--q", "625", "--polyline")
    assert code == 2 and "exceeds desk-scale bound 121" in json.loads(err)["error"]
    code, _, err = invoke(capsys, "curve", "--json", json.dumps({"type": "polyline", "field": {"p": 127}}))
    assert code == 2 and "exceeds desk-scale bound 121" in json.loads(err)["error"]
    code, _, _ = invoke(capsys, "curve", "--json", json.dumps({"type": "polyline", "field": {"p": 11, "k": 2}}))
    assert code == 0


def test_bad_schema_rejected(capsys):
    code, _, err = invoke(capsys, "form", "--json", '{"schema": 99}')
    assert code == 2 and "schema" in err


def test_genus_verify_refuses_a_pole_off_the_locus(capsys):
    # on y^2 = x^3 + x + 1 over F_5, (y - 1)/x has its pole at (0, 4),
    # where s = y - 1 is 3: the witness is malformed, exit 2
    pair = {
        "schema": 1,
        "curve": {"type": "weierstrass", "field": {"p": 5, "k": 1}, "a": [1], "b": [1]},
        "F": [[1]],
        "G": [[1]],
        "witnesses": [{"Q": [[{"num": {"A": "4", "B": "1"}, "den": "x"}]], "s": {"A": "4", "B": "1"}}],
        "degree": 1,
    }
    code, out, err = invoke(capsys, "genus-verify", "--json", json.dumps(pair))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "entry (1, 1) has a pole off the declared locus"}
    pair["witnesses"][0]["s"] = {"A": "1", "B": "1"}  # s = y + 1 vanishes at the pole
    code, data, _ = invoke_json(capsys, "genus-verify", "--json", json.dumps(pair))
    assert code == 1
    assert {"x": [0], "y": [1], "degree": 1} in data["covered"]
    assert {"x": [0], "y": [4], "degree": 1} in data["uncovered"]


def test_reused_parser_answers_as_fresh_processes(capsys, monkeypatch):
    # run() keeps no parser or other state between lines; repeated
    # in-process runs, including an exit-2 input error and an argparse
    # usage error, must print and exit exactly as a fresh process does
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    cases = [
        ("curve", "--q", "5", "--a", "1", "--b", "1"),
        ("hasse", "--q", "7", "--polyline", "--rank", "2", "--format", "text"),
        ("curve", "--q", "6", "--polyline"),  # not a prime power: exit 2
        ("hasse", "--q", "5", "--polyline"),  # --rank missing: usage error
    ]
    fresh = []
    for argv in cases:
        proc = run_cli(*argv)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [0, 0, 2, 2]
    for _ in range(2):
        for argv, want in zip(cases, fresh):
            try:
                code = run(list(argv))
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == want


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hasseforms.cli", "hasse", "--polyline", "--q", "7", "--rank", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "Holds"


def test_cli_import_loads_no_code_introspection_modules():
    # dataclasses drags in inspect, ast, dis and tokenize, and every CLI
    # job pays for them at start-up; modules the bare interpreter already
    # holds before the import are not counted
    probe = (
        "import json, sys; before = set(sys.modules); import hasseforms.cli; "
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "hasseforms.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "ast", "dis", "tokenize"})


def _modules_after(code):
    """The modules a fresh interpreter holds after ``code`` that it did not
    hold before it; the code's own stdout and stderr are discarded, and a
    SystemExit it raises (argparse's, on help or a usage error) ends it."""
    probe = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    try:\n        {code}\n    except SystemExit:\n        pass\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def _package_modules_after(code):
    """The hasseforms modules a fresh interpreter holds after ``code``."""
    return {module for module in _modules_after(code) if module.split(".")[0] == "hasseforms"}


def test_package_import_loads_no_submodule():
    assert _package_modules_after("import hasseforms") == {"hasseforms"}


# modules loaded on first use, by the commands that run their code
LAZY_MODULES = {"genus", "local", "paper", "picard", "search"}


def test_cli_import_loads_every_traced_module_but_not_the_search():
    # the benchmark's tracer looks each traced module up in sys.modules
    # right after importing the CLI; no module loaded on first use is there
    loaded = _package_modules_after("import hasseforms.cli")
    assert {f"hasseforms.{module}" for module, _ in _traced_names()} <= loaded
    assert loaded.isdisjoint(f"hasseforms.{module}" for module in LAZY_MODULES)


# a pair file without witnesses: loading it builds no GenusWitness
BARE_PAIR = json.dumps({"schema": 1, "curve": {"type": "polyline", "field": {"p": 3, "k": 1}}, "F": [[1]], "G": [[1]]})

COMMAND_MODULES = [
    (["curve", "--q", "5", "--polyline"], {"picard"}),
    (["hasse", "--q", "5", "--a", "1", "--b", "1", "--rank", "2"], {"picard"}),
    (["form", "--json", form_payload("1")], set()),
    (["genus-verify", "--input", fixture_path("polyline_pair")], {"genus"}),
    (["isom-search", "--json", BARE_PAIR, "--degree-bound", "0"], {"search"}),
    (["isom-search", "--input", fixture_path("polyline_pair")], {"genus", "search"}),  # carries witnesses
    (["verify-paper"], {"genus", "paper", "picard", "search"}),
]


# what argparse loads: a well-formed line is read off the flag table
# without it, and only help, usage and errors build the argparse parser
PARSER_MODULES = {"argparse", "gettext", "locale"}


def test_each_command_loads_only_the_modules_it_runs():
    for argv, lazy in COMMAND_MODULES:
        loaded = _modules_after(f"from hasseforms.cli import run; run({argv!r})")
        assert {m.split(".")[-1] for m in loaded if m.startswith("hasseforms.")} & LAZY_MODULES == lazy, argv
        assert loaded.isdisjoint(PARSER_MODULES), argv
    for argv in (["curve", "--help"], ["hasse", "--q", "5", "--polyline"]):  # help; --rank missing
        assert "argparse" in _modules_after(f"from hasseforms.cli import run; run({argv!r})"), argv


def _loaded_size(argv):
    """(lines, nodes) of the hasseforms modules a process holds after
    running ``argv``, what a CLI process compiles with no bytecode cache:
    their ``wc -l`` lines, and the nodes ``ast.walk`` meets in their
    syntax trees, which compile time follows more closely than lines."""
    src = Path(__file__).resolve().parents[1] / "src" / "hasseforms"
    names = _package_modules_after(f"from hasseforms.cli import run; run({argv!r})")
    files = [src / ("__init__.py" if name == "hasseforms" else f"{name.split('.')[-1]}.py") for name in names]
    sources = [path.read_bytes() for path in files]
    nodes = sum(sum(1 for _ in ast.walk(ast.parse(text))) for text in sources)
    return sum(text.count(b"\n") for text in sources), nodes


def test_start_up_compiles_at_most_a_ceiling_of_source_lines():
    # with every module loaded up front, genus-verify compiled 3 468 lines
    # and isom-search 3 866; a command compiles only what it runs, and
    # these ceilings on lines and on syntax-tree nodes, the counts measured
    # when they were last set, catch regrowth; curve and form load little
    # beyond the modules every command loads, so growth there shows in
    # their rows too
    for argv, lines, nodes in [
        (["genus-verify", "--input", fixture_path("polyline_pair")], 2883, 17517),
        (["isom-search", "--json", BARE_PAIR, "--degree-bound", "0"], 3020, 18859),
        (["curve", "--q", "5", "--polyline"], 2799, 16726),
        (["form", "--json", form_payload("1")], 2624, 16006),
    ]:
        size = _loaded_size(argv)
        assert size[0] <= lines and size[1] <= nodes, (argv[0], size)


PARSER_CASES = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    [],  # no command
    ["bogus"],  # an unknown command
    ["genus-verify", "--bogus", "1"],  # unrecognised arguments
    ["genus-verify", "--inspection-degree", "two"],  # an invalid int value
]


# (exit code, stdout, stderr) of each line, at COLUMNS=80, byte for byte
# as argparse printed them before the flag table's reader existed
PARSER_OUTPUTS = {
    "--help": (0, (
        "usage: hasseforms [-h]\n"
        "                  {curve,hasse,form,genus-verify,isom-search,verify-paper} ...\n"
        "\n"
        "Command-line surface. Subcommands: curve point-count / smoothness report for a\n"
        "curve hasse local-global verdict for a given rank form flags and determinant\n"
        "of a matrix over a coordinate ring genus-verify check a genus-witness pair\n"
        "file, report coverage isom-search bounded search for an integral unit-\n"
        "determinant isometry verify-paper re-run every bundled worked example, print a\n"
        "pass/fail table Exit codes: 0 verdict produced (Certified / witness found /\n"
        "all table rows pass), 1 verification failure (GapFound / none-within-bounds /\n"
        "a table row failed), 2 malformed input. JSON output is byte-identical across\n"
        "runs on identical input; text output mirrors the JSON field for field. The\n"
        "environment variable HASSE_FORMS_BUDGET overrides the search evaluation cap.\n"
        "\n"
        "positional arguments:\n"
        "  {curve,hasse,form,genus-verify,isom-search,verify-paper}\n"
        "    curve               point count and smoothness report\n"
        "    hasse               local-global verdict for a rank\n"
        "    form                inspect a matrix over a coordinate ring\n"
        "    genus-verify        verify a genus-witness pair file\n"
        "    isom-search         bounded integral isometry search\n"
        "    verify-paper        re-run the bundled worked examples\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    ), ""),
    "curve --help": (0, (
        "usage: hasseforms curve [-h] [--q Q] [--a A] [--b B] [--polyline]\n"
        "                        [--input INPUT] [--json JSON] [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --q Q                 field size (prime power)\n"
        "  --a A                 cubic coefficient a (int or comma-separated\n"
        "                        coefficients)\n"
        "  --b B                 cubic coefficient b\n"
        "  --polyline            use the affine line F_q[x]\n"
        "  --input INPUT         path to a JSON input file\n"
        "  --json JSON           inline JSON input\n"
        "  --format {json,text}\n"
    ), ""),
    "hasse --help": (0, (
        "usage: hasseforms hasse [-h] [--q Q] [--a A] [--b B] [--polyline]\n"
        "                        [--input INPUT] [--json JSON] --rank RANK\n"
        "                        [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --q Q                 field size (prime power)\n"
        "  --a A                 cubic coefficient a (int or comma-separated\n"
        "                        coefficients)\n"
        "  --b B                 cubic coefficient b\n"
        "  --polyline            use the affine line F_q[x]\n"
        "  --input INPUT         path to a JSON input file\n"
        "  --json JSON           inline JSON input\n"
        "  --rank RANK\n"
        "  --format {json,text}\n"
    ), ""),
    "form --help": (0, (
        "usage: hasseforms form [-h] [--input INPUT] [--json JSON]\n"
        "                       [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --input INPUT         path to a JSON input file\n"
        "  --json JSON           inline JSON input\n"
        "  --format {json,text}\n"
    ), ""),
    "genus-verify --help": (0, (
        "usage: hasseforms genus-verify [-h] [--input INPUT] [--json JSON]\n"
        "                               [--inspection-degree INSPECTION_DEGREE]\n"
        "                               [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --input INPUT         path to a JSON input file\n"
        "  --json JSON           inline JSON input\n"
        "  --inspection-degree INSPECTION_DEGREE\n"
        "  --format {json,text}\n"
    ), ""),
    "isom-search --help": (0, (
        "usage: hasseforms isom-search [-h] [--input INPUT] [--json JSON]\n"
        "                              [--degree-bound DEGREE_BOUND]\n"
        "                              [--degree-bound-y DEGREE_BOUND_Y]\n"
        "                              [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --input INPUT         path to a JSON input file\n"
        "  --json JSON           inline JSON input\n"
        "  --degree-bound DEGREE_BOUND\n"
        "                        max x-degree of entries\n"
        "  --degree-bound-y DEGREE_BOUND_Y\n"
        "                        max x-degree of the y part\n"
        "  --format {json,text}\n"
    ), ""),
    "verify-paper --help": (0, (
        "usage: hasseforms verify-paper [-h] [--format {json,text}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
    ), ""),
    "no-command": (2, "", (
        "usage: hasseforms [-h]\n"
        "                  {curve,hasse,form,genus-verify,isom-search,verify-paper} ...\n"
        "hasseforms: error: the following arguments are required: command\n"
    )),
    "bogus": (2, "", (
        "usage: hasseforms [-h]\n"
        "                  {curve,hasse,form,genus-verify,isom-search,verify-paper} ...\n"
        "hasseforms: error: argument command: invalid choice: 'bogus' (choose from 'curve', 'hasse', 'form', 'genus-verify', 'isom-search', 'verify-paper')\n"
    )),
    "genus-verify --bogus 1": (2, "", (
        "usage: hasseforms [-h]\n"
        "                  {curve,hasse,form,genus-verify,isom-search,verify-paper} ...\n"
        "hasseforms: error: unrecognized arguments: --bogus 1\n"
    )),
    "genus-verify --inspection-degree two": (2, "", (
        "usage: hasseforms genus-verify [-h] [--input INPUT] [--json JSON]\n"
        "                               [--inspection-degree INSPECTION_DEGREE]\n"
        "                               [--format {json,text}]\n"
        "hasseforms genus-verify: error: argument --inspection-degree: invalid int value: 'two'\n"
    )),
}


@pytest.mark.parametrize("argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "no-command")
def test_one_command_parser_prints_what_the_full_parser_prints(argv, capsys, monkeypatch):
    # the flag table's reader declines these lines, and run() gives them to
    # the full parser, which prints the same help, usage and errors as the
    # parser of the line's command alone printed before the reader existed
    monkeypatch.setenv("COLUMNS", "80")

    def outcome(parse):
        with pytest.raises(SystemExit) as stop:
            parse(argv)
        captured = capsys.readouterr()
        return stop.value.code, captured.out, captured.err

    assert outcome(run) == outcome(build_parser().parse_args) == PARSER_OUTPUTS[" ".join(argv) or "no-command"]


VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(["json", "text", "xml", "", "two", "-", "--", "-x", "--q", " 5", "+5", "1_0", "٣", "a,b", "1,2"]),
    st.text(max_size=3),
)
# any word: commands, every command's flags, help, abbreviations,
# --flag=value and values
WORDS = st.one_of(
    st.sampled_from([*COMMANDS, "bogus", "-h", "--help", *FLAGS]),
    st.sampled_from(sorted({flag[:n] for flag in FLAGS for n in range(3, len(flag))})),
    st.builds("{}={}".format, st.sampled_from(sorted(FLAGS)), VALUES),
    VALUES,
)


def _valued(flag):
    """``flag`` with a value it takes: a switch alone, digits after an int
    flag, a choice after --format, any value after the others."""
    options = FLAGS[flag]
    if "action" in options:
        return st.just((flag,))
    if options.get("type") is int:
        return st.tuples(st.just(flag), st.integers(0, 12).map(str))
    return st.tuples(st.just(flag), st.sampled_from(options["choices"]) if "choices" in options else VALUES)


def _command_lines(command):
    """Lines of ``command`` made of its own flags, each with a value it
    takes, and at most one stray chunk among them: a flag with no value
    or any value, or any word."""
    own = st.sampled_from([*COMMANDS[command][1], "--format"])
    stray = st.lists(st.one_of(st.tuples(own, VALUES), st.tuples(own), st.tuples(WORDS)), max_size=1)

    def line(chunks, extra, at):
        chunks[at:at] = extra
        return [command, *(word for words in chunks for word in words)]

    return st.builds(line, st.lists(own.flatmap(_valued), max_size=5), stray, st.integers(0, 5))


LINES = st.one_of(st.sampled_from(list(COMMANDS)).flatmap(_command_lines), st.lists(WORDS, max_size=6))


def _parsed(parser, argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(argv=LINES)
def test_flag_table_reader_agrees_with_argparse(argv):
    # the reader declines a line, or reads it exactly as argparse does
    read = _read_args(argv)
    assert read is None or vars(read) == _parsed(build_parser(), argv), argv


def test_flag_table_reader_takes_every_well_formed_line():
    # the lines the tests and the benchmark run take the fast path
    jobs = [job for workload in ("search", "genus") for job in benchmark_jobs(workload, [1])[1]]
    lines = [argv for argv, _ in COMMAND_MODULES]
    lines += [[word.replace("{input}", "F") for word in job["argv"]] for job in jobs]
    lines += [["curve", "--q", "9", "--a", "1,2", "--b", "0,1", "--format", "text"]]
    assert {"isom-search --input F", "genus-verify --input F"} <= {" ".join(argv) for argv in lines}
    parser = build_parser()
    for argv in lines:
        read = _read_args(argv)
        assert read is not None and vars(read) == _parsed(parser, argv), argv


def test_console_entry_matches_run_byte_for_byte(capsys, monkeypatch):
    # main() freezes the start-up heap before it runs the command, and
    # must print exactly what run() prints
    monkeypatch.delenv("HASSE_FORMS_BUDGET", raising=False)
    cases = [
        (["verify-paper", "--format", "text"], 0),
        (["genus-verify", "--input", fixture_path("singular_cubic_pair")], 1),
        (["genus-verify", "--json", "{}"], 2),
    ]
    for argv, code in cases:
        proc = run_cli(*argv)
        assert run(argv) == proc.returncode == code, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (proc.stdout, proc.stderr), argv


def _pinned_cases():
    """(name, argv) for every pinned run: verify-paper, then genus-verify
    and isom-search on both bundled fixtures and on every generated genus
    job and set-up probe of benchmark seed 1 (searched at --degree-bound
    0), in json and text."""
    fixtures, jobs = benchmark_jobs("genus", [1])
    jobs = [job for job in jobs if job["argv"][0] == "genus-verify"]
    cases = []
    for fmt in ("json", "text"):
        cases.append((f"verify-paper {fmt}", ["verify-paper", "--format", fmt]))
        for name in sorted(fixtures):
            text = json.dumps(fixtures[name])
            for command in ("genus-verify", "isom-search"):
                cases.append((f"{command} {fmt} {name}", [command, "--json", text, "--format", fmt]))
        for job in jobs:
            text = json.dumps(job["input"], sort_keys=True)
            cases.append((f"genus-verify {fmt} {job['id']}", ["genus-verify", "--json", text, "--format", fmt]))
            cases.append((f"isom-search {fmt} {job['id']}",
                          ["isom-search", "--json", text, "--format", fmt, "--degree-bound", "0"]))
    return cases


# per command and format: (runs, exit codes seen, sha256 of the runs'
# (name, sha256 of exit code, stdout and stderr) lines, in case order)
PINNED_OUTPUTS = {
    "genus-verify json": (29, [0, 1], "d42908f1b19f5eef"),
    "genus-verify text": (29, [0, 1], "e6a39c0549b17c06"),
    "isom-search json": (29, [1], "48e1fa8f8e6c5ea3"),
    "isom-search text": (29, [1], "21c34bdfd6c10f03"),
    "verify-paper json": (1, [0], "c98d21708beee367"),
    "verify-paper text": (1, [0], "45f25fa0c0e7916b"),
}


def test_cli_outputs_pinned(capsys, monkeypatch):
    # stdout, stderr and exit code of each run, byte for byte: a digest
    # that moves means the CLI now prints something else for that input
    monkeypatch.delenv("HASSE_FORMS_BUDGET", raising=False)
    groups = {}
    for name, argv in _pinned_cases():
        code = run(argv)
        captured = capsys.readouterr()
        digest = hashlib.sha256(f"{code}\n{captured.out}\0{captured.err}".encode()).hexdigest()
        groups.setdefault(" ".join(name.split()[:2]), []).append((code, f"{name} {digest}\n"))
    got = {
        group: (len(runs), sorted({code for code, _ in runs}), hashlib.sha256("".join(line for _, line in runs).encode()).hexdigest()[:16])
        for group, runs in groups.items()
    }
    assert got == PINNED_OUTPUTS
