"""Tests of the benchmark's own generator, oracle and span arithmetic."""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

FIXTURE_DIR = HERE.parent.parent / "src" / "hasseforms" / "fixtures"


def _fixtures():
    return {n: json.loads((FIXTURE_DIR / f"{n}.json").read_text()) for n in gen.FIXTURES}


def _render(jobs):
    return json.dumps(jobs, sort_keys=True).encode()


def test_generator_is_deterministic_per_seed():
    for workload in ("search", "genus", "session"):
        first = gen.generate(workload, 7, _fixtures())
        again = gen.generate(workload, 7, _fixtures())
        other = gen.generate(workload, 8, _fixtures())
        assert _render(first) == _render(again)
        assert _render(first) != _render(other)
        if workload != "session":
            assert [gen.job_bytes(j) for j in first] == [gen.job_bytes(j) for j in again]


def _planted_search_job():
    p = 5
    f = [[([1], []), ([], [])], [([], []), ([2], [])]]
    q = [[([1], []), ([2, 1], [])], [([], []), ([1], [])]]
    g = oracle.Ring(p).congruence(q, f)
    job = gen._search_job("t", "line", p, None, f, g, 1, -1, found=True)
    witness = [[{"num": oracle.ring_elem_json(e), "den": "1"} for e in row] for row in q]
    return job, witness


def test_oracle_accepts_planted_witness_and_flags_tampering():
    job, witness = _planted_search_job()
    good = json.dumps({"found": True, "witness": witness})
    assert oracle.check_cli_job(job, 0, good) is None

    tampered = json.loads(good)
    tampered["witness"][0][1]["num"]["A"] = "x+3"
    assert oracle.check_cli_job(job, 0, json.dumps(tampered)) is not None

    non_unit = json.loads(good)
    non_unit["witness"][1][1]["num"]["A"] = "2"  # Q^t F Q changes and det = 2 stays constant
    assert oracle.check_cli_job(job, 0, json.dumps(non_unit)) is not None

    assert oracle.check_cli_job(job, 1, json.dumps({"found": False, "witness": None})) is not None


def test_oracle_flags_tampered_genus_verdict():
    import random

    rng = random.Random(0)
    job = gen._genus_line_job(rng, 5, 1, 2, gap=True, name="t")
    expect = job["expect"]
    r_poly = oracle.poly_text(expect["uncovered"][0])
    covered = ["c"] * expect["covered"]
    good = {"verdict": "GapFound", "identity_ok": [True, True], "covered": covered, "uncovered": [r_poly]}
    assert oracle.check_cli_job(job, 1, json.dumps(good)) is None
    assert oracle.check_cli_job(job, 0, json.dumps(dict(good, verdict="Certified", uncovered=[]))) is not None
    elsewhere = oracle.poly_text([(expect["uncovered"][0][0] + 1) % 5, 1])
    assert oracle.check_cli_job(job, 1, json.dumps(dict(good, uncovered=[elsewhere]))) is not None
    assert oracle.check_cli_job(job, 1, json.dumps(dict(good, covered=covered[1:]))) is not None


def test_line_place_count_matches_known_values():
    # the polyline fixture certifies 55 primes of degree <= 3 over F_5
    assert oracle.line_place_count(5, 3) == 55
    assert oracle.line_place_count(49, 2) == 49 + (49 * 49 - 49) // 2


def test_self_time_subtracts_direct_children():
    # id, parent, job, name, start, end
    spans = [
        [0, None, "j", "a", 0.0, 10.0],
        [1, 0, "j", "b", 1.0, 4.0],
        [2, 0, "j", "c", 5.0, 9.0],
        [3, 2, "j", "b", 6.0, 8.0],
        [4, None, "j", "a", 20.0, 21.0],
    ]
    got = tracing.self_times(spans)
    assert got == {"a": (10 - 3 - 4) + 1, "b": 3 + 2, "c": 4 - 2}


def test_oracle_counts_malformed_output_as_a_failure():
    import random

    job, _witness = _planted_search_job()
    assert "malformed" in oracle.check_cli_job(job, 0, json.dumps([1, 2]))
    job = gen._genus_line_job(random.Random(0), 5, 1, 2, gap=True, name="t")
    bad = {"verdict": "GapFound", "identity_ok": [True, True], "covered": [], "uncovered": ["inf"]}
    assert "malformed" in oracle.check_cli_job(job, 1, json.dumps(bad))


def test_cubic_gap_accepts_a_degree_two_point_listed_once_or_twice():
    job = {"check": "genus", "expect": {"kind": "cubic", "r": 2, "verdict": "GapFound", "uncovered_degrees": [[2], [2, 2]]}}

    def out(*degrees, x=2):
        uncovered = [{"x": [x], "degree": d} for d in degrees]
        return json.dumps({"verdict": "GapFound", "identity_ok": [True, True], "uncovered": uncovered})

    assert oracle.check_cli_job(job, 1, out(2)) is None
    assert oracle.check_cli_job(job, 1, out(2, 2)) is None
    assert oracle.check_cli_job(job, 1, out(1)) is not None
    assert oracle.check_cli_job(job, 1, out(2, 2, 2)) is not None
    assert oracle.check_cli_job(job, 1, out(2, x=3)) is not None


def test_span_overhead_is_spans_times_calibrated_cost():
    tracer = tracing.Tracer("j")
    wrapped = tracer.span_wrapper("f", lambda: None)
    for _ in range(3):
        wrapped()
    tracer.calibrate(calls=2000, repeats=3)
    assert tracer.span_cost_s > 0
    assert tracer.record()["overhead_s"] == 3 * tracer.span_cost_s


def test_times_scale_by_the_median_loop_time_of_their_neighbours():
    ref = speed.REFERENCE_S
    loops = [ref, ref, 2 * ref, ref, ref, 2 * ref, 2 * ref]
    got = speed.at_reference([1.0] * 7, loops)
    # job 0 sees loops 0-2, job 3 sees loops 1-5, job 6 sees loops 4-6
    assert got[0] == 1.0 and got[3] == 1.0 and got[6] == 0.5
    # two samples per job: job 0 sees those of jobs 0-2, job 3 those of jobs 1-3
    pairs = [ref, ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    assert speed.at_reference([1.0] * 4, pairs)[0] == 1.0
    assert speed.at_reference([1.0] * 4, pairs)[3] == 0.5


def test_tail_is_the_harrell_davis_estimate_of_the_rank_n_minus_10_percentile():
    import run

    assert abs(run.harrell_davis(list(range(1, 101)), 0.9) - 90.5) < 1e-6
    assert abs(run.harrell_davis([2.0] * 30, 0.5) - 2.0) < 1e-12
    value, pct, n = run.tail([float(i) for i in range(1, 58)])
    assert (pct, n) == (100.0 * 47 / 57, 57) and 46 < value < 49
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 3)
