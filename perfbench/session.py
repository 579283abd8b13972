"""The long-lived ``session`` worker: API calls only, one job at a time.

    python perfbench/session.py --jobs JOBS.json --mode MODE --passes N --out OUT.json

MODE is ``setup`` (import and warm the caches, then exit), ``run`` (N
passes over the job list), or ``spans`` / ``counts`` (traced passes).
Each job's duration covers its library calls only; the checks that
follow run outside the timer.  Each pass also times the machine-speed
loop (speed.py) three times before and three times after its jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402
import speed  # noqa: E402
from tracing import Tracer, install  # noqa: E402


class Session:
    def __init__(self, hf):
        self.hf = hf
        self.gf = {}

    def field(self, job):
        return self.hf.make_extension(job["p"], job["k"])

    def ref(self, job):
        key = (job["p"], job["k"])
        if key not in self.gf:
            self.gf[key] = oracle.GF(*key)
        return self.gf[key]

    def warm(self, jobs):
        """Build every field the jobs use, with its square-root table."""
        for p, k in sorted({(j["p"], j["k"]) for j in jobs if "p" in j}):
            field = self.hf.make_extension(p, k)
            self.hf.sqrt(field.one())

    # Each job method returns (seconds, check), where check() gives None or
    # a failure reason and runs after the clock has stopped.

    def curve(self, job):
        hf = self.hf
        start = time.perf_counter()
        curve = hf.CurveSpec.weierstrass(self.field(job), job["a"], job["b"])
        report = hf.point_report(curve)
        decision = hf.hasse_principle(curve, job["rank"])
        elapsed = time.perf_counter() - start

        def check():
            return _check_curve(job, report.total, report.two_torsion, decision)

        return elapsed, check

    def cli(self, job):
        hf = self.hf
        argv = ["curve", "--q", str(job["p"] ** job["k"]), "--a", ",".join(map(str, job["a"])),
                "--b", ",".join(map(str, job["b"]))]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = hf.cli.run(argv)
        elapsed = time.perf_counter() - start

        def check():
            if code != 0:
                return f"cli exit {code}"
            res = json.loads(out.getvalue())
            return _check_total(job, res["total"]) or (
                None if res.get("two_torsion") == job["expect"]["two_torsion"] else "two_torsion differs"
            )

        return elapsed, check

    def gram(self, job):
        hf = self.hf
        field = self.field(job)
        start = time.perf_counter()
        curve = hf.CurveSpec.polyline(field)
        form = hf.GramMatrix.diagonal(curve, [hf.Poly(field, e) for e in job["entries"]])
        det = form.det()
        elapsed = time.perf_counter() - start

        def check():
            got = [_prime_coeff(c) for c in det.a.coeffs]
            return None if got == job["expect"]["det"] and det.b.is_zero() else f"det {got} != {job['expect']['det']}"

        return elapsed, check

    def fieldform(self, job):
        hf = self.hf
        field = self.field(job)
        start = time.perf_counter()
        f = hf.FieldForm(field, job["F"])
        g = hf.FieldForm(field, job["G"])
        diag, t = hf.diagonalize(f)
        iso = hf.field_isomorphic(f, g)
        elapsed = time.perf_counter() - start

        def check():
            gf = self.ref(job)
            rows = lambda m: [[tuple(e.coeffs) for e in row] for row in m]  # noqa: E731
            n = len(diag)
            want = [[tuple(diag[i].coeffs) if i == j else gf.elem(0) for j in range(n)] for i in range(n)]
            fm = [[gf.elem(e) for e in row] for row in job["F"]]
            if gf.congruence(rows(t), fm) != want:
                return "diagonalize: T^t F T is not the returned diagonal"
            if any(gf.is_zero(want[i][i]) for i in range(n)):
                return "diagonalize: zero pivot on a nondegenerate form"
            return None if iso == job["expect"]["isomorphic"] else f"field_isomorphic gave {iso}"

        return elapsed, check

    def local(self, job):
        hf = self.hf
        field = self.field(job)
        poly = lambda cs: hf.Poly(field, [field.element(c) for c in cs])  # noqa: E731
        start = time.perf_counter()
        if job["curve"] == "line":
            curve = hf.CurveSpec.polyline(field)
            at = hf.PrimePoly.finite(poly(job["prime"]))
        else:
            curve = hf.CurveSpec.weierstrass(field, job["a"], job["b"])
            x, y = job["point"]
            at = hf.AffinePoint(field.element(x), field.element(y), 1)
        u = poly(job["u"])
        f = hf.GramMatrix.identity(curve, 2)
        g = hf.GramMatrix.from_rows(curve, [[1, u], [u, poly(job["u2c"])]])
        iso = hf.local_isomorphic(f, g, at)
        elapsed = time.perf_counter() - start
        return elapsed, lambda: None if iso == job["expect"]["isomorphic"] else f"local_isomorphic gave {iso}"

    def genus(self, job):
        hf = self.hf
        start = time.perf_counter()
        pair = hf.serialize.pair_from_json(job["pair"])
        report = hf.verify_genus_witness(pair["F"], pair["G"], pair["witness"], degree=pair["degree"])
        text = hf.serialize.dumps(hf.serialize.genus_report_to_json(report))
        elapsed = time.perf_counter() - start
        code = 0 if report.verdict == "Certified" else 1
        return elapsed, lambda: oracle.check_genus(job["expect"], code, text)

    def search(self, job):
        hf = self.hf
        start = time.perf_counter()
        pair = hf.serialize.pair_from_json(job["pair"])
        bounds = pair["bounds"]
        found = hf.isom_search(pair["F"], pair["G"], deg_x=bounds["deg_x"], deg_y=bounds["deg_y"])
        payload = {"found": found is not None, "witness": None if found is None else hf.serialize.matrix_to_json(found)}
        text = hf.serialize.dumps(payload)
        elapsed = time.perf_counter() - start
        return elapsed, lambda: oracle.check_search(job["expect"], 0 if found is not None else 1, text)


def _prime_coeff(c):
    if any(c.coeffs[1:]):
        raise ValueError("coefficient outside the prime field")
    return c.coeffs[0]


def _check_total(job, total):
    q = job["p"] ** job["k"]
    want = job["expect"]["total"]
    if want is not None:
        return None if total == want else f"point total {total} != {want}"
    if (total - q - 1) ** 2 > 4 * q:
        return f"point total {total} breaks the Hasse bound at q={q}"
    return None


def _check_curve(job, total, two_torsion, decision):
    reason = _check_total(job, total)
    if reason:
        return reason
    if two_torsion != job["expect"]["two_torsion"]:
        return f"two_torsion {two_torsion} differs"
    r = decision.reason
    if r.pic_order != total:
        return f"pic_order {r.pic_order} != point total {total}"
    if (r.pic_order % 2 == 0) != two_torsion:
        return "Picard parity disagrees with two_torsion"
    holds = r.pic_order == 1 if decision.rank == 2 else r.pic_order % 2 == 1
    if decision.verdict != ("Holds" if holds else "Fails"):
        return f"verdict {decision.verdict} contradicts its criterion"
    return None


def run_pass(session, jobs, result, tracer):
    """One pass over the jobs: {job index: seconds}."""
    times = {}
    for index, job in enumerate(jobs):
        tracer.job = f"{index}:{job['kind']}"
        try:
            elapsed, check = getattr(session, job["kind"])(job)
            reason = check()
        except Exception as exc:  # a crash in one job is that job's failure
            elapsed, reason = math.nan, f"{type(exc).__name__}: {exc}"
        result["attempted"] += 1
        if reason is not None:
            result["failures"].append(f"session job {index} ({job['kind']}): {reason}")
        if not math.isnan(elapsed):
            times[str(index)] = elapsed
    return times


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "spans", "counts"))
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.jobs) as handle:
        jobs = json.load(handle)

    tracer = Tracer("setup")
    start = time.perf_counter()
    import hasseforms
    import hasseforms.cli
    import hasseforms.serialize

    tracer.import_s = time.perf_counter() - start
    if args.mode in ("spans", "counts"):
        install(tracer, args.mode)
    session = Session(hasseforms)
    session.warm(jobs)
    result = {"passes": [], "loops": [], "attempted": 0, "failures": []}
    if args.mode != "setup":
        for _ in range(args.passes):
            loops = [speed.loop_time() for _ in range(3)]
            result["passes"].append(run_pass(session, jobs, result, tracer))
            result["loops"].append(loops + [speed.loop_time() for _ in range(3)])
    if args.mode == "spans":
        tracer.calibrate()
    result.update(tracer.record())
    with open(args.out, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
