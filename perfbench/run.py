#!/usr/bin/env python3
"""hasseforms benchmark: seeded workloads, checked outputs, end-to-end metrics.

    python3 perfbench/run.py --workload {search,genus,session,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
``src/``.  ``search`` and ``genus`` start one fresh
``python -m hasseforms.cli`` process per job, ``session`` is one
long-lived process calling the Python API.  Every workload is a closed
loop with one client.  The job list is repeated in as many passes as
fill ``--seconds`` at the workload's nominal pass time.  Every time is
reported at the reference speed of speed.py, which takes out the drift
of a shared machine's speed; the raw times are kept in the record.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
one span-traced and one count-traced pass.  Each run also
writes a result record under ``.perfbench/results/`` for compare.py.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("search", "genus", "session")
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_ROUNDS_PER_PASS = 3  # rounds over the set-up probes before each pass (search, genus)
SESSION_SETUP_SPAWNS = 10
JOB_TIMEOUT_S = 60.0
# seconds one pass over a workload's job list takes on a 2-core x86 VM
NOMINAL_PASS_S = {"search": 12.0, "genus": 13.0, "session": 2.0}
HARD_LIMIT_S = 150.0  # a run stops starting jobs after this, whatever --seconds says


class Run:
    """Bookkeeping for one workload run: jobs attempted, failures, passes
    (job times at the reference speed) and the raw job and loop times."""

    def __init__(self):
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures = []
        self.passes = []
        self.raw = []

    def left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def tally(self, job_id, reason):
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{job_id}: {reason}")


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.pop("HASSE_FORMS_BUDGET", None)
    return env


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, p = (n - 10) / n, estimated by Harrell-Davis."""
    n = len(values)
    if n < 11:
        return max(values), 100.0, n
    p = (n - 10) / n
    return harrell_davis(values, p), 100.0 * p, n


def harrell_davis(values, p, steps=32):
    """Harrell-Davis estimate of the p-quantile: every order statistic
    weighted by the Beta((n+1)p, (n+1)(1-p)) mass of its interval
    ((i-1)/n, i/n], integrated by the midpoint rule.  Among a few dozen
    samples from jobs of different sizes, the single order statistic at
    rank n·p jumps between jobs; this weighted mean of its neighbours
    estimates the same percentile far more steadily."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * p - 1, (n + 1) * (1 - p) - 1
    grid = n * steps
    log_density = [a * math.log(x) + b * math.log1p(-x) for x in ((j + 0.5) / grid for j in range(grid))]
    top = max(log_density)
    weights = [sum(math.exp(d - top) for d in log_density[i * steps : (i + 1) * steps]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def summarize(passes, setup_samples, peak_rss_kb, run: Run):
    """End-to-end metrics from passes ({job id: seconds} each).

    On every workload each job time of every pass is a sample, and
    wall_s is the median over passes of the pass's summed job times.
    Both job-time percentiles are Harrell-Davis estimates."""
    samples = [t for p in passes for t in p.values()]
    wall = statistics.median(sum(p.values()) for p in passes)
    value, pct, n = tail(samples)
    return {
        "wall_s": {"value": wall, "unit": "s", "passes": len(passes)},
        "job_s.p50": {"value": harrell_davis(samples, 0.5), "unit": "s"},
        "job_s.tail": {"value": value, "unit": "s", "percentile": pct, "jobs": n},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s", "samples": len(setup_samples)},
        "peak_rss_mb": {"value": peak_rss_kb / 1024.0, "unit": "MB"},
        "error_rate": {"value": len(run.failures) / max(run.attempted, 1), "unit": "ratio"},
    }


# ---------------------------------------------------------------------------
# CLI workloads (search, genus)


def write_inputs(jobs, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for job in jobs:
        if "input" in job:
            path = directory / f"{job['id']}.json"
            path.write_bytes(gen.job_bytes(job))
            job["path"] = str(path)


def run_cli_job(job, run: Run, mode=None, trace_dir=None):
    """Spawn one CLI process; return (seconds, failure reason or None)."""
    argv = [a.replace("{input}", job.get("path", "")) for a in job["argv"]]
    if mode is None:
        cmd = [sys.executable, "-m", "hasseforms.cli", *argv]
    else:
        out = trace_dir / f"{job['id']}.{mode}.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), mode, str(out), job["id"], "--", *argv]
    timeout = min(JOB_TIMEOUT_S, max(run.left(), 1.0))
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - start
    reason = oracle.check_cli_job(job, proc.returncode, proc.stdout)
    if reason is not None and proc.stderr:
        reason += " | " + proc.stderr.strip().splitlines()[-1][:200]
    return elapsed, reason


def cli_pass(jobs, run: Run, mode=None, trace_dir=None):
    """One pass over the jobs: {job id: seconds at the reference speed}.
    The speed loop is timed before and after each job."""
    ids, times, loops = [], [], []
    for job in jobs:
        if run.left() <= 0:
            run.tally(job["id"], "not run: hard time limit reached")
            continue
        loops.append(speed.loop_time())
        elapsed, reason = run_cli_job(job, run, mode, trace_dir)
        loops.append(speed.loop_time())
        run.tally(job["id"], reason)
        ids.append(job["id"])
        times.append(elapsed)
    run.raw.append({"jobs": ids, "times": times, "loops": loops})
    return dict(zip(ids, speed.at_reference(times, loops)))


def cli_workload(name, seed, seconds, traced, workdir: Path):
    fixtures = {n: json.loads((SRC / "hasseforms" / "fixtures" / f"{n}.json").read_text()) for n in gen.FIXTURES}
    jobs = gen.generate(name, seed, fixtures)
    probes = gen.setup_probes()
    write_inputs(jobs + probes, workdir / "inputs")
    run = Run()
    run_cli_job(probes[0], run)  # unmeasured: byte-compiles src/ and warms the file cache
    if traced:
        return cli_traced(jobs, probes, run, workdir)
    setup = []
    for _ in range(pass_count(name, seconds)):
        # set-up rounds are spread over the run, so their median does not
        # hang on the machine's speed in a single second
        for _ in range(SETUP_ROUNDS_PER_PASS):
            probe_times = cli_pass(probes, run)
            if probe_times:
                setup.append(statistics.fmean(probe_times.values()))
        run.passes.append(cli_pass(jobs, run))
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return summarize(run.passes, setup, peak, run), run


def pass_count(workload, seconds):
    """Passes that fill --seconds at the nominal pass time.  The count is
    fixed by the arguments alone, so every run ranks the same number of
    samples."""
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def cli_traced(jobs, probes, run: Run, workdir: Path):
    trace_dir = workdir / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    cli_pass(probes + jobs, run, "spans", trace_dir)
    cli_pass(probes + jobs, run, "counts", trace_dir)
    span_records, counts = [], {}
    for job in probes + jobs:
        path = trace_dir / f"{job['id']}.spans.json"
        if path.exists():
            span_records.append(json.loads(path.read_text()))
        path = trace_dir / f"{job['id']}.counts.json"
        if path.exists():
            for key, value in json.loads(path.read_text())["counts"].items():
                counts[key] = counts.get(key, 0) + value
    write_trace(workdir, span_records)
    return tracing.per_layer(span_records, counts), run


def write_trace(workdir: Path, records):
    spans = [s for r in records for s in r["spans"]]
    (workdir / "spans.json").write_text(json.dumps({"fields": ["id", "parent", "job", "name", "start", "end"], "spans": spans}))


# ---------------------------------------------------------------------------
# session workload


def session_worker(jobs_path, mode, passes, out_path, run: Run):
    cmd = [sys.executable, str(HERE / "session.py"), "--jobs", str(jobs_path), "--mode", mode,
           "--passes", str(passes), "--out", str(out_path)]
    timeout = max(run.left(), 1.0)
    out_path.unlink(missing_ok=True)
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, f"session worker timed out after {timeout:.0f} s"
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or not out_path.exists():
        tail_line = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return elapsed, None, f"session worker exit {proc.returncode}: {tail_line[0][:200]}"
    return elapsed, json.loads(out_path.read_text()), None


def session_workload(seed, seconds, traced, workdir: Path):
    jobs = gen.generate("session", seed, {})
    workdir.mkdir(parents=True, exist_ok=True)
    jobs_path = workdir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs, sort_keys=True))
    run = Run()
    out = workdir / "worker.json"
    session_worker(jobs_path, "setup", 0, out, run)  # unmeasured warm-up spawn
    if traced:
        results = {}
        for mode in ("spans", "counts"):
            _, res, err = session_worker(jobs_path, mode, 1, out, run)
            if err:
                run.tally("session", err)
                return None, run
            results[mode] = res
            tally_session(res, run)
        write_trace(workdir, [results["spans"]])
        return tracing.per_layer([results["spans"]], results["counts"]["counts"]), run
    # half the set-up spawns before the long-lived worker and half after,
    # so their median does not hang on the machine's speed in one second
    setup = session_setup(jobs_path, out, SESSION_SETUP_SPAWNS // 2, run)
    _, res, err = session_worker(jobs_path, "run", pass_count("session", seconds), out, run)
    if err:
        run.tally("session", err)
        return None, run
    tally_session(res, run)
    for times, loops in zip(res["passes"], res["loops"]):
        run.raw.append({"jobs": list(times), "times": list(times.values()), "loops": loops})
        scale = speed.REFERENCE_S / statistics.median(loops)
        run.passes.append({job: t * scale for job, t in times.items()})
    setup += session_setup(jobs_path, out, SESSION_SETUP_SPAWNS - SESSION_SETUP_SPAWNS // 2, run)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return summarize(run.passes, setup, peak, run), run


def session_setup(jobs_path, out, spawns, run: Run):
    """Times of fresh workers that import and warm the caches, at the
    reference speed."""
    times, loops = [], []
    for _ in range(spawns):
        loops.append(speed.loop_time())
        elapsed, _, err = session_worker(jobs_path, "setup", 0, out, run)
        loops.append(speed.loop_time())
        run.tally("session-setup", err)
        times.append(elapsed)
    run.raw.append({"jobs": ["setup"] * spawns, "times": times, "loops": loops})
    return speed.at_reference(times, loops)


def tally_session(res, run: Run):
    run.attempted += res["attempted"]
    run.failures.extend(res["failures"])


# ---------------------------------------------------------------------------
# records and output


def commit_id():
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "hasseforms").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment():
    return {
        "commit": commit_id(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    }


def run_workload(name, seed, seconds, traced, env):
    workdir = WORK / f"{name}-seed{seed}-trace{int(traced)}"
    shutil.rmtree(workdir, ignore_errors=True)
    if name == "session":
        metrics, run = session_workload(seed, seconds, traced, workdir)
    else:
        metrics, run = cli_workload(name, seed, seconds, traced, workdir)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced), **env,
        "correct": metrics is not None and not run.failures,
        "attempted": max(run.attempted, 1),
        "failed": len(run.failures) if run.attempted else 1,
        "failures": run.failures,
        "metrics": metrics or {},
        "passes": run.passes,
        "raw": run.raw,
        "reference_loop_s": speed.REFERENCE_S,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = env["started"].replace(":", "").replace("+0000", "Z")
    (results / f"{name}-seed{seed}-trace{int(traced)}-{stamp}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return record


def print_table(record):
    print(f"# {record['workload']}  seed={record['seed']}  attempted={record['attempted']}  failed={record['failed']}")
    for name, m in record["metrics"].items():
        extra = f"  (p{m['percentile']:.1f} of {m['jobs']} jobs)" if "percentile" in m else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")
    for failure in record["failures"][:20]:
        print(f"  FAIL {failure}")


def run_all(args) -> int:
    """Each workload in its own run.py process, so RUSAGE_CHILDREN and
    module state stay per workload; metrics are prefixed by workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hasseforms" / "cli.py").is_file():
        print(f"error: no hasseforms sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), environment())
    print_table(record)
    missing = [n for n in names if n not in record["metrics"]]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": record["metrics"][n]["value"], "unit": record["metrics"][n]["unit"]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
