"""Machine-speed reference for timings taken on a shared machine.

On a shared machine the speed of the same pure-Python code drifts by
10-15% from one few-second stretch to the next, and further from one
minute to the next, and a job's time moves with it.  A fixed loop timed
next to each job moves the same way (correlation 0.99 over 10 s windows
in the runs this was tuned on), so the benchmark reports every job time
at a reference speed:

    time × REFERENCE_S / median loop time around the job and its neighbours

The loop runs in the benchmark's own process and never touches the
library, so no change to the library can move it.  The raw times and
the loop times are kept in each result record.
"""

from __future__ import annotations

import statistics
import time

ITERATIONS = 100_000
# the loop's time on the reference machine (a shared 2-core x86 VM,
# CPython 3.11); it only fixes the scale of the reported seconds
REFERENCE_S = 0.0075
NEIGHBOURS = 2  # jobs on either side whose loop samples set a job's speed


def loop_time() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def at_reference(times, loops):
    """Scale each time to the reference speed.  loops holds the same
    number of samples for every job, in job order (one taken before and
    one after each job, say); job i is scaled by the median of the
    samples of jobs i - NEIGHBOURS to i + NEIGHBOURS."""
    per_job = len(loops) // len(times) if times else 1
    out = []
    for i, t in enumerate(times):
        near = loops[max(0, i - NEIGHBOURS) * per_job : (i + NEIGHBOURS + 1) * per_job]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
