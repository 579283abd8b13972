"""Run one hasseforms CLI command under the tracer.

    python perfbench/traced_cli.py {spans|counts} OUT.json JOB_ID -- CLI ARGS...

Exits with the command's own exit code and writes the process's spans,
counts, import time and estimated span overhead to OUT.json when the
command ends.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402


def main():
    mode, out, job, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("spans", "counts"):
        raise SystemExit("usage: traced_cli.py {spans|counts} OUT JOB -- ARGS...")
    tracer = Tracer(job)
    start = time.perf_counter()
    import hasseforms.cli

    tracer.import_s = time.perf_counter() - start
    install(tracer, mode)
    try:
        code = hasseforms.cli.run(argv)
    finally:
        if mode == "spans":
            tracer.calibrate()
        tracer.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
