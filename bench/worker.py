"""One benchmark iteration in a fresh interpreter.

Usage: python3 bench/worker.py JOB.json RESULT.json

The job names the ``polygenocchi.cli.main`` argument lists to run, in
order, in this one process.  The package is imported from the checkout's
``src/`` before anything else, so set-up time (interpreter start until the
package is imported) is measured by the parent against the moment it
spawned this process.  Each call's standard output is captured in memory
and written to the file the job names, after the timed region.  A job
with ``"trace": true`` wraps the package first (see ``tracer.py``) and
writes its spans beside the result.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import polygenocchi.cli  # noqa: E402

IMPORTED_AT = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def run(job: dict) -> dict:
    result = {
        "imported_at": IMPORTED_AT,
        "package_file": polygenocchi.__file__,
        "calls": [],
    }
    if job.get("probe"):
        return result
    tracer = inst = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        inst = tracing.instrument(tracer)
    main = polygenocchi.cli.main
    wall = cpu = 0.0
    try:
        for call in job["calls"]:
            buf = io.StringIO()
            error = None
            rc = None
            with contextlib.redirect_stdout(buf):
                w0 = time.perf_counter()
                c0 = time.process_time()
                try:
                    rc = main(call["argv"])
                except Exception:
                    error = traceback.format_exc()
                c1 = time.process_time()
                w1 = time.perf_counter()
            wall += w1 - w0
            cpu += c1 - c0
            with open(call["stdout"], "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            result["calls"].append({"rc": rc, "error": error})
    finally:
        if inst is not None:
            inst.restore()
    result["wall_s"] = wall
    result["cpu_s"] = cpu
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    if tracer is not None:
        tracer.write_spans(job["spans"])
        result["trace"] = tracer.summary()
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: worker.py JOB.json RESULT.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
