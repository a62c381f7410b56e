"""One round of a workload in a fresh interpreter.

    python3 perfbench/worker.py PLAN.json

PLAN.json holds {"ops": [argv, ...], "result": path, "trace": path | null}.
Each argv is passed to anosov_forge.cli.main in this process, in order, and
timed alone.  The result file gets the time.monotonic() reading taken once
the CLI module is imported, each operation's wall time, exit code (null
when it raised) and error text, and the peak resident memory of this
process.  With "trace" set, the functions in tracer.TARGETS are wrapped
first and the per-layer metrics go to that path.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def main() -> int:
    with open(sys.argv[1]) as fh:
        plan = json.load(fh)
    from anosov_forge.cli import main as cli_main

    ready = time.monotonic()  # the parent reads set-up time against its own clock
    tracer = None
    if plan.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times, codes, errors = [], [], []
    for argv in plan["ops"]:
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stderr(err), redirect_stdout(err):
                code = tracer.run_op(cli_main, argv) if tracer else cli_main(argv)
        except (Exception, SystemExit) as exc:  # an escaped exception is a failed operation
            code = None
            err.write(f"{type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        codes.append(code)
        errors.append(err.getvalue()[-400:])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(plan["result"], "w") as fh:
        json.dump(
            {
                "ready": ready,
                "times": times,
                "codes": codes,
                "errors": errors,
                "peak_rss_mb": peak_kb / 1024,
            },
            fh,
        )
    if tracer:
        with open(plan["trace"], "w") as fh:
            json.dump({"metrics": tracer.metrics()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
