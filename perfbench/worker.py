"""One workload in a fresh interpreter: set up, then run the op list.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --mode M
        [--tiny] [--result PATH] [--spans PATH]

Set-up is importing ``hfrac.cli`` plus writing the seeded inputs; the
worker prints ``ready`` when it is done, so the parent can time set-up from
interpreter launch, followed by the machine-speed reference around set-up
and the time the reference itself took (``speed.py``).  ``--mode setup`` exits there.  ``--mode run`` then
calls ``hfrac.cli.main(argv)`` for each op in order (one client, closed
loop, stdout captured) and writes every op's exit code, stdout, latency
and the machine-speed reference around it (``speed.py``) to ``--result``.
``--mode trace`` does the same with span wrappers installed and also
writes the spans to ``--spans`` at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from speed import Sampler, steady_reference_s  # noqa: E402
from workloads import WORKLOADS, build_plan, write_inputs  # noqa: E402


def run_ops(plan, main) -> dict:
    records = []
    for op in plan.ops:
        out, err = io.StringIO(), io.StringIO()
        error = None
        rc = None
        with Sampler() as speed:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(op.argv)
            except Exception:  # an uncaught exception is a failed op, not a crashed run
                error = traceback.format_exc()
            latency = time.perf_counter() - t0 - speed.spent_s
        if op.save_as is not None:
            with open(op.save_as, "w") as fh:
                fh.write(out.getvalue())
        records.append({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
                        "error": error, "latency_s": latency, "ref_s": speed.mean_ref_s})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"records": records, "peak_rss_mb": peak_rss_mb}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--result")
    ap.add_argument("--spans")
    args = ap.parse_args()

    t0 = time.perf_counter()
    ref_start = steady_reference_s()
    ref_spent = time.perf_counter() - t0
    import hfrac.cli

    plan = build_plan(args.workload, args.seed, args.workdir, tiny=args.tiny)
    write_inputs(plan)
    t0 = time.perf_counter()
    ref_end = steady_reference_s()
    ref_spent += time.perf_counter() - t0
    print(f"ready {(ref_start + ref_end) / 2!r} {ref_spent!r}", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "trace":
        from hfrac.budget import Budget

        import tracing

        tracer = tracing.Tracer(Budget)
        tracing.install(tracer)
    try:
        result = run_ops(plan, hfrac.cli.main)
    finally:
        if tracer is not None:
            tracer.dump(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
