"""hfrac benchmark: one workload, end-to-end metrics or a traced layer split.

    python3 perfbench/run.py --workload cover-lp --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
Each workload runs in fresh interpreters (``worker.py``): one process, one
thread, one client in a closed loop, every op a ``hfrac.cli.main(argv)``
call with ``--json`` and no budget.  The op list is fixed by the workload
and the seed; ``--seconds`` is the length it was sized for on the seed
commit and is recorded, not enforced, so that ``total_s`` always times the
same work.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
seven cold set-up-only interpreters), ``total_s``, ``latency_p50_ms`` /
``latency_p90_ms`` over the ops (all times scaled to a nominal machine
speed, see ``speed.py``), ``interval_gap`` (sum of upper - lower over every
reported interval) and ``peak_rss_mb`` of the measured process.  ``--trace 1`` runs the workload
untraced and then traced, checks that the two runs print the same bytes,
and prints the per-layer figures (see ``tracing.py``) plus the tracing
overhead.  Every run passes every output through ``gate.py``; the last
line is one JSON object, and the exit code is 1 if any check failed.
``--tiny`` runs the seconds-long smoke version of the workload, and
``--workload all`` runs the three in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0

import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WHY, WORKLOADS, build_plan  # noqa: E402

# Where each traced function must show at least one span: its layer's
# workload, except where the op set reaches a function elsewhere.
LAYER_HOME = {"lp": ("cover-lp",), "independence": ("exact-search",),
              "gfmat": ("certify-verify",), "graphs": ("cover-lp",)}
HOME = {
    "graphs.generate": WORKLOADS,
    "cli.main": WORKLOADS,
    "minrank.FitCertificate.check": ("certify-verify",),  # only verify calls it
}
# No op reaches these (see the workloads module docstring).
UNREACHED = {"gfmat.kronecker": "only the reproduce claim suite calls it"}


class BenchError(Exception):
    pass


def _home(name: str) -> tuple[str, ...]:
    return HOME.get(name) or LAYER_HOME[tracing.layer_of(name)]


def _spawn(args, mode: str, deadline: float, extra=()) -> tuple[float, subprocess.Popen]:
    """Start a worker and wait for its ``ready`` line; returns the set-up
    time, scaled to the nominal machine speed."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", args.workdir, "--mode", mode, *extra]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline().split()
    wall_s = time.perf_counter() - t0
    if len(line) != 3 or line[0] != "ready":
        _finish(proc, deadline)
        raise BenchError(f"worker ({mode}) failed during set-up")
    ref_s, ref_spent_s = float(line[1]), float(line[2])
    return (wall_s - ref_spent_s) * speed.NOMINAL_REF_S / ref_s, proc


def _finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the benchmark's deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")


def _run_worker(args, mode: str, deadline: float) -> tuple[float, dict]:
    result = os.path.join(args.workdir, f"result-{mode}.json")
    extra = ["--result", result]
    if mode == "trace":
        extra += ["--spans", args.spans]
    setup_s, proc = _spawn(args, mode, deadline, extra)
    _finish(proc, deadline)
    with open(os.path.join(ROOT, result)) as fh:
        return setup_s, json.load(fh)


def _gate(args, plan, records) -> list[tuple[int, str]]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import hfrac.cli
    from gate import Gate

    gate = Gate(plan, hfrac.cli.main)
    failures = []
    for i, record in enumerate(records):
        reason = gate.check(i, record)
        if reason is not None:
            failures.append((i, reason))
    return failures


def _interval_gap(records) -> Fraction:
    gap = Fraction(0)
    for record in records:
        try:
            out = json.loads(record["stdout"])
        except (json.JSONDecodeError, TypeError):
            continue
        if isinstance(out, dict) and "lower" in out and "upper" in out:
            gap += Fraction(out["upper"]) - Fraction(out["lower"])
    return gap


def _provenance(args) -> dict:
    import numpy

    commit = None  # a checkout without .git has no commit to report
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "hfrac")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def _quantile(values, q: int) -> float:
    """The q-th decile (q = 5 is the median) by statistics.quantiles."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(args, plan, deadline) -> tuple[dict, list, list]:
    setups = []
    for _ in range(SETUP_PROBES):
        setup_s, proc = _spawn(args, "setup", deadline)
        _finish(proc, deadline)
        setups.append(setup_s)
    _, result = _run_worker(args, "run", deadline)
    records = result["records"]
    failures = _gate(args, plan, records)
    latencies_ms = [x * 1000.0 for x in speed.scaled(records)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "total_s": (sum(latencies_ms) / 1000.0, "s"),
        "latency_p50_ms": (_quantile(latencies_ms, 5), "ms"),
        "latency_p90_ms": (_quantile(latencies_ms, 9), "ms"),
        "interval_gap": (float(_interval_gap(records)), "width"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    above = sum(1 for x in latencies_ms if x > metrics["latency_p90_ms"][0])
    refs_ms = [r["ref_s"] * 1000.0 for r in records]
    print(f"latency samples: {len(latencies_ms)} ops, {above} above p90; set-up samples: {len(setups)}")
    print(f"raw (unscaled) total {sum(r['latency_s'] for r in records):.4f} s; reference loop per op "
          f"{min(refs_ms):.3f}-{max(refs_ms):.3f} ms (median {statistics.median(refs_ms):.3f}, "
          f"nominal {speed.NOMINAL_REF_S * 1000:.3f})")
    print(f"failed_frac: {len(failures) / len(records):.6f} ({len(failures)}/{len(records)}) ratio")
    return metrics, failures, records


def per_layer(args, plan, deadline) -> tuple[dict, list, list]:
    _, plain = _run_worker(args, "run", deadline)
    failures = _gate(args, plan, plain["records"])
    _, traced = _run_worker(args, "trace", deadline)
    for i, (a, b) in enumerate(zip(plain["records"], traced["records"])):
        if (a["rc"], a["stdout"]) != (b["rc"], b["stdout"]):
            failures.append((i, "traced stdout or exit code differs from the untraced run"))
    with open(os.path.join(ROOT, args.spans)) as fh:
        spans = json.load(fh)["spans"]
    figures = tracing.layer_metrics(spans)
    metrics = {name: (value, tracing.unit_of(name.rsplit(".", 1)[1])) for name, value in figures.items()}
    plain_s = sum(speed.scaled(plain["records"]))
    traced_s = sum(speed.scaled(traced["records"]))
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    print(f"spans: {len(spans)} written to {args.spans}; total_s untraced {plain_s:.4f}, traced {traced_s:.4f}"
          " (self_s figures are raw span times)")

    seen = {span[2] for span in spans}
    for name in tracing.PUBLISHED:
        if args.workload in _home(name) and name not in seen and not args.tiny:
            if name in UNREACHED:
                print(f"coverage: {name} has no span ({UNREACHED[name]})")
            else:
                failures.append((-1, f"coverage: {name} has no span on {args.workload}"))
    for line in predictions(args.workload, figures):
        print(line)
    return metrics, failures, plain["records"]


def predictions(workload: str, f: dict) -> list[str]:
    """The per-layer predictions (README.md), confirmed or refuted on this run."""
    layers = {name: f[f"layer.{name}.self_s"] for name in ("lp", "independence", "gfmat", "graphs")}
    out = []
    if workload == "cover-lp":
        top = max(layers, key=layers.get)
        out.append(f"prediction lp self time is the largest layer: {'confirmed' if top == 'lp' else 'refuted'}"
                   f" (largest: {top}, {layers[top]:.3f} s)")
    if workload == "exact-search":
        calls = f["lp.simplex_solve.calls"]
        out.append(f"prediction lp makes zero calls: {'confirmed' if calls == 0 else 'refuted'} ({calls} calls)")
    if workload == "certify-verify":
        json_s, main_s = f["layer.json.self_s"], f["cli.main.self_s"]
        rest = {"lp": layers["lp"], "independence": layers["independence"],
                "gfmat without JSON": layers["gfmat"] - (json_s - main_s),
                "graphs without cli.main": layers["graphs"] - main_s}
        top = max(rest, key=rest.get)
        verdict = "confirmed" if json_s >= rest[top] else "refuted"
        out.append(f"prediction gfmat JSON + serialize (with cli.main) is the largest share: {verdict}"
                   f" ({json_s:.3f} s vs {top} {rest[top]:.3f} s)")
    return out


def run_workload(args) -> dict | None:
    """Run one workload; returns its result line, or None when it could not run."""
    deadline = time.monotonic() + DEADLINE_S
    run_id = f"{args.workload}-{args.seed}{'-tiny' if args.tiny else ''}"
    args.workdir = os.path.join(WORK, run_id)
    args.spans = os.path.join(WORK, "spans", f"{run_id}.json")
    for sub in ("spans", "results"):
        os.makedirs(os.path.join(ROOT, WORK, sub), exist_ok=True)
    shutil.rmtree(os.path.join(ROOT, args.workdir), ignore_errors=True)

    plan = build_plan(args.workload, args.seed, args.workdir, tiny=args.tiny)
    print(f"perfbench {args.workload} seed {args.seed}: {len(plan.ops)} ops, one process, one thread, "
          f"one client in a closed loop; why: {WHY[args.workload]}")
    provenance = _provenance(args)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    try:
        if args.trace:
            metrics, failures, records = per_layer(args, plan, deadline)
        else:
            metrics, failures, records = end_to_end(args, plan, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(os.path.join(ROOT, args.workdir), ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:.6g} {unit}")
    for index, reason in failures:
        where = f"op {index} ({' '.join(plan.ops[index].argv)})" if index >= 0 else "self-check"
        print(f"FAILED {where}: {reason}")
    result = {"correct": not failures, "attempted": len(records), "failed": len({i for i, _ in failures if i >= 0}),
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    with open(os.path.join(WORK, "results", f"{run_id}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "provenance": provenance, "failures": failures,
                   "ops": [{"argv": op.argv, "rc": r["rc"], "latency_s": r["latency_s"], "ref_s": r["ref_s"]}
                           for op, r in zip(plan.ops, records)]}, fh, indent=1)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="seconds-long smoke version")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hfrac", "cli.py")):
        print("perfbench: no hfrac sources under src/ next to the benchmark", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.workload != "all":
        result = run_workload(args)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    # every workload in turn; the last line carries each one's metrics as
    # "<workload>/<metric>"
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        args.workload = workload
        result = run_workload(args)
        if result is None:
            return 1
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
