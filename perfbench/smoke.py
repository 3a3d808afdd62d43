"""Smoke test of the benchmark itself, in seconds.

    python3 perfbench/smoke.py

Runs the tiny version of every workload with ``--trace 0`` and
``--trace 1`` and checks that each run passes the correctness gate, exits
0, and prints exactly the metric names and units ``BENCHMARK.json``
declares.  It also checks that the benchmark refuses to run, with a
nonzero exit and no result line, where the program's sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(cwd: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    expected = {
        0: {m["name"]: m["unit"] for m in manifest["end_to_end"]},
        1: {m["name"]: m["unit"] for m in manifest["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in manifest["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds",
                        str(manifest["run_seconds"]), "--trace", str(trace), "--tiny")
            label = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if units != expected[trace]:
                missing = set(expected[trace]) - set(units)
                extra = set(units) - set(expected[trace])
                problems.append(f"{label}: metrics differ; missing {sorted(missing)}, extra {sorted(extra)}")
            for name in units:
                if f"  {name} " not in proc.stdout:
                    problems.append(f"{label}: {name} not printed by name")
            print(f"ok   {label}: {result['attempted']} ops")

    bare = os.path.join(ROOT, ".perfbench_work", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, "--workload", "cover-lp", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        problems.append("without src/ the benchmark did not refuse to run")
    else:
        print("ok   refuses to run without the program's sources")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
