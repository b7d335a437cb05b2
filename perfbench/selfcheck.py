"""Run every workload once untraced and twice traced, and check the runs agree.

    python3 perfbench/selfcheck.py --seed 1 [--workload NAME ...]

For each workload it prints the end-to-end metrics of an untraced run, then
checks that

* every run reports ``correct`` (passes over the same operations, traced or
  not, gave identical results);
* the per-layer counts of the two traced runs are byte-identical;
* the self times of the spans under the top-level operation spans add up to
  the traced ``solve_s`` within 5%;

and prints the tracing overhead.  Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(name, seed, seconds):
    problems = []
    plain = run_once(name, seed, seconds, 0)
    print(f"{name}: attempted {plain['attempted']}, failed {plain['failed']}")
    for metric, m in plain["metrics"].items():
        print(f"  {metric} = {m['value']!r} {m['unit']}")
    first = run_once(name, seed, seconds, 1)
    second = run_once(name, seed, seconds, 1)
    for label, res in (("untraced", plain), ("traced", first), ("traced again", second)):
        if not res["correct"]:
            problems.append(f"{label} run is not correct")

    def counts(res):
        return json.dumps({k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"},
                          sort_keys=True)

    if counts(first) != counts(second):
        problems.append("per-layer counts differ between two traced runs")
    for res in (first, second):
        coverage = res["metrics"]["trace.coverage"]["value"]
        if abs(coverage - 1.0) > 0.05:
            problems.append(f"span self times cover {coverage:.4f} of traced solve_s")
    m = first["metrics"]
    print(f"  tracing overhead = {m['trace.overhead_s']['value']:.4f} s "
          f"(traced {m['trace.solve_s']['value']:.4f} s, "
          f"untraced {m['trace.untraced_solve_s']['value']:.4f} s), "
          f"coverage {m['trace.coverage']['value']:.4f}")
    for p in problems:
        print(f"  FAILED: {p}")
    return problems


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    problems = []
    for name in args.workload or names:
        problems += check_workload(name, args.seed, args.seconds)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
