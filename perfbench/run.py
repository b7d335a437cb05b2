"""Run one sepflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid2d-small-groups --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the library is imported from ``src/``
there and nowhere else.  One process runs one operation at a time on one
thread; BLAS/OpenMP pools and ``SEPFLOW_THREADS`` are pinned to 1 before
numpy is imported.

Both modes first run two tiny untimed operations to warm the process up.
``--trace 0`` repeats passes over the workload's operations until
``--seconds`` would be exceeded (at least one pass) and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced pass and one traced pass and prints
the per-layer metrics, including the tracing overhead; both passes must give
identical results.  Each metric is printed as ``name = value unit``; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A copy of the result, with the machine it ran on and every
operation's outcome, is written under ``perfbench/out/`` (spans too when
tracing).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "SEPFLOW_THREADS")
OP_ROOTS = {"pipeline.approx_max_flow", "pipeline.route_fixed_flow", "pipeline.cut_certificate"}

END_TO_END_UNITS = {
    "solve_s": "s",
    "setup_s": "s",
    "flow_ratio_min": "1",
    "flow_ratio_mean": "1",
    "ok_fraction": "1",
    "peak_rss_mb": "MB",
}


def machine():
    """What the numbers were measured on, so results from different machines are not mixed."""
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes):
    """The end-to-end metrics of an untraced run."""
    outcomes = [o for p in passes for o in p.outcomes]
    ratios = [o.ratio for o in passes[0].outcomes if o.ratio is not None]
    return {
        "solve_s": statistics.median(p.solve_s for p in passes),
        "setup_s": statistics.median(t for p in passes for t in p.setup_s),
        "flow_ratio_min": min(ratios, default=0.0),
        "flow_ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ok_fraction": sum(o.ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }


def warm_up(seed):
    from workloads import WARM_UP, run_pass

    for workload in WARM_UP:
        run_pass(workload, seed, setup_seconds=0)


def run_untraced(workload, seed, seconds):
    from workloads import run_pass

    warm_up(seed)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, seed))
        if time.perf_counter() - start + passes[-1].wall_s > seconds:
            break
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(passes).items()}
    return passes, metrics, None


def run_traced(workload, seed):
    import tracing
    from workloads import run_pass

    warm_up(seed)
    plain = run_pass(workload, seed)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        traced_pass = run_pass(workload, seed, tracer=tracer, setup_seconds=0)
    metrics = tracing.layer_metrics(tracer)
    self_sum = tracing.tree_self_sum(tracer.spans, OP_ROOTS)
    metrics.update({
        "trace.solve_s": (traced_pass.solve_s, "s"),
        "trace.untraced_solve_s": (plain.solve_s, "s"),
        "trace.overhead_s": (traced_pass.solve_s - plain.solve_s, "s"),
        "trace.op_self_sum_s": (self_sum, "s"),
        "trace.coverage": (self_sum / traced_pass.solve_s if traced_pass.solve_s else 0.0, "1"),
    })
    return [plain, traced_pass], metrics, tracer


def report(workload, seed, trace, passes, metrics, tracer, out=sys.stdout, out_dir=OUT_DIR):
    """Print every metric with its unit, then the result line; return the result."""
    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(not o.ok for o in outcomes)
    deterministic = all([o.key for o in p.outcomes] == [o.key for o in passes[0].outcomes]
                        for p in passes)
    correct = deterministic and all(math.isfinite(v) for v, _ in metrics.values())

    env = machine()
    print(f"# workload {workload.name} seed {seed} trace {trace} passes {len(passes)}", file=out)
    print(f"# machine {json.dumps(env, sort_keys=True)}", file=out)
    for slot, (inst, o) in enumerate(zip(workload.instances, passes[0].outcomes)):
        status = "ok" if o.ok else f"FAILED: {o.reason}"
        print(f"# op {slot} {inst.label}: {o.seconds:.3f} s {status}", file=out)
    if not deterministic:
        print("# NOT DETERMINISTIC: passes over the same operations gave different results", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}", file=out)
    print(f"failed_fraction = {failed / len(outcomes)!r} 1 ({failed} of {len(outcomes)} attempted)",
          file=out)

    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{workload.name}-seed{seed}-trace{trace}"
    detail = dict(result, workload=workload.name, seed=seed, machine=env, operations=[
        {"instance": inst.label, "pass": i, "ok": o.ok, "reason": o.reason,
         "ratio": o.ratio, "seconds": o.seconds}
        for i, p in enumerate(passes) for inst, o in zip(workload.instances, p.outcomes)])
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for sid, name, start, end, parent, op in tracer.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
    print(json.dumps(result), file=out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "sepflow" / "__init__.py").is_file():
        print(f"error: no sepflow sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        passes, metrics, tracer = run_traced(workload, args.seed)
    else:
        passes, metrics, tracer = run_untraced(workload, args.seed, args.seconds)
    report(workload, args.seed, args.trace, passes, metrics, tracer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
