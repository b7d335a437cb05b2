"""Command-line entry points: approximate max flow and the benchmark harness.

Exit codes for ``maxflow``: 0 on success, 2 when a fixed-flow run returns the
fail certificate (the cut is emitted), 3 when a fixed-flow run ends partial
(its best flow is below ``(1 - eps/3) F`` and no cut proves ``F``
infeasible), 4 when a max-flow run is uncertified (its flow is below
``1 - eps`` times the least cut its phases swept, so the run cannot show
that it is within ``1 - eps`` of the max flow), 1 on input or validation
errors.  The result JSON carries ``status``: ``"ok"`` or ``"uncertified"``
for a max-flow run, ``"ok"``, ``"partial"`` or ``"fail"`` (with
``requested_flow``) for a fixed-flow run.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .config import RunConfig, substream
from .dimacs import load_dimacs
from .errors import SepflowError
from .grids import GridSpec, grid_graph, random_capacity_grid
from .maxflow import exact_max_flow_oracle
from .partition import grid_r_division, load_partition
from .pipeline import approx_max_flow, cut_certificate, route_fixed_flow, success_target


def _parse_grid(spec_str):
    try:
        rows, cols = (int(x) for x in spec_str.lower().split("x"))
        return rows, cols
    except ValueError as exc:
        raise SepflowError(f"bad --grid '{spec_str}', expected ROWSxCOLS") from exc


def _build_instance(args):
    """Returns (graph, s, t, partition)."""
    if args.input:
        g, s, t = load_dimacs(args.input)
        if args.source is not None:
            s = args.source
        if args.sink is not None:
            t = args.sink
        if s is None or t is None:
            raise SepflowError("source/sink not in file; pass --source and --sink")
        spec = None
    elif args.grid:
        rows, cols = _parse_grid(args.grid)
        spec = GridSpec(rows, cols, args.layers)
        if args.random_capacities:
            g = random_capacity_grid(rows, cols, args.layers, seed=args.seed)
        else:
            g = grid_graph(rows, cols, args.layers)
        s = 0 if args.source is None else args.source
        t = g.n - 1 if args.sink is None else args.sink
    else:
        raise SepflowError("need --input FILE or --grid RxC")

    if args.partition:
        part = load_partition(args.partition, g, terminals=(s, t))
    elif spec is not None:
        part = grid_r_division(spec.rows, spec.cols, spec.layers, args.r,
                               terminals=(s, t), graph=g)
    else:
        raise SepflowError("non-grid input requires --partition FILE")
    return g, s, t, part


def _result_json(res):
    return {
        "flow_value": res.value,
        "eps": res.eps,
        "iterations_outer": res.stats.iterations_outer,
        "iterations_inner_total": res.stats.iterations_inner_total,
        "max_edge_congestion": res.max_edge_congestion,
        "per_group_congestion_max": res.per_group_congestion_max,
        # inf (no sweep separated s from t) is not JSON
        "cut_upper_bound": res.cut_upper_bound if math.isfinite(res.cut_upper_bound) else None,
        "certified_ratio": res.certified_ratio,
        "timings": res.stats.timings,
        "counters": res.stats.counters(),
        "seed": res.seed,
    }


def cmd_maxflow(args):
    g, s, t, part = _build_instance(args)
    config = RunConfig(eps=args.eps, r=args.r, seed=args.seed)

    if args.flow is None:
        res, fail_ctx = approx_max_flow(g, part, None, s, t, args.eps, config=config), None
    else:
        res, fail_ctx = route_fixed_flow(g, part, None, s, t, args.flow, args.eps, config=config)
    if args.trace:
        with open(args.trace, "w") as fh:
            _write_trace(fh, (res or fail_ctx[0]).stats)
    if fail_ctx is not None:
        inst, fail, d = fail_ctx
        cert = cut_certificate(inst, fail, args.eps)
        payload = {
            "status": "fail",
            "eps": args.eps,
            "requested_flow": args.flow,
            "certificate": {
                "gradient_capacity": cert.gradient_capacity,
                "demand_value": cert.demand_value,
                "cut_value": cert.cut_capacity,
            },
            "seed": args.seed,
            "timings": inst.stats.timings,
            "counters": inst.stats.counters(),
        }
        _emit_json(payload, args.json)
        if args.emit_cut and cert.cut_side is not None:
            with open(args.emit_cut, "w") as fh:
                fh.write(" ".join(str(int(v)) for v in cert.cut_side) + "\n")
        return 2
    payload = _result_json(res)
    if args.flow is None:
        status = "uncertified" if res.certified_ratio < 1.0 - args.eps else "ok"
    else:
        status = "partial" if res.value < success_target(args.flow, args.eps) else "ok"
        payload["requested_flow"] = args.flow
    payload["status"] = status
    _emit_json(payload, args.json)
    if args.emit_flow:
        np.savetxt(args.emit_flow, res.flow, delimiter=",")
    return {"ok": 0, "partial": 3, "uncertified": 4}[status]


def _write_trace(fh, stats):
    """The run's ``trace_rows`` as CSV, one row per outer iteration; a value
    the iteration does not have is left empty."""
    fh.write("probe,outer_iteration,flow_target,best_value,max_edge_congestion\n")
    for row in stats.trace_rows:
        fh.write(",".join("" if x is None else str(x) for x in row) + "\n")


def _emit_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_bench(args):
    sizes = [int(x) for x in args.grids.split(",")] if args.grids else [8, 16]
    rows = ["instance,n,m,r,eps,value,exact,ratio,wall_time,inner_iterations,factorizations,"
            "pcg_iterations"]
    for size in sizes:
        name = f"grid{size}x{size}" + (f"x{args.layers}" if args.layers > 1 else "")
        seed = substream(args.seed, "bench", size)
        g = random_capacity_grid(size, size, args.layers, seed=seed)
        # auto r ~ m^(2/5), floored at 12 so that small grids still get
        # groups of several edges
        r = args.r if args.r else max(12, int(round(g.m ** 0.4)))
        part = grid_r_division(size, size, args.layers, r, terminals=(0, g.n - 1), graph=g)
        t0 = time.perf_counter()
        res = approx_max_flow(g, part, None, 0, g.n - 1, args.eps,
                              config=RunConfig(eps=args.eps, r=r, seed=seed))
        wall = time.perf_counter() - t0
        if g.m <= args.exact_cutoff:
            exact = exact_max_flow_oracle(g, 0, g.n - 1).value
            ratio = res.value / exact
            exact_s, ratio_s = f"{exact:.6f}", f"{ratio:.6f}"
            if ratio < 1 - args.eps:
                # never report a miss without a triage bundle
                bundle = f"{args.out or 'bench'}.{name}.diag"
                with open(bundle, "w") as fh:
                    fh.write(f"instance {name} seed {seed} r {r} eps {args.eps}\n")
                    fh.write(f"value {res.value!r} exact {exact!r}\n")
                    _write_trace(fh, res.stats)
        else:
            exact_s, ratio_s = "", ""
        wall_s = "-" if args.no_timing else f"{wall:.3f}"
        st = res.stats
        rows.append(f"{name},{g.n},{g.m},{r},{args.eps},{res.value:.6f},{exact_s},{ratio_s},"
                    f"{wall_s},{st.iterations_inner_total},{st.factorizations},{st.pcg_iterations}")
    text = "\n".join(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="sepflow",
                                 description="Approximate max flow on separable graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    mf = sub.add_parser("maxflow", help="compute an approximate maximum s-t flow")
    mf.add_argument("--input", help="extended DIMACS file")
    mf.add_argument("--grid", help="ROWSxCOLS grid instance")
    mf.add_argument("--layers", type=int, default=1)
    mf.add_argument("--random-capacities", action="store_true",
                    help="seeded capacities in [1,10] for grid instances")
    mf.add_argument("--partition", help="partition file")
    mf.add_argument("--eps", type=float, default=0.1)
    mf.add_argument("--r", type=int, default=32)
    mf.add_argument("--seed", type=int, default=0)
    mf.add_argument("--source", type=int)
    mf.add_argument("--sink", type=int)
    mf.add_argument("--flow", type=float, help="fixed-flow mode: route this amount or emit a cut")
    mf.add_argument("--trace", help="write outer-iteration trace CSV here")
    mf.add_argument("--emit-flow", help="write the flow vector CSV here")
    mf.add_argument("--emit-cut", help="write the cut vertex set here")
    mf.add_argument("--json", help="write the result JSON here (default: stdout)")
    mf.set_defaults(func=cmd_maxflow)

    bench = sub.add_parser("bench", help="benchmark sweep over grid instances")
    bench.add_argument("--grids", help="comma-separated grid sizes, e.g. 8,16,32")
    bench.add_argument("--layers", type=int, default=1)
    bench.add_argument("--eps", type=float, default=0.1)
    bench.add_argument("--r", type=int, default=0, help="0 means r = m^(2/5)")
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--exact-cutoff", type=int, default=100_000,
                       help="run the exact oracle when m is at most this")
    bench.add_argument("--no-timing", action="store_true",
                       help="blank the wall-time column (byte-identical reruns)")
    bench.add_argument("--out", help="write CSV here (default: stdout)")
    bench.set_defaults(func=cmd_bench)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (SepflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
