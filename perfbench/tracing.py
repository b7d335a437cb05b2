"""In-memory spans and counters recorded around calls into the sepflow modules.

A span is (id, name, start, end, parent, op): ``parent`` is the id of the span
open when it began (None at top level) and ``op`` is the operation id the
benchmark set when it began.  Nothing is written while a pass runs; the
benchmark writes the spans out when the run ends.

``traced(tracer)`` patches each library function at the name its caller looks
up (for example ``sepflow.pipeline.electrical_flow``, which only flow
conversion calls, separately from ``sepflow.groupedflow.electrical_flow``) and
restores the originals on exit.  With no tracer installed the library runs
unpatched, so tracing off costs nothing.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

from sepflow.errors import SolverConvergenceError


class Tracer:
    """Spans (opened and closed in LIFO order on one thread) and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [id, name, start, end, parent, op]
        self.counters = Counter()
        self.op = None
        self._open = []

    def open(self, name):
        rec = [len(self.spans), name, None, None, self._open[-1] if self._open else None, self.op]
        self.spans.append(rec)
        self._open.append(rec[0])
        rec[2] = self.clock()
        return rec

    def close(self, rec):
        rec[3] = self.clock()
        self._open.pop()

    def count(self, name, n=1):
        self.counters[name] += n


def self_times(spans):
    """Self time per span id: its duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def span_totals(spans):
    """{name: (calls, total seconds, self seconds)} summed over all spans."""
    selfs = self_times(spans)
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, name, start, end, _, _ in spans:
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += selfs[sid]
    return {name: tuple(v) for name, v in totals.items()}


def tree_self_sum(spans, roots):
    """Sum of self times over every span whose top-level ancestor is named in ``roots``."""
    selfs = self_times(spans)
    top = {}
    total = 0.0
    for sid, name, _, _, parent, _ in spans:  # parents precede children
        top[sid] = name if parent is None else top[parent]
        if top[sid] in roots:
            total += selfs[sid]
    return total


# -- library hooks ------------------------------------------------------------------
#
# Each hook is (owner, attribute, span name or None, after).  A span name of
# None counts without timing, for calls too frequent or too deep to be layers.
# ``after(tracer, result, exc, args, kwargs, before)`` derives counters from
# what the call returned or raised.  ``after`` may be a pair (before, after);
# then ``before(tracer, args, kwargs)`` runs ahead of the call and its value
# is passed on.  Attributes a later version of the library no longer has are
# skipped, and their metrics read zero.


def _after_partition(tr, part, exc, args, kwargs, before):
    if part is not None:
        tr.count("partition.groups", part.k)
        tr.counters["partition.boundary_max"] = max(
            tr.counters["partition.boundary_max"], max(len(b) for b in part.boundaries))


def _after_build(tr, inst, exc, args, kwargs, before):
    if inst is not None:
        tr.count("pipeline.quotient_edges", inst.quotient_graph.m)
        tr.count("pipeline.graph_edges", inst.graph.m)


def _stats_arg(args, kwargs):
    """The run statistics ``_oracle_phase`` updates, wherever they are passed."""
    return next((a for a in (*args, *kwargs.values()) if hasattr(a, "iterations_outer")), None)


def _before_phase(tr, args, kwargs):
    stats = _stats_arg(args, kwargs)
    return (stats.iterations_outer, stats.width_failures) if stats is not None else (0, 0)


def _after_phase(tr, out, exc, args, kwargs, before):
    tr.count("pipeline.probes")
    if isinstance(out, tuple) and out and bool(out[0]):
        tr.count("pipeline.probe_successes")
    stats = _stats_arg(args, kwargs)
    if stats is not None:
        tr.count("pipeline.outer_iterations", stats.iterations_outer - before[0])
        tr.count("pipeline.width_failures", stats.width_failures - before[1])


def _before_grouped(tr, args, kwargs):
    return tr.counters["_inner_ef_calls"]


def _after_grouped(tr, res, exc, args, kwargs, before):
    tr.count("groupedflow.inner_iterations",
             tr.counters["_inner_ef_calls"] - before)
    if exc is not None:
        if isinstance(exc, SolverConvergenceError):
            tr.count("groupedflow.cap_hits")
    elif res.status == "fail":
        tr.count("groupedflow.fail_certificates")
    else:
        tr.count("groupedflow.flows")


def _after_inner_ef(tr, ef, exc, args, kwargs, before):
    tr.count("_inner_ef_calls")
    _after_ef(tr, ef, exc, args, kwargs, before)


def _after_ef(tr, ef, exc, args, kwargs, before):
    if ef is not None:
        tr.count("solver.refinements", ef.stats.refinements)


def _before_solve(tr, args, kwargs):
    return getattr(args[0], "_exact_direct", False)


def _after_solve(tr, out, exc, args, kwargs, before):
    if out is None:
        return
    if before:
        tr.count("solver.dense_solves")
    else:
        tr.count("solver.pcg_iterations", out[1].iterations)


def _count(name):
    return lambda tr, out, exc, args, kwargs, before: tr.count(name)


HOOKS = [
    ("sepflow.pipeline", "one_step_vertex_sparsify", "schur.one_step_vertex_sparsify", None),
    ("sepflow.pipeline", "build_sparsified_instance", "pipeline.build_sparsified_instance",
     _after_build),
    ("sepflow.pipeline", "convert_flow", "pipeline.convert_flow", None),
    ("sepflow.pipeline", "grouped_flow", "groupedflow.grouped_flow",
     (_before_grouped, _after_grouped)),
    ("sepflow.pipeline", "widest_path_bottleneck", "maxflow.widest_path_bottleneck", None),
    ("sepflow.pipeline", "_oracle_phase", None, (_before_phase, _after_phase)),
    ("sepflow.pipeline", "electrical_flow", "solver.electrical_flow.convert", _after_ef),
    ("sepflow.groupedflow", "electrical_flow", "solver.electrical_flow.inner", _after_inner_ef),
    ("sepflow.solver.SolverHandle", "__init__", None, _count("solver.handle_builds")),
    ("sepflow.solver.SolverHandle", "rebind", None, _count("solver.handle_rebinds")),
    ("sepflow.solver.SolverHandle", "solve_with_stats", None, (_before_solve, _after_solve)),
]

# Functions the benchmark calls itself; it wraps them at its own call sites.
CALLER_HOOKS = {
    "grid_r_division": ("partition.grid_r_division", _after_partition),
    "approx_max_flow": ("pipeline.approx_max_flow", None),
    "route_fixed_flow": ("pipeline.route_fixed_flow", None),
    "cut_certificate": ("pipeline.cut_certificate", None),
    "exact_max_flow_oracle": ("maxflow.exact_max_flow_oracle", None),
}


def wrap(tracer, fn, name, after):
    """``fn`` inside a span called ``name`` (none if None), followed by the ``after`` hook."""
    before = None
    if isinstance(after, tuple):
        before, after = after

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(tracer, args, kwargs) if before is not None else None
        rec = tracer.open(name) if name is not None else None
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:
            if rec is not None:
                tracer.close(rec)
            if after is not None:
                after(tracer, None, exc, args, kwargs, state)
            raise
        if rec is not None:
            tracer.close(rec)
        if after is not None:
            after(tracer, out, None, args, kwargs, state)
        return out

    return wrapper


def _resolve(path):
    """Module or class named by a dotted path, or None if it no longer exists."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


@contextlib.contextmanager
def traced(tracer, hooks=HOOKS):
    """Patch every hook for the duration of the block."""
    patched = []
    try:
        for path, attr, name, after in hooks:
            owner = _resolve(path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                continue
            setattr(owner, attr, wrap(tracer, fn, name, after))
            patched.append((owner, attr, fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


PER_LAYER_SPANS = [
    "partition.grid_r_division",
    "schur.one_step_vertex_sparsify",
    "pipeline.build_sparsified_instance",
    "pipeline.convert_flow",
    "pipeline.approx_max_flow",
    "pipeline.route_fixed_flow",
    "pipeline.cut_certificate",
    "groupedflow.grouped_flow",
    "solver.electrical_flow.inner",
    "solver.electrical_flow.convert",
    "maxflow.exact_max_flow_oracle",
    "maxflow.widest_path_bottleneck",
]

COUNTERS = [
    "partition.groups", "partition.boundary_max",
    "pipeline.probes", "pipeline.outer_iterations", "pipeline.width_failures",
    "groupedflow.inner_iterations", "groupedflow.fail_certificates", "groupedflow.cap_hits",
    "solver.pcg_iterations", "solver.dense_solves", "solver.refinements",
    "solver.handle_builds", "solver.handle_rebinds",
]


def layer_metrics(tracer):
    """Every span's calls, .s and .self_s, the counters, and the derived ratios."""
    totals = span_totals(tracer.spans)
    c = tracer.counters
    out = {}
    for name in PER_LAYER_SPANS:
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.s"] = (total, "s")
        out[f"{name}.self_s"] = (self_s, "s")
    for name in COUNTERS:
        out[name] = (c[name], "count")
    out["pipeline.quotient_edge_ratio"] = (
        c["pipeline.quotient_edges"] / c["pipeline.graph_edges"] if c["pipeline.graph_edges"] else 0.0, "1")
    out["pipeline.probe_success_fraction"] = (
        c["pipeline.probe_successes"] / c["pipeline.probes"] if c["pipeline.probes"] else 0.0, "1")
    gf_calls = totals.get("groupedflow.grouped_flow", (0,))[0]
    useful = c["groupedflow.flows"] + c["groupedflow.fail_certificates"]
    out["groupedflow.useful_fraction"] = (useful / gf_calls if gf_calls else 0.0, "1")
    return out
