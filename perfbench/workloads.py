"""Workload instances, one pass over a workload's operations, and the output checks.

An operation is one library call sequence on one instance: ``approx_max_flow``
on the max-flow workloads, ``route_fixed_flow`` followed by ``cut_certificate``
on ``overload-certificate``.  A pass sets the workload's instances up, computes
the exact max flow of each (for checking and, on the overload workload, for
the request size; never timed), then runs every operation once and checks its
output.  An operation whose output fails a check, or that raises a library
error, counts as failed; it is never dropped or retried.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

import sepflow
from sepflow import SepflowError

import tracing

EPS = 0.1
SETUP_SECONDS = 0.3  # an untraced pass repeats its set-up for this long; setup_s is the median


@dataclass(frozen=True)
class Instance:
    rows: int
    cols: int
    layers: int
    r: int
    seed: int  # capacity seed of random_capacity_grid
    factor: float | None = None  # overload request = factor * exact max flow

    @property
    def label(self):
        shape = f"{self.rows}x{self.cols}" + (f"x{self.layers}" if self.layers > 1 else "")
        extra = f" F={self.factor:g}x" if self.factor is not None else ""
        return f"{shape} r={self.r} seed={self.seed}{extra}"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "maxflow" | "overload"
    instances: tuple


WORKLOADS = {w.name: w for w in (
    Workload("grid2d-small-groups", "maxflow", (Instance(24, 24, 1, 12, seed=0),)),
    Workload("grid3d-large-groups", "maxflow", (Instance(16, 16, 3, 128, seed=0),)),
    Workload("overload-certificate", "overload", tuple(
        Instance(n, n, 1, 16, seed=j, factor=f)
        for j, (n, f) in enumerate(itertools.product((8, 12, 16, 20, 24), (2.0, 3.0, 4.0))))),
)}

# Run untimed before measuring, so that first-call costs in the process
# (lazy imports, allocator growth) do not land in the first measured pass.
WARM_UP = (
    Workload("warm-up-maxflow", "maxflow", (Instance(6, 6, 1, 12, seed=3),)),
    Workload("warm-up-overload", "overload", (Instance(8, 8, 1, 16, seed=2, factor=4.0),)),
)


@dataclass
class Prepared:
    graph: object
    s: int
    t: int
    partition: object


@dataclass
class Outcome:
    ok: bool
    reason: str  # "" when ok
    ratio: float | None  # value / exact (max flow) or exact / cut capacity (certificate)
    key: tuple  # what must repeat exactly across passes
    seconds: float  # library time of the operation


@dataclass
class PassResult:
    setup_s: list
    solve_s: float
    outcomes: list  # in instance order
    wall_s: float


def library_calls(tracer=None):
    """The library functions the benchmark calls, wrapped in spans when tracing."""
    calls = {name: getattr(sepflow, name) for name in tracing.CALLER_HOOKS}
    if tracer is not None:
        calls = {name: tracing.wrap(tracer, fn, *tracing.CALLER_HOOKS[name])
                 for name, fn in calls.items()}
    return calls


def setup_instance(inst: Instance, calls) -> Prepared:
    g = sepflow.random_capacity_grid(inst.rows, inst.cols, inst.layers, seed=inst.seed)
    s, t = 0, g.n - 1
    part = calls["grid_r_division"](inst.rows, inst.cols, inst.layers, inst.r,
                                    terminals=(s, t), graph=g)
    return Prepared(g, s, t, part)


def config_seed(seed, slot):
    """RunConfig seed of one operation, derived from the run seed."""
    state = np.random.SeedSequence([int(seed), int(slot)]).generate_state(1, dtype=np.uint64)
    return int(state[0] >> np.uint64(1))


# -- checks -----------------------------------------------------------------------


def net_outflow(g, flow):
    flow = np.asarray(flow, dtype=float)
    return (np.bincount(g.tails, weights=flow, minlength=g.n)
            - np.bincount(g.heads, weights=flow, minlength=g.n))


def check_max_flow(p: Prepared, res, exact, eps=EPS):
    """Problems with an approximate max-flow result (empty when it is correct)."""
    g = p.graph
    problems = []
    if not res.value / exact >= 1.0 - eps:
        problems.append(f"value/exact {res.value / exact:.6f} < 1 - eps")
    flow = np.asarray(res.flow, dtype=float)
    congestion = float(np.max(np.abs(flow) / g.capacity))
    if not congestion <= 1.0 + 1e-9:
        problems.append(f"max edge congestion {congestion:.12f} > 1 + 1e-9")
    net = net_outflow(g, flow)
    tol = 1e-8 * max(res.value, 1.0)
    if not abs(net[p.s] - res.value) <= tol:
        problems.append(f"net flow out of s {net[p.s]!r} != value {res.value!r}")
    inner = np.delete(net, [p.s, p.t])
    if inner.size and not np.abs(inner).max() <= tol:
        problems.append(f"flow not conserved: residual {np.abs(inner).max():.3e} at a non-terminal")
    return problems


def check_certificate(p: Prepared, result, cert, exact, eps=EPS):
    """Problems with an overload verdict (empty when it is a valid certificate)."""
    if result is not None:
        return [f"partial flow of value {result.value:.6g} in place of a verdict"]
    g = p.graph
    problems = []
    if not cert.gradient_capacity <= 1.0 + 1e-8:
        problems.append(f"gradient capacity {cert.gradient_capacity:.12f} > 1 + 1e-8")
    if not cert.demand_value >= 1.0 - 10.0 * eps:
        problems.append(f"demand value {cert.demand_value:.6f} < 1 - 10 eps")
    if cert.cut_side is None or cert.cut_capacity is None:
        return problems + ["certificate has no swept cut"]
    side = np.zeros(g.n, dtype=bool)
    side[np.asarray(cert.cut_side, dtype=np.int64)] = True
    if not side[p.s] or side[p.t]:
        problems.append("swept cut does not separate s from t")
    crossing = float(g.capacity[side[g.tails] != side[g.heads]].sum())
    if not abs(crossing - cert.cut_capacity) <= 1e-9 * max(crossing, 1.0):
        problems.append(f"cut capacity {cert.cut_capacity!r} != capacity of the cut side {crossing!r}")
    if not cert.cut_capacity >= exact * (1.0 - 1e-9):
        problems.append(f"cut capacity {cert.cut_capacity:.9g} < exact max flow {exact:.9g}")
    return problems


# -- operations and passes ------------------------------------------------------------


def run_operation(kind, inst: Instance, p: Prepared, exact, config, calls) -> Outcome:
    g, part = p.graph, p.partition
    t0 = time.perf_counter()
    try:
        if kind == "maxflow":
            res = calls["approx_max_flow"](g, part, None, p.s, p.t, EPS, config)
        else:
            res, fail_ctx = calls["route_fixed_flow"](g, part, None, p.s, p.t,
                                                      inst.factor * exact, EPS, config)
            cert = None
            if fail_ctx is not None:
                instance, fail, _ = fail_ctx
                cert = calls["cut_certificate"](instance, fail, EPS)
    except SepflowError as exc:
        seconds = time.perf_counter() - t0
        reason = f"{type(exc).__name__}: {exc}"
        return Outcome(False, reason, None, (type(exc).__name__, str(exc)), seconds)
    seconds = time.perf_counter() - t0

    if kind == "maxflow":
        problems = check_max_flow(p, res, exact)
        ratio = res.value / exact
        key = ("flow", res.value)
    else:
        problems = check_certificate(p, res, cert, exact)
        if cert is not None and cert.cut_capacity:
            ratio = exact / cert.cut_capacity
            key = ("certificate", cert.cut_capacity, cert.demand_value)
        else:
            ratio = None
            key = ("partial", res.value) if res is not None else ("no cut",)
    return Outcome(not problems, "; ".join(problems), ratio, key, seconds)


def run_pass(workload: Workload, seed, tracer=None, setup_seconds=SETUP_SECONDS) -> PassResult:
    """Set the instances up (repeatedly, for ``setup_seconds``; at least once), then run
    and check every operation once."""
    t_pass = time.perf_counter()
    calls = library_calls(tracer)
    setup_s = []
    while not setup_s or sum(setup_s) < setup_seconds:
        t0 = time.perf_counter()
        prepared = [setup_instance(inst, calls) for inst in workload.instances]
        setup_s.append(time.perf_counter() - t0)
    exact = [calls["exact_max_flow_oracle"](p.graph, p.s, p.t).value for p in prepared]

    outcomes = [None] * len(prepared)
    order = np.random.default_rng(seed).permutation(len(prepared))
    for slot in order:
        inst = workload.instances[slot]
        config = sepflow.RunConfig(eps=EPS, r=inst.r, seed=config_seed(seed, slot))
        if tracer is not None:
            tracer.op = int(slot)
        outcomes[slot] = run_operation(workload.kind, inst, prepared[slot], exact[slot],
                                       config, calls)
    if tracer is not None:
        tracer.op = None
    return PassResult(setup_s=setup_s, solve_s=sum(o.seconds for o in outcomes),
                      outcomes=outcomes, wall_s=time.perf_counter() - t_pass)
