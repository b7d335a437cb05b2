"""Flow conversion across sparsifiers, the two-level grouped-flow solver, the
flow-oracle outer loop producing the approximate maximum flow, and the cut
certificate extracted from a failed run.

Routes: a ``SparsifierPlan`` picks how each outer iteration solves its
grouped-flow problem.  The default ``"direct"`` route runs grouped flow on
G itself, at the oracle's edge weights and with the partition's groups, and
takes its averaged flow as it is: no group is eliminated, no quotient is
built and nothing is converted.  ``"one-step"`` runs the paper's two-level
scheme: grouped flow on a quotient of per-group vertex sparsifiers,
converted back group by group.  A vertex sparsifier is its group's Schur
complement kept whole (README "Notes on scale"), so every quotient group is
exact up to rounding; grouped flow scales a group's resistances by one
constant, which scales its Schur complement by the same constant, and
conversion is the harmonic extension, so the two routes are the same algorithm in exact
arithmetic (Kron reduction), and the quotient has more edges than G.
Either route hands on a ``SparsifiedInstance``; a direct one has G as its
quotient, with identity vertex map and interior extension.

A fixed-flow phase (``route_fixed_flow``) sweeps the quotient's electrical
potentials once per outer iteration, lifted into every group interior; a
swept cut below the phase's success target proves by weak duality that the
request cannot be routed, and ends the phase with a ``SweptCutFail``.
Otherwise a phase fails when grouped flow's energy test fires
(``GroupedFlowFail``).  ``cut_certificate`` turns either record into vertex
potentials and an explicit cut.

Every phase, in either entry, ends by sweeping the potentials of its last
ok grouped flow (lifted the same way, at no extra solve), and the run keeps
the least cut.  By weak duality it bounds the max flow from above:
``approx_max_flow`` probes no amount above ``cut / (1 - PROBE_SLACK eps)``,
where no probe can reach its success target, and reports the cut as
``cut_upper_bound`` with ``certified_ratio = value / cut``.

Vertex id spaces: the original graph uses global ids; each group's sparsifier
lives on its (global) boundary vertex set; the quotient graph concatenates all
sparsifiers over the union of boundaries, with ``quotient_vertices`` mapping
quotient-local ids back to global ones.

Per-group elimination (one-step route only): a partition's
``GroupTopology`` is built on first use and cached on the ``Partition``.
Each outer iteration then factors every group once (``GroupElimination``).
That one factor gives the group's sparsifier (its exact Schur complement,
cleaned and floored), the conversion of quotient flows back to the group
and the interior extension of the cut certificate.  The group layout is
``schur``'s alone: the sparsifiers go to ``GroupTopology.quotient``, which
caches the quotient's edge set so an iteration refreshes only its weights,
and conversion hands ``route_residual`` a residual keyed by group and vertex.

Every grouped-flow electrical flow gets its solve from the run's one
``LaggedFactor``.  Where the Laplacian grouped flow runs on (G's, or the
quotient's) has a reverse Cuthill-McKee band of at most 64, as every grid of
the benchmark has, each flow gets a fresh, exact banded Cholesky factor.
Where the band is wider, one sparse LU factor preconditions PCG across inner
iterations, outer iterations and probes alike, and is refreshed when a
flow's PCG slows down or the quotient's edge pattern is rebuilt.
"""

from __future__ import annotations

import functools
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .errors import GraphError, SolverConvergenceError
from .graphs import (WeightedGraph, edge_congestions, edge_group_ids, group_congestions,
                     group_ids, st_demand, zero_sum_demand)
from .groupedflow import GroupedFlowFail, GroupedFlowProblem, GroupedFlowResult, grouped_flow
from .maxflow import widest_path_bottleneck
from .partition import Partition
from .schur import GroupElimination, GroupTopology
from .solver import SOLVER_COUNTERS, LaggedFactor, SolverHandle


# -- oracle edge weights -------------------------------------------------------


def oracle_edge_weights(w_oracle, capacity, groups, eps) -> np.ndarray:
    """Grouped-flow edge weights derived from oracle weights:

    w(e) = (1 - eps/2) / u(e)^2 * (w_oracle(e) / w_oracle(S_i) + eps / (4 |S_i|)).

    ``groups`` is a list of edge-id arrays that covers every edge exactly
    once, or the group id of every edge (``edge_group_ids``).
    """
    values = np.asarray(w_oracle, dtype=float)
    if eps >= 0.5 or eps <= 0:
        raise GraphError("oracle weights require 0 < eps < 1/2")
    gid = edge_group_ids(groups, values.size)
    return _weight_kernel(gid, np.asarray(capacity, dtype=float), eps)(values)


def _weight_kernel(gid, capacity, eps):
    """``w_oracle -> oracle_edge_weights(w_oracle, capacity, gid, eps)``, with
    the terms that do not depend on ``w_oracle`` made once:
    ``eps / (4 |S_i|)`` gathered per edge and ``(1 - eps/2) / u^2``."""
    floor = (eps / (4.0 * np.bincount(gid)))[gid]
    scale = (1.0 - eps / 2.0) / capacity**2

    def weights(w_oracle):
        w = w_oracle / np.bincount(gid, weights=w_oracle)[gid] + floor
        w *= scale
        return w

    return weights


# -- run statistics ----------------------------------------------------------------


STAGES = ("sparsify", "quotient_assemble", "grouped_flow", "convert", "oracle_update",
          "certificate")


@dataclass
class MaxFlowRunStats:
    """Counters and per-stage wall times (seconds) of one run.

    ``route`` is the ``SparsifierPlan`` method the run took.  ``timings``
    holds one entry per name in ``STAGES`` plus ``total``; the stages add up
    to ``total`` up to loop bookkeeping (the direct route spends nothing in
    ``sparsify``, ``quotient_assemble`` and ``convert``).  ``sparsifier_builds``
    counts, over all outer iterations, the groups whose sparsifier was built.
    ``inner_failures`` counts inner solves that raised ``SolverConvergenceError``
    (grouped flow at its iteration cap) and ended a probe; ``cut_verdicts``
    counts fixed-flow phases decided by a swept cut.
    ``electrical_flows``, ``factorizations``, ``rebinds`` and
    ``pcg_iterations`` are the run's ``LaggedFactor`` counters: grouped flow's
    electrical flows (on G or on the quotient), the fresh factors that
    served them and the flows solved by PCG on the carried factor, and
    those flows' PCG iterations.
    ``iterations_inner_total`` counts one inner iteration per electrical
    flow, including those of a probe that a ``SolverConvergenceError`` ended.
    ``trace_rows`` holds ``(probe, outer_iteration, flow_target, best_value,
    max_edge_congestion)`` for every outer iteration, however it ended, with
    None for a best value the phase does not have yet or an iterate the
    iteration did not produce; probes count from 1, a fixed-flow run's one
    phase is probe 1.
    """

    route: str = ""
    iterations_outer: int = 0
    probes: int = 0
    width_failures: int = 0
    sparsifier_builds: int = 0
    topology_builds: int = 0
    inner_failures: int = 0
    cut_verdicts: int = 0
    electrical_flows: int = 0
    factorizations: int = 0
    rebinds: int = 0
    pcg_iterations: int = 0
    timings: dict = field(default_factory=lambda: dict.fromkeys(STAGES + ("total",), 0.0))
    trace_rows: list = field(default_factory=list)

    @property
    def iterations_inner_total(self):
        return self.electrical_flows

    def counters(self):
        return {name: getattr(self, name) for name in (
            "route", "iterations_outer", "iterations_inner_total", "probes", "width_failures",
            "sparsifier_builds", "topology_builds", "inner_failures", "cut_verdicts")
            + SOLVER_COUNTERS}


class _stage:
    """Add the block's wall time to ``stats.timings[name]`` (no-op without
    stats); a plain class, so little of its own time falls outside the block."""

    def __init__(self, stats, name):
        self.stats, self.name = stats, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        if self.stats is not None:
            self.stats.timings[self.name] += time.perf_counter() - self.t0


# -- sparsified instances ---------------------------------------------------------


@dataclass
class SparsifierPlan:
    """How an outer iteration solves its grouped-flow problem.

    ``"direct"`` (the default) runs grouped flow on G itself with the
    partition's groups.  ``"one-step"`` runs it on a quotient of per-group
    vertex sparsifiers, built by one batched elimination of every group, and
    converts the flow back.  The quotient is an exact reformulation of G
    with more edges (see the module docstring), so the one-step route is the
    paper's scheme itself and the exact differential reference of the direct
    route.
    """

    method: str = "direct"

    def __post_init__(self):
        if self.method not in ("direct", "one-step"):
            raise GraphError(
                f"sparsifier method must be 'direct' or 'one-step', not {self.method!r}")


@dataclass
class SparsifiedInstance:
    """Original graph + partition with per-group sparsifiers assembled into a
    quotient; on the direct route the quotient is G itself at ``weights``,
    with the partition's groups and ids and no ``elimination``.  A quotient's
    structure, groups and group ids are made together (from one cached
    ``GroupTopology.quotient`` pattern, or G and the partition), so two
    quotients of one structure share all three."""

    graph: WeightedGraph
    partition: Partition
    weights: np.ndarray  # grouped-flow weights on original edges
    quotient_graph: WeightedGraph
    quotient_groups: list
    quotient_vertices: np.ndarray  # quotient-local -> global id
    elimination: GroupElimination | None  # the groups factored at ``weights``; None if direct
    quotient_group_of_edge: np.ndarray  # each quotient edge's index in ``quotient_groups``
    stats: MaxFlowRunStats | None = None  # the run that built it, if any

    def lift(self, phi_q):
        """Quotient potentials ``phi_q`` on every graph vertex: every group
        interior gets the harmonic extension of its boundary values (on a
        direct instance, ``phi_q`` as it is)."""
        if self.elimination is None:
            return np.asarray(phi_q, dtype=float)  # the quotient is G
        phi = np.zeros(self.graph.n)
        phi[self.quotient_vertices] = phi_q
        return self.elimination.extend(phi)

    def quotient_demand(self, d):
        d = zero_sum_demand(d, self.graph.n)
        if self.elimination is None:
            return d  # the quotient is G
        interior = np.setdiff1d(np.flatnonzero(d), self.quotient_vertices)
        if interior.size:
            raise GraphError(f"demand is nonzero at interior vertex {int(interior[0])}")
        return d[self.quotient_vertices]


def _group_topology(part: Partition, g: WeightedGraph, stats=None) -> GroupTopology:
    cached = part._topology
    topo = part.topology(g)
    if stats is not None and topo is not cached:
        stats.topology_builds += 1
    return topo


@functools.lru_cache(maxsize=8)
def _identity(n):
    """Read-only ``0..n-1``, the vertex map of every direct instance on n vertices."""
    return np.lib.stride_tricks.as_strided(np.arange(n), writeable=False)


def _direct_instance(g: WeightedGraph, part: Partition, weights,
                     stats: MaxFlowRunStats | None = None) -> SparsifiedInstance:
    """A phase's grouped-flow problem on G itself: G at ``weights`` with the
    partition's own groups and group ids, identity vertex map, nothing
    eliminated."""
    return SparsifiedInstance(graph=g, partition=part, weights=weights,
                              quotient_graph=g.reweighted(weights), quotient_groups=part.groups,
                              quotient_vertices=_identity(g.n), elimination=None,
                              quotient_group_of_edge=part.group_of_edge, stats=stats)


def build_sparsified_instance(g: WeightedGraph, part: Partition, weights, eps, *,
                              stats: MaxFlowRunStats | None = None) -> SparsifiedInstance:
    """The one-step route's instance: every group sparsified at error ``eps``
    (``0 < eps < 1/2``) by one batched elimination at grouped-flow
    ``weights``, and the quotient assembled.  Groups must be connected with
    two or more boundary vertices (checked before any factor).  The two
    steps add to ``stats``' ``sparsify`` and ``quotient_assemble`` timings."""
    with _stage(stats, "sparsify"):
        if not (0 < eps < 0.5):
            raise GraphError("build_sparsified_instance requires 0 < eps < 1/2")
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (g.m,) or np.any(weights <= 0):
            raise GraphError("need one positive weight per edge")
        topo = _group_topology(part, g, stats)
        topo.require_sparsifiable()
        elim = GroupElimination(topo, 1.0 / weights)
        cond = elim.sparsify(eps)
        if stats is not None:
            stats.sparsifier_builds += part.k

    with _stage(stats, "quotient_assemble"):
        quotient, groups, quotient_group_of_edge, vertices = topo.quotient(cond)
        return SparsifiedInstance(graph=g, partition=part, weights=weights,
                                  quotient_graph=quotient, quotient_groups=groups,
                                  quotient_vertices=vertices, elimination=elim,
                                  quotient_group_of_edge=quotient_group_of_edge, stats=stats)


# -- flow conversion -------------------------------------------------------------


def convert_flow(src_graph: WeightedGraph, src_groups, dst_graph: WeightedGraph, dst_groups,
                 f_src, eps, *, src_vertex_map=None, elimination: GroupElimination | None = None):
    """Re-route a flow group-by-group through local electrical routings.

    For each group the boundary residual of the source flow is routed
    electrically in the destination group (delta = eps), which inflates each
    group congestion by at most ``1 + 3 eps`` when the group Schur complements
    are (1 +- eps)-close.  Boundary demands are preserved exactly; interior
    residuals are zero.

    ``src_vertex_map`` sends source vertices to destination vertex ids
    (identity when None).  The destination groups must be disjoint.
    ``elimination`` supplies them already factored (the pipeline passes the
    one its sparsifiers came from); without it they are factored here at
    ``dst_graph.weight``, with the vertices the source group also touches as
    boundary.  ``GroupElimination.route_residual`` places and checks the
    residual.
    """
    if len(src_groups) != len(dst_groups):
        raise GraphError("group counts differ")
    k, n = len(dst_groups), dst_graph.n
    f_src = np.asarray(f_src, dtype=float)
    smap = np.arange(src_graph.n) if src_vertex_map is None else np.asarray(src_vertex_map)
    if smap.size and (smap.min() < 0 or smap.max() >= n):
        raise GraphError(f"source vertex map has an entry outside 0..{n - 1}")

    # residual of the source flow on each group, keyed by (group, destination vertex)
    s_edges, s_owner = group_ids(src_groups)
    fe = f_src[s_edges]
    keys, inverse = np.unique(np.concatenate([s_owner * n + smap[src_graph.tails[s_edges]],
                                              s_owner * n + smap[src_graph.heads[s_edges]]]),
                              return_inverse=True)
    res = np.bincount(inverse, weights=np.concatenate([fe, -fe]), minlength=keys.size)

    if elimination is None:
        d_edges, d_owner = group_ids(dst_groups)
        b_grp, b_vert = np.divmod(np.intersect1d(keys, np.concatenate([
            d_owner * n + dst_graph.tails[d_edges], d_owner * n + dst_graph.heads[d_edges]])), n)
        boundaries = np.split(b_vert, np.searchsorted(b_grp, np.arange(1, k)))
        elimination = GroupElimination(GroupTopology(dst_graph, dst_groups, boundaries),
                                       1.0 / dst_graph.weight)
    return elimination.route_residual(keys, res, eps)


# -- two-level grouped flow --------------------------------------------------------


def approx_grouped_flow(instance: SparsifiedInstance, d, eps, *, max_iterations=200,
                        lag: LaggedFactor | None = None) -> GroupedFlowResult:
    """Grouped flow on the quotient graph at eps/2, converted back to the
    original graph at eps/10.  On a direct instance grouped flow's result is
    returned as it is; on a one-step instance an ok result carries the
    converted flow and that flow's ``diagnostics.max_group_congestion`` at
    ``instance.weights``.  ``max_iterations`` and ``lag`` are passed on to
    ``grouped_flow``, which returns once its running average meets its
    contract."""
    with _stage(instance.stats, "grouped_flow"):
        problem = _grouped_problem(instance, d, eps / 2.0)
        res = grouped_flow(problem, max_iterations=max_iterations, lag=lag)
    return _converted(instance, res, eps)


def _grouped_problem(instance: SparsifiedInstance, d, eps, previous=None):
    """The grouped-flow problem of ``instance`` for the global demand ``d``.

    ``previous`` is the problem of the same phase's last outer iteration
    (same demand and ``eps``).  Where the quotient kept its structure, and so
    its groups (``SparsifiedInstance``), it moves to this instance's quotient
    as it is: its demand and groups passed their checks when it was made.
    """
    graph = instance.quotient_graph
    if previous is not None and previous.graph._structure is graph._structure:
        return previous.with_graph(graph)
    return GroupedFlowProblem(graph, instance.quotient_groups, instance.quotient_demand(d), eps,
                              group_of_edge=instance.quotient_group_of_edge)


def _converted(instance: SparsifiedInstance, res: GroupedFlowResult, eps) -> GroupedFlowResult:
    """Grouped flow's ``res`` on ``instance``, an ok one-step flow converted
    back to G at ``eps / 10`` (``approx_grouped_flow``)."""
    if res.failed or instance.elimination is None:
        return res
    with _stage(instance.stats, "convert"):
        res.flow = convert_flow(instance.quotient_graph, instance.quotient_groups,
                                instance.graph, instance.partition.groups, res.flow,
                                eps / 10.0, src_vertex_map=instance.quotient_vertices,
                                elimination=instance.elimination)
        res.diagnostics.max_group_congestion = float(group_congestions(
            res.flow, instance.weights, instance.partition.group_of_edge).max(initial=0.0))
    return res


# -- approximate max flow -----------------------------------------------------------


@dataclass
class ApproxMaxFlowResult:
    """A run's feasible flow of ``value``, with the least s-t cut its phases
    swept (``cut_upper_bound``, inf when no sweep separated s from t).  By
    weak duality the max flow lies in ``[value, cut_upper_bound]``, so
    ``certified_ratio = value / cut_upper_bound`` is a lower bound on the
    flow's ratio to the max flow that needs no exact oracle."""

    value: float
    flow: np.ndarray
    eps: float
    max_edge_congestion: float
    per_group_congestion_max: float
    stats: MaxFlowRunStats
    seed: int = 0
    cut_upper_bound: float = math.inf

    @property
    def certified_ratio(self):
        return self.value / self.cut_upper_bound


@dataclass
class SweptCutFail:
    """A swept cut below a fixed-flow phase's success target.

    Its capacity is below the requested amount, so by weak duality no flow
    of that amount exists.
    """

    cut_side: np.ndarray  # sorted global ids on the source side
    cut_capacity: float
    demand: np.ndarray  # the requested s-t demand, on global ids


def _lifted_potentials(inst: SparsifiedInstance, resistances, d_q):
    """Potentials of the quotient demand ``d_q`` on the quotient at
    ``resistances``, by one exact solve, lifted harmonically into every group
    interior (on the direct route, G's own potentials)."""
    return inst.lift(SolverHandle(inst.quotient_graph, 1.0 / resistances).solve(d_q))


# Constants of the outer oracle loop and of its inner grouped-flow calls.
C_W = 10.0  # theoretical outer width C_W sqrt(r / eps)
PROBE_SLACK = 1.0 / 3.0  # a phase succeeds at value >= (1 - PROBE_SLACK eps) F
UPDATE_WIDTH_FLOOR = 1.2  # adaptive update width = max(iterate congestion, floor)
OUTER_STAGNATION_LIMIT = 6  # outer iterations without a better flow before a phase stops
MAX_INNER_ITERATIONS = 80  # inner cap floor
INNER_BUDGET_UNITS = 200_000  # ~ inner iterations * quotient size per grouped-flow call
INNER_ITERATION_CEILING = 4000  # inner cap ceiling


def success_target(flow_amount, eps):
    """Value at which a fixed-flow phase counts ``flow_amount`` as routed:
    ``(1 - PROBE_SLACK eps) F``."""
    return (1.0 - PROBE_SLACK * eps) * flow_amount


class _Run:
    """One ``approx_max_flow`` or ``route_fixed_flow`` call: its inputs, the
    state its phases share, and the search's best flow.

    The constructor runs every check the two entries share before any work:
    ``config`` (the default one when None) at ``eps``, ``g`` connected,
    ``s`` and ``t`` distinct vertices on the partition's boundaries, and the
    partition's ``n`` and ``m`` those of ``g``.  The grouped-flow weights of
    every outer iteration come from ``edge_weights``.  ``w_oracle`` holds
    the oracle weights the last phase ended with (None before the first),
    from which the next phase starts.  ``cut_bound`` is the least s-t cut
    swept so far (``sweep_phase``), an upper bound on the max flow.
    """

    def __init__(self, g: WeightedGraph, part: Partition, plan: SparsifierPlan | None,
                 s, t, eps, config: RunConfig | None, what):
        if config is None:
            config = RunConfig(eps=eps)
        elif config.eps != eps:
            raise GraphError(f"eps = {eps!r} but config.eps = {config.eps!r}; pass equal values")
        g.require_connected(what)
        if s == t:
            raise GraphError("source and sink coincide")
        for v, name in ((s, "s"), (t, "t")):
            if not (0 <= v < part.is_boundary.size and part.is_boundary[v]):
                raise GraphError(f"{name} = {v} is not a boundary vertex of the partition")
        if (part.n, part.m) != (g.n, g.m):
            raise GraphError(f"the partition is of a graph with n = {part.n}, m = {part.m};"
                             f" this graph has n = {g.n}, m = {g.m}")
        self.g, self.part, self.plan = g, part, plan or SparsifierPlan()
        self.s, self.t, self.eps, self.config = s, t, eps, config
        self.stats = MaxFlowRunStats(route=self.plan.method)
        self.lag = LaggedFactor()
        self.edge_weights = _weight_kernel(part.group_of_edge, g.capacity, eps)
        self.w_oracle, self.best_value, self.best_flow = None, 0.0, None
        self.cut_bound = math.inf

    def probe(self, flow_amount):
        """One search phase at ``flow_amount``; keeps the best flow, returns its success."""
        self.stats.probes += 1
        ok, value, flow, _ = _oracle_phase(self, self.stats, flow_amount)
        if flow is not None and value > self.best_value:
            self.best_value, self.best_flow = value, flow
        return ok

    def probe_cap(self):
        """The largest amount whose success target ``cut_bound`` allows; no
        probe above it can succeed."""
        return self.cut_bound / (1.0 - PROBE_SLACK * self.eps)

    def sweep_phase(self, inst: SparsifiedInstance, phi_q):
        """Lower ``cut_bound`` to the sweep of quotient potentials ``phi_q``
        of ``inst``, lifted into every group interior."""
        _, cut = sweep_cut(self.g, inst.lift(phi_q), self.s, self.t)
        self.cut_bound = min(self.cut_bound, cut)

    def result(self, value, flow) -> ApproxMaxFlowResult:
        """The result for a feasible ``flow`` of ``value``; no flow at all
        raises ``SolverConvergenceError``."""
        if flow is None:
            raise SolverConvergenceError("no probe produced a flow")
        g, gid = self.g, self.part.group_of_edge
        w = self.edge_weights(np.ones(g.m))
        return ApproxMaxFlowResult(
            value=value, flow=flow, eps=self.eps,
            max_edge_congestion=float(edge_congestions(flow, g.capacity).max(initial=0.0)),
            per_group_congestion_max=float(group_congestions(flow, w, gid).max(initial=0.0)),
            stats=self.stats, seed=self.config.seed, cut_upper_bound=self.cut_bound)


def _oracle_phase(run: _Run, stats: MaxFlowRunStats, flow_amount, sweep=False):
    """One fixed-F multiplicative-weights phase of ``run`` (``stats`` is ``run.stats``).

    Returns (success, best_value, best_flow, fail).  It starts from the
    oracle weights ``run.w_oracle`` and leaves its last ones there.  The update
    width is the iterate's own max congestion (floored), which converges in
    practical iteration counts; the theoretical width C_W sqrt(r/eps) is
    still enforced as the output check on every returned flow.

    With ``sweep``, every outer iteration first sweeps the lifted potentials
    of one exact solve of the phase's demand on the quotient at its
    grouped-flow weights; a cut below the success target ends the phase with
    a ``SweptCutFail``, since no flow of ``flow_amount`` exists.

    The run's plan picks the route: a direct phase runs grouped flow on G at
    the oracle's weights, a one-step phase on the quotient of sparsifiers
    built at those weights.  The phase's demand and groups are checked when
    its first grouped-flow problem is made; later outer iterations move that
    problem to their new weights (``_grouped_problem``), and check again
    only after a one-step quotient changed its edge pattern.

    Every outer iteration, however it ends, appends one row to
    ``stats.trace_rows``.  At the end, the potentials of the last electrical
    flow of the last outer iteration whose grouped flow was ok are swept
    (``_Run.sweep_phase``) to lower the run's cut bound; one sweep per
    phase, since the bound rarely moves within one.

    The run's ``LaggedFactor`` counters are copied into ``stats``.  An inner
    ``SolverConvergenceError`` ends the phase as an unproductive probe
    (counted in ``inner_failures``; its electrical flows still count); a
    ``ValidationError`` is a broken invariant and propagates, as does the
    ``GraphError`` of a sweep whose terminals tie.
    """
    g, part, eps, direct = run.g, run.part, run.eps, run.plan.method == "direct"
    with _stage(stats, "oracle_update"):
        rho_outer = math.ceil(C_W * math.sqrt(part.r) / math.sqrt(eps))
        n_outer = max(int(math.ceil(20.0 * rho_outer * math.log(max(g.m, 2)) * eps**-2)), 1)
        limit = min(n_outer, run.config.max_outer_iterations)
        target = success_target(flow_amount, eps)
        w_oracle = np.ones(g.m) if run.w_oracle is None else run.w_oracle
        w = run.edge_weights(w_oracle)
        d = st_demand(g.n, run.s, run.t, flow_amount)
        flow_sum = np.zeros(g.m)
    accepted = stagnant = 0
    best_value, best_flow, fail, last_ok, problem = -np.inf, None, None, None, None
    for it in range(1, limit + 1):
        stats.iterations_outer += 1
        mc = None
        try:
            if not direct:
                inst = build_sparsified_instance(g, part, w, eps / 10.0, stats=stats)
            # one block from instance to result: less time falls between stages
            with _stage(stats, "grouped_flow"):
                if direct:
                    inst = _direct_instance(g, part, w, stats)
                if sweep:
                    # grouped flow's first iterate routes d under the quotient's
                    # weights times one constant: the ordering of its first flow
                    phi = _lifted_potentials(inst, inst.quotient_graph.weight,
                                             inst.quotient_demand(d))
                    side, cut = sweep_cut(g, phi, run.s, run.t)
                    if cut < target:
                        stats.cut_verdicts += 1
                        fail = (inst, SweptCutFail(side, cut, d), d)
                        break
                problem = _grouped_problem(inst, d, eps / 20.0, problem)
                qsize = inst.quotient_graph.m + inst.quotient_graph.n
                inner_cap = min(max(MAX_INNER_ITERATIONS, INNER_BUDGET_UNITS // max(qsize, 1)),
                                INNER_ITERATION_CEILING)
                try:
                    res = grouped_flow(problem, max_iterations=inner_cap, lag=run.lag)
                except SolverConvergenceError:
                    stats.inner_failures += 1
                    break  # the inner solver could not certify this F; unproductive probe
            res = _converted(inst, res, eps / 10.0)
            with _stage(stats, "oracle_update"):
                if res.failed:
                    fail = (inst, res.fail, d)
                    break
                last_ok = (inst, res.potentials)
                f = res.flow
                cong = edge_congestions(f, g.capacity)
                mc = float(cong.max())
                # oracle output contract checks (weighted average and width conditions)
                wsum = float(w_oracle @ cong)
                if (wsum > (1.0 + eps) * w_oracle.sum() * (1.0 + 1e-6)
                        or mc > rho_outer * (1.0 + 1e-6)):
                    stats.width_failures += 1
                    break
                improved = False
                if mc > 0 and flow_amount / mc > best_value:
                    best_value, best_flow = flow_amount / mc, f / mc
                    improved = True
                flow_sum += f
                accepted += 1
                avg = flow_sum / accepted
                amc = float(edge_congestions(avg, g.capacity).max())
                if amc > 0 and flow_amount / amc > best_value:
                    best_value, best_flow = flow_amount / amc, avg / amc
                    improved = True
                if best_value >= target:
                    break
                stagnant = 0 if improved else stagnant + 1
                if stagnant >= OUTER_STAGNATION_LIMIT:
                    break
                w_oracle = w_oracle * (1.0 + (eps / max(mc, UPDATE_WIDTH_FLOOR)) * cong)
                w = run.edge_weights(w_oracle)  # the next iteration's
        finally:  # one trace row per outer iteration, however it ends
            stats.trace_rows.append((stats.probes, it, flow_amount,
                                     None if best_flow is None else best_value, mc))
    with _stage(stats, "oracle_update"):
        if last_ok is not None:
            run.sweep_phase(*last_ok)
        for name, value in run.lag.counters().items():
            setattr(stats, name, value)
        run.w_oracle = w_oracle
    return best_value >= target, best_value, best_flow, fail


def approx_max_flow(g: WeightedGraph, part: Partition, plan: SparsifierPlan | None,
                    s: int, t: int, eps: float,
                    config: RunConfig | None = None) -> ApproxMaxFlowResult:
    """(1 - O(eps))-approximate maximum s-t flow via the grouped-flow oracle.

    The flow amount F is located by doubling plus binary search over oracle
    success; every candidate flow is made strictly feasible by dividing by its
    maximum edge congestion, and the best feasible value seen is returned.
    After every probe the search's upper end is capped at
    ``cut / (1 - PROBE_SLACK eps)``, for the least cut the phases swept so
    far: a probe above it cannot succeed.  A search that ends with its flow
    below ``1 - eps`` times that cut (uncertified) spends the probes it has
    left at the cap, as long as each raises the best value; they cannot
    succeed, but they carry the oracle weights on.  The result carries the
    cut as ``cut_upper_bound``.
    A search in which no probe produced a flow raises
    ``SolverConvergenceError``.  A ``config`` at another ``eps``, or an
    ``s`` or ``t`` that is not a vertex on the partition's boundaries (or
    ``s == t``), raises ``GraphError`` before any work.
    """
    run = _Run(g, part, plan, s, t, eps, config, "approximate max flow")
    u_ratio = float(g.capacity.max() / g.capacity.min())
    if u_ratio > g.m / eps:
        warnings.warn(f"capacity ratio U(u) = {u_ratio:.3e} exceeds m/eps = {g.m / eps:.3e}",
                      stacklevel=2)
    stats, max_probes = run.stats, run.config.max_probes
    with _stage(stats, "total"):
        with _stage(stats, "oracle_update"):
            f_lo = widest_path_bottleneck(g, s, t)
            f_hi = float(g.capacity[(g.tails == s) | (g.heads == s)].sum())
        # doubling phase from the widest-path bottleneck, then binary refinement
        lo, hi = f_lo, f_hi

        def probe(flow_amount):
            nonlocal hi
            ok = run.probe(flow_amount)
            hi = min(hi, run.probe_cap())
            return ok

        if probe(f_lo):
            while lo < hi * 0.999 and stats.probes < max_probes:
                nxt = min(lo * 2.0, hi * 0.999)
                if probe(nxt):
                    lo = nxt
                else:
                    hi = min(hi, nxt)
                    break
        else:
            lo = 0.0
        resolution = max(eps * f_lo, 1e-12)
        while hi - lo > resolution and stats.probes < max_probes:
            mid = 0.5 * (lo + hi)
            if probe(mid):
                lo = mid
            else:
                hi = min(hi, mid)
        # an uncertified search spends its last probes at the cap: they cannot
        # succeed, but carry the oracle weights on and may raise the best flow
        while (math.isfinite(run.cut_bound) and run.best_value / run.cut_bound < 1.0 - eps
               and stats.probes < max_probes):
            before = run.best_value
            run.probe(run.probe_cap())
            if run.best_value <= before:
                break
    return run.result(run.best_value, run.best_flow)


def route_fixed_flow(g: WeightedGraph, part: Partition, plan: SparsifierPlan | None,
                     s: int, t: int, flow_amount: float, eps: float,
                     config: RunConfig | None = None):
    """Route a fixed amount; returns (result | None, verdict | None).

    ``verdict`` is ``(instance, fail, demand)``, ready for
    ``cut_certificate``.  ``fail`` is a ``SweptCutFail`` when a swept cut
    below ``(1 - PROBE_SLACK eps) F`` decided the request (no request that
    could succeed is decided this way), or the ``GroupedFlowFail`` of an
    energy test that fired.  Otherwise ``result`` carries the best feasible
    flow the phase found.  Its value reaches ``success_target(flow_amount,
    eps)`` when the phase routed the request; below that the phase
    neither routed it nor proved it infeasible, and the result is partial
    (the CLI reports it as ``"partial"`` and exits 3).  A phase that found
    no flow at all raises ``SolverConvergenceError``.  The terminals follow
    ``approx_max_flow``'s rule on either route: an ``s`` or ``t`` that is
    not a vertex on the partition's boundaries, or ``s == t``, raises
    ``GraphError`` before any work, as do an amount that is not finite and
    positive and a ``config`` at another ``eps``; a disconnected ``g``
    raises ``DisconnectedGraphError``.
    """
    if not (math.isfinite(flow_amount) and flow_amount > 0):
        raise GraphError(f"flow amount must be finite and positive, not {flow_amount!r}")
    run = _Run(g, part, plan, s, t, eps, config, "fixed-flow routing")
    run.stats.probes = 1
    with _stage(run.stats, "total"):
        _, value, flow, fail = _oracle_phase(run, run.stats, flow_amount, sweep=True)
    return (None, fail) if fail is not None else (run.result(value, flow), None)


# -- cut certificate ------------------------------------------------------------------


@dataclass
class CutCertificate:
    """Vertex potentials certifying infeasibility, plus an optional swept cut."""

    potentials: np.ndarray
    gradient_capacity: float  # sum_e u(e) |phi_u - phi_v|  (<= 1)
    demand_value: float  # d^T phi  (>= 1 - 10 eps)
    cut_side: np.ndarray | None = None
    cut_capacity: float | None = None


def cut_certificate(instance: SparsifiedInstance, fail: GroupedFlowFail | SweptCutFail,
                    eps) -> CutCertificate:
    """Vertex potentials certifying that a failed phase's demand cannot be
    routed, with an explicit swept cut.

    A ``SweptCutFail`` gives the cut's indicator scaled by ``1 / cut``, so
    the gradient capacity is 1 and the demand value is ``F / cut > 1``; its
    own cut comes with it.  A ``GroupedFlowFail`` gives the failing quotient
    potentials, extended harmonically into every group interior and scaled
    by ``1 / max((1 + 10 eps) mu, sum u |grad phi|)``, then swept for a cut
    (none when the demand lacks a positive or a negative entry).

    Its wall time is added to the building run's ``certificate`` and
    ``total`` timings.
    """
    t_start = time.perf_counter()
    g = instance.graph
    if isinstance(fail, SweptCutFail):
        d, side, cut = fail.demand, fail.cut_side, fail.cut_capacity
        phi = np.zeros(g.n)
        phi[side] = 1.0
        scale = cut
    else:
        d, side, cut = np.zeros(g.n), None, None
        d[instance.quotient_vertices] = fail.demand  # fail.demand lives on the quotient
        # exact potentials of the failing electrical problem on the quotient; the
        # failing resistances (w_grp(i) + (eps/k) mu) * weights scale each group
        # by one constant, which leaves its harmonic extension unchanged
        phi = _lifted_potentials(instance, fail.resistances, fail.demand)
        scale = max((1.0 + 10.0 * eps) * fail.mu,
                    float(g.capacity @ np.abs(phi[g.tails] - phi[g.heads])))
    phi = phi / scale
    if side is None and (d > 0).any() and (d < 0).any():
        side, cut = sweep_cut(g, phi, int((d > 0).argmax()), int((d < 0).argmax()))
    cert = CutCertificate(potentials=phi,
                          gradient_capacity=float(g.capacity @ np.abs(phi[g.tails] - phi[g.heads])),
                          demand_value=float(d @ phi), cut_side=side, cut_capacity=cut)
    if instance.stats is not None:
        elapsed = time.perf_counter() - t_start
        instance.stats.timings["certificate"] += elapsed
        instance.stats.timings["total"] += elapsed
    return cert


def sweep_cut(g: WeightedGraph, phi, s, t):
    """Best threshold cut over the potential ordering that separates s from t.

    Vertices are ranked by decreasing potential (increasing when that puts t
    before s; ties keep vertex order).  The cut after rank ``p`` is crossed by
    every edge whose endpoint ranks span ``p``, so one difference array over
    the edges' rank intervals and a cumulative sum give every prefix's cut.
    Returns the sorted source side of the first smallest cut between s and t
    and its capacity, summed over the edges that cross it.  Raises
    ``GraphError`` when s and t have equal potentials and t ranks first,
    since then no threshold cut separates them.
    """
    rank = np.empty(g.n, dtype=np.int64)
    rank[(-phi).argsort(kind="stable")] = np.arange(g.n)
    if rank[s] > rank[t]:
        rank[phi.argsort(kind="stable")] = np.arange(g.n)
        if rank[s] > rank[t]:
            raise GraphError("s and t have equal potentials; no threshold cut separates them")
    rt, rh = rank[g.tails], rank[g.heads]
    spans = (np.bincount(np.minimum(rt, rh), weights=g.capacity, minlength=g.n)
             - np.bincount(np.maximum(rt, rh), weights=g.capacity, minlength=g.n))
    pos = rank[s] + int(spans.cumsum()[rank[s]:rank[t]].argmin())
    side = rank <= pos
    cut = float(g.capacity[side[g.tails] != side[g.heads]].sum())
    return side.nonzero()[0], cut
