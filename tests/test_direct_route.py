"""Differential tests: the default direct route (grouped flow on G itself)
against the two-level one-step route (grouped flow on the quotient of
per-group sparsifiers, converted back).

Each quotient group is its group's exact Schur complement plus the one-step
route's ``lam_min / n_b^2`` weight floor, so the two routes run the same
iterations and their values differ only by that floor's effect (at most
1.8e-6 relative on these instances; with the floor removed they agree to
about 3e-13).
"""

import numpy as np
import pytest

from sepflow import (GroupedFlowFail, GroupedFlowProblem, RunConfig,
                     SparsifierPlan, SweptCutFail, approx_grouped_flow, approx_max_flow,
                     cut_certificate, exact_max_flow_oracle, grid_r_division, grouped_flow,
                     oracle_edge_weights,
                     partition_from_groups, random_capacity_grid, route_fixed_flow, st_demand)
from sepflow import pipeline

EPS = 0.1
VALUE_RTOL = 1e-5  # the one-step weight floor moves 24x24 r=12 by 1.8e-6

INSTANCES = [  # rows, cols, layers, r (None: one group), capacity seed
    (24, 24, 1, 12, 0),
    (16, 16, 3, 128, 0),
    (32, 32, 1, 32, 1),
    (12, 12, 4, 96, 1),
    (12, 12, 1, None, 5),
]


def _instance(rows, cols, layers, r, seed):
    g = random_capacity_grid(rows, cols, layers, seed=seed)
    if r is None:
        part = partition_from_groups(g, [np.arange(g.m)], r=g.m, terminals=(0, g.n - 1))
    else:
        part = grid_r_division(rows, cols, layers, r, terminals=(0, g.n - 1), graph=g)
    return g, part, RunConfig(eps=EPS, r=max(r or 4, 4), seed=seed)


def _ids(spec):
    rows, cols, layers, r, _ = spec
    return f"{rows}x{cols}x{layers}-" + ("one-group" if r is None else f"r{r}")


@pytest.mark.parametrize("spec", INSTANCES, ids=_ids)
def test_max_flow_routes_agree(spec):
    g, part, config = _instance(*spec)
    exact = exact_max_flow_oracle(g, 0, g.n - 1).value
    direct = approx_max_flow(g, part, None, 0, g.n - 1, EPS, config)
    two_level = approx_max_flow(g, part, SparsifierPlan("one-step"), 0, g.n - 1, EPS, config)
    cd, c2 = direct.stats.counters(), two_level.stats.counters()
    for name in ("probes", "iterations_outer", "iterations_inner_total", "inner_failures"):
        assert cd[name] == c2[name], name
    assert direct.value == pytest.approx(two_level.value, rel=VALUE_RTOL)
    assert min(direct.value, two_level.value) >= (1 - EPS) * exact
    # the direct route eliminates, sparsifies and converts nothing
    assert cd["route"] == "direct" and c2["route"] == "one-step"
    assert cd["sparsifier_builds"] == cd["topology_builds"] == 0
    assert c2["sparsifier_builds"] == part.k * c2["iterations_outer"]
    t = direct.stats.timings
    assert t["sparsify"] == t["quotient_assemble"] == t["convert"] == 0.0
    assert cd["iterations_inner_total"] == cd["electrical_flows"]


PINNED = {  # value and counters of the default route at RunConfig seed 7
    (24, 24, 1, 12, 0): (11.078388658283995, dict(
        probes=3, iterations_outer=37, iterations_inner_total=37, electrical_flows=37,
        factorizations=37, rebinds=0, pcg_iterations=0)),
    (16, 16, 3, 128, 0): (12.973819682822734, dict(
        probes=4, iterations_outer=79, iterations_inner_total=79, electrical_flows=79,
        factorizations=79, rebinds=0, pcg_iterations=0)),
    # band 66, above the banded cutoff: one LU factor is carried across flows
    (12, 12, 6, 96, 0): (18.3441790182446, dict(
        probes=3, iterations_outer=32, iterations_inner_total=32, electrical_flows=32,
        factorizations=5, rebinds=27, pcg_iterations=246)),
    # band 96: the carried factor on a 2-D grid
    (96, 96, 1, 96, 0): (8.118329096033417, dict(
        probes=5, iterations_outer=36, iterations_inner_total=36, electrical_flows=36,
        factorizations=6, rebinds=30, pcg_iterations=274)),
}


@pytest.mark.parametrize("spec", list(PINNED), ids=_ids)
def test_default_route_keeps_its_value_and_counters(spec):
    # how an inner electrical flow is set up (tree repair, rebinding to new
    # values, PCG products) must not move the result or any counter
    g, part, _ = _instance(*spec)
    config = RunConfig(eps=EPS, r=spec[3], seed=7)
    res = approx_max_flow(g, part, None, 0, g.n - 1, EPS, config)
    value, counters = PINNED[spec]
    assert res.value == pytest.approx(value, rel=1e-12, abs=0)
    c = res.stats.counters()
    assert {name: c[name] for name in counters} == counters
    # each electrical flow got exactly one handle
    assert c["factorizations"] + c["rebinds"] == c["electrical_flows"]


@pytest.mark.parametrize("spec", INSTANCES, ids=_ids)
@pytest.mark.parametrize("factor", [2.0, 1.02])
def test_fixed_flow_routes_agree(spec, factor):
    g, part, config = _instance(*spec)
    exact = exact_max_flow_oracle(g, 0, g.n - 1).value
    outcomes = []
    for plan in (None, SparsifierPlan("one-step")):
        res, fail_ctx = route_fixed_flow(g, part, plan, 0, g.n - 1, factor * exact, EPS, config)
        if fail_ctx is None:
            outcomes.append(("flow", res.value))
        else:
            inst, fail, _ = fail_ctx
            cert = cut_certificate(inst, fail, EPS)
            assert cert.gradient_capacity <= 1 + 1e-8
            assert cert.demand_value >= 1 - 10 * EPS
            outcomes.append((type(fail).__name__, cert.cut_capacity))
    (kind_d, value_d), (kind_2, value_2) = outcomes
    assert kind_d == kind_2
    assert value_d == pytest.approx(value_2, rel=VALUE_RTOL)
    if factor == 2.0:
        assert kind_d == SweptCutFail.__name__


def test_direct_energy_certificate():
    g, part, _ = _instance(10, 10, 1, 16, 4)
    s, t = 0, g.n - 1
    exact = exact_max_flow_oracle(g, s, t).value
    w = oracle_edge_weights(np.ones(g.m), g.capacity, part.groups, EPS)
    inst = pipeline._direct_instance(g, part, w)
    assert inst.quotient_graph.m == g.m and inst.elimination is None
    res = approx_grouped_flow(inst, st_demand(g.n, s, t, 4 * exact), EPS / 10)
    assert res.failed and isinstance(res.fail, GroupedFlowFail)
    cert = cut_certificate(inst, res.fail, EPS)
    assert cert.gradient_capacity <= 1 + 1e-8
    assert cert.demand_value >= 1 - 10 * EPS
    side = np.zeros(g.n, dtype=bool)
    side[cert.cut_side] = True
    assert side[s] and not side[t]
    crossing = float(g.capacity[side[g.tails] != side[g.heads]].sum())
    assert crossing == pytest.approx(cert.cut_capacity)
    assert cert.cut_capacity >= exact * (1 - 1e-9)


def test_direct_flow_meets_the_group_contract():
    # a feasible demand: the averaged flow on G is returned as it is, demand-exact
    g, part, _ = _instance(10, 10, 1, 16, 4)
    w = oracle_edge_weights(np.ones(g.m), g.capacity, part.groups, EPS)
    inst = pipeline._direct_instance(g, part, w)
    d = st_demand(g.n, 0, g.n - 1, 0.3 * exact_max_flow_oracle(g, 0, g.n - 1).value)
    res = approx_grouped_flow(inst, d, EPS / 10)
    # grouped flow on G at these weights, at half the error, gives the same bits
    ref = grouped_flow(GroupedFlowProblem(g.reweighted(w), part.groups, d, EPS / 20),
                       max_iterations=200)
    assert res.status == "ok" and np.array_equal(res.flow, ref.flow)
    net = (np.bincount(g.tails, weights=res.flow, minlength=g.n)
           - np.bincount(g.heads, weights=res.flow, minlength=g.n))
    assert np.abs(net - d).max() <= 1e-9
    assert res.diagnostics.max_group_congestion <= 1 + 10 * EPS / 20


def test_build_sparsified_instance_rejects_a_direct_plan():
    # the build takes no plan: it is the one-step route's, and seed is keyword-only
    g, part, _ = _instance(8, 8, 1, 16, 1)
    w = oracle_edge_weights(np.ones(g.m), g.capacity, part.groups, EPS)
    with pytest.raises(TypeError):
        pipeline.build_sparsified_instance(g, part, w, EPS / 10, SparsifierPlan("direct"))


def test_inner_iterations_count_a_probe_ended_by_a_cap_hit():
    # 16x16 r=16 capacity seed 4: probes end in SolverConvergenceError
    g = random_capacity_grid(16, 16, seed=4)
    part = grid_r_division(16, 16, 1, 16, terminals=(0, g.n - 1), graph=g)
    for plan in (None, SparsifierPlan("one-step")):
        res = approx_max_flow(g, part, plan, 0, g.n - 1, EPS, RunConfig(eps=EPS, r=16, seed=4))
        c = res.stats.counters()
        assert c["inner_failures"] > 0
        assert c["iterations_inner_total"] == c["electrical_flows"]
