import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, GroupedFlowProblem, LaggedFactor, RunConfig,
                     SolverConvergenceError, ValidationError, WeightedGraph, approx_max_flow,
                     check_mwu_step, electrical_flow, grid_graph, grid_r_division,
                     group_congestions, grouped_flow, mwu_parameters,
                     random_capacity_grid, residual_of_vector, st_demand)


class TestParameters:
    def test_formula_k1000(self):
        rho, n_iter = mwu_parameters(1000, 0.1)
        assert rho == pytest.approx(10 * 1000 ** (1 / 3) * 0.1 ** (-2 / 3), rel=1e-12)
        assert n_iter == math.ceil(20 * rho * math.log(1000) * 100)
        assert rho == pytest.approx(464.1588833612779)

    def test_single_group_floor(self):
        rho, n_iter = mwu_parameters(1, 0.25)
        assert rho == pytest.approx(10 * 0.25 ** (-2 / 3))
        assert rho == pytest.approx(25.198, abs=1e-3)
        assert n_iter == 1  # ln(1) = 0 floored to one iteration

    def test_k8(self):
        rho, _ = mwu_parameters(8, 0.2)
        assert rho == pytest.approx(58.480, abs=1e-3)

    def test_eps_range(self):
        with pytest.raises(GraphError):
            mwu_parameters(4, 0.7)


class TestProblemValidation:
    def test_empty_group_rejected(self):
        g = WeightedGraph(2, [(0, 1)])
        with pytest.raises(GraphError, match="empty"):
            GroupedFlowProblem(g, [[0], []], st_demand(2, 0, 1, 0.5), 0.1)

    def test_cover_required(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="cover"):
            GroupedFlowProblem(g, [[0]], st_demand(3, 0, 2, 0.5), 0.1)

    @pytest.mark.parametrize("extra, message", [(12, "out of range"), (-1, "out of range"),
                                                (3, "edge 3 in groups 0 and 1")])
    def test_bad_edge_ids_rejected(self, extra, message):
        g = grid_graph(3, 3)  # 12 edges
        with pytest.raises(GraphError, match=message):
            GroupedFlowProblem(g, [np.arange(g.m), [extra]], st_demand(g.n, 0, 8, 0.5), 0.1)

    def test_given_group_ids_are_checked(self):
        g = grid_graph(3, 3)
        groups = [np.arange(6), np.arange(6, g.m)]
        gid = np.repeat([0, 1], 6)
        prob = GroupedFlowProblem(g, groups, st_demand(g.n, 0, 8, 0.5), 0.1, group_of_edge=gid)
        assert prob.group_of_edge is gid
        for bad in (gid[:-1], np.where(gid == 1, 2, 0), gid - 1):
            with pytest.raises(GraphError, match="group_of_edge"):
                GroupedFlowProblem(g, groups, st_demand(g.n, 0, 8, 0.5), 0.1, group_of_edge=bad)
        with pytest.raises(GraphError, match="group 1 is empty"):
            GroupedFlowProblem(g, groups, st_demand(g.n, 0, 8, 0.5), 0.1,
                               group_of_edge=np.zeros(g.m, dtype=np.int64))


class TestStepInvariants:
    def test_mu_growth_bound(self):
        w0 = np.ones(3)
        cong = np.array([0.5, 1.0, 0.0])
        rho = 10.0
        w1 = w0 * (1 + 0.1 / rho * cong)
        out = check_mwu_step(w0, w1, cong, 0.1, rho)
        assert out["mu_ratio"] <= math.exp(0.1 / rho) + 1e-12

    def test_zero_congestion_weight_unchanged(self):
        w0 = np.array([2.0, 3.0])
        cong = np.array([0.0, 1.0])
        w1 = w0 * (1 + 0.1 / 5.0 * cong)
        check_mwu_step(w0, w1, cong, 0.1, 5.0)
        assert w1[0] == w0[0]

    def test_width_congestion_multiplier(self):
        # cong = rho makes the multiplier exactly 1 + eps; the weighted-congestion
        # hypothesis still holds when enough other groups are quiet
        eps, rho = 0.1, 7.0
        w0 = np.ones(50)
        cong = np.zeros(50)
        cong[0] = rho
        w1 = w0 * (1 + eps / rho * cong)
        assert w1[0] == pytest.approx(1 + eps)
        out = check_mwu_step(w0, w1, cong, eps, rho)
        assert out["over_width"]

    def test_decreasing_weight_rejected(self):
        with pytest.raises(ValidationError, match="decreased"):
            check_mwu_step(np.array([2.0]), np.array([1.0]), np.array([0.0]), 0.1, 5.0)


class TestGroupedFlow:
    def test_single_edge_feasible(self):
        g = WeightedGraph(2, [(0, 1)], weight=[1.0])
        prob = GroupedFlowProblem(g, [[0]], st_demand(2, 0, 1, 0.9), 0.1)
        res = grouped_flow(prob)
        assert res.status == "ok"
        assert res.diagnostics.max_group_congestion <= 1.1
        assert res.flow[0] == pytest.approx(0.9)

    def test_single_edge_certificate_fires(self):
        g = WeightedGraph(2, [(0, 1)], weight=[1.0])
        prob = GroupedFlowProblem(g, [[0]], st_demand(2, 0, 1, 10.0), 0.1)
        res = grouped_flow(prob)
        assert res.failed
        assert res.fail.iteration == 1
        assert res.fail.energy > res.fail.mu

    def test_planted_witness_grid(self):
        g0 = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g0)
        w = np.ones(g0.m)
        g = WeightedGraph(g0.n, g0.edges, weight=w)
        ef = electrical_flow(g, st_demand(16, 0, 15, 1.0), 1e-8, resistances=w)
        cong = group_congestions(ef.flow, w, part.groups)
        d = st_demand(16, 0, 15, 0.8 / cong.max())
        prob = GroupedFlowProblem(g, part.groups, d, 0.1)
        res = grouped_flow(prob)
        assert res.status == "ok"
        assert res.diagnostics.max_group_congestion <= 1 + 10 * 0.1
        assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9
        _, n_iter = mwu_parameters(part.k, 0.1)
        assert res.diagnostics.iterations <= n_iter

    def test_first_iterate_meeting_the_contract_returns_at_once(self):
        # a witness of congestion 0.8: the first electrical flow already has
        # every group congestion <= 1 + 10 eps, and nothing waits for more
        g0 = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g0)
        w = np.ones(g0.m)
        g = WeightedGraph(g0.n, g0.edges, weight=w)
        ef = electrical_flow(g, st_demand(16, 0, 15, 1.0), 1e-8, resistances=w)
        d = st_demand(16, 0, 15, 0.8 / group_congestions(ef.flow, w, part.groups).max())
        res = grouped_flow(GroupedFlowProblem(g, part.groups, d, 0.1))
        assert res.status == "ok"
        assert res.diagnostics.iterations == res.diagnostics.accepted == 1
        assert res.diagnostics.early_exit
        assert res.diagnostics.max_group_congestion == pytest.approx(0.8, rel=1e-6)

    def test_strict_mode_runs_full_budget(self):
        g = WeightedGraph(2, [(0, 1), (0, 1)], weight=[1.0, 1.0])
        prob = GroupedFlowProblem(g, [[0], [1]], st_demand(2, 0, 1, 1.0), 0.4)
        res = grouped_flow(prob, strict=True)
        _, n_iter = mwu_parameters(2, 0.4)
        assert res.diagnostics.iterations == n_iter
        assert not res.diagnostics.early_exit

    def test_accepted_fraction_on_feasible(self):
        # N_1 >= (1 - eps) * iterations on comfortably feasible instances
        g0 = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g0)
        w = np.ones(g0.m)
        g = WeightedGraph(g0.n, g0.edges, weight=w)
        ef = electrical_flow(g, st_demand(16, 0, 15, 1.0), 1e-8, resistances=w)
        cong = group_congestions(ef.flow, w, part.groups)
        d = st_demand(16, 0, 15, 0.5 / cong.max())
        res = grouped_flow(GroupedFlowProblem(g, part.groups, d, 0.1))
        assert res.diagnostics.accepted >= (1 - 0.1) * res.diagnostics.iterations

    def test_carried_lag_matches_fresh_call(self):
        # a LaggedFactor carried over from an earlier call preconditions the
        # next call's first solve with the old factor; the result is the
        # fresh call's up to the solve tolerance
        rng = np.random.default_rng(3)
        g0 = grid_graph(12, 12, 6)  # band 66, above the band cutoff: the LU factor is carried
        t = g0.n - 1
        part = grid_r_division(12, 12, 6, 96, terminals=(0, t), graph=g0)
        g1 = WeightedGraph(g0.n, g0.edges, weight=rng.uniform(0.5, 2.0, g0.m))
        g2 = g1.reweighted(g1.weight * rng.uniform(0.8, 1.25, g0.m))
        lag = LaggedFactor()
        grouped_flow(GroupedFlowProblem(g1, part.groups, st_demand(g0.n, 0, t, 0.3), 0.1), lag=lag)
        before = lag.counters()
        prob = GroupedFlowProblem(g2, part.groups, st_demand(g0.n, 0, t, 0.35), 0.1)
        carried = grouped_flow(prob, lag=lag)
        fresh = grouped_flow(prob)
        assert lag.rebinds > before["rebinds"] and lag.handle is not None
        assert carried.status == fresh.status == "ok"
        assert carried.diagnostics.iterations == fresh.diagnostics.iterations
        scale = np.abs(fresh.flow).max()
        assert np.abs(carried.flow - fresh.flow).max() <= 1e-9 * scale

    def test_resistance_positivity_invariant(self):
        # every per-edge resistance (w_grp + (eps/k) mu) w(e) stays positive
        g = WeightedGraph(3, [(0, 1), (1, 2)], weight=[0.3, 2.0])
        prob = GroupedFlowProblem(g, [[0], [1]], st_demand(3, 0, 2, 0.2), 0.2)
        res = grouped_flow(prob)
        assert res.status == "ok"


def _random_multigraph(n, k, data):
    """A random connected multigraph on n vertices with weights, and its
    edges split into k nonempty groups."""
    edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    edges += [e for e in data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                      st.integers(0, n - 1)), max_size=10))
              if e[0] != e[1]]
    edges += [edges[0]] * (k - len(edges))  # parallel copies until every group gets an edge
    m = len(edges)
    weight = data.draw(st.lists(st.floats(0.1, 10.0), min_size=m, max_size=m))
    label = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m)))
    label[:k] = np.arange(k)  # no group is empty
    return WeightedGraph(n, edges, weight=weight), [np.flatnonzero(label == i) for i in range(k)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=6), st.data())
def test_every_early_return_meets_the_contract(n, k, data):
    # random connected multigraphs, weights and groups; whatever the demand,
    # a non-strict "ok" is an average within 1 + 10 eps that routes it
    g, groups = _random_multigraph(n, k, data)
    d = st_demand(n, 0, n - 1, data.draw(st.floats(0.01, 5.0)))
    eps = data.draw(st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.4]))
    try:
        res = grouped_flow(GroupedFlowProblem(g, groups, d, eps), max_iterations=100)
    except SolverConvergenceError:
        return  # the cap hit without the contract met
    if res.failed:
        return
    assert group_congestions(res.flow, g.weight, groups).max() <= 1 + 10 * eps
    assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9


def _demand_at_first_congestion(g, groups, congestion):
    """The 0 -> n-1 demand whose first electrical flow (resistances w) has
    max group congestion ``congestion``."""
    unit = st_demand(g.n, 0, g.n - 1, 1.0)
    first = electrical_flow(g, unit, 1e-6, resistances=g.weight).flow
    return unit * (congestion / group_congestions(first, g.weight, groups).max())


def test_a_capped_loop_ends_on_its_contract_not_on_its_trend():
    # a capped loop whose average's fall slows for a while and then meets
    # the contract at iteration 7 of its cap 10; a guess from the trend of
    # the first accepted iterates would have given up at iteration 5
    n, k = 12, 6
    parents = [0, 1, 1, 3, 3, 4, 0, 0, 0, 9, 6]
    edges = [(p, v) for v, p in zip(range(1, n), parents)]
    edges += [(3, 4), (3, 4), (9, 11), (1, 5), (0, 1), (2, 10), (9, 11), (3, 4), (0, 3)]
    weight = [2, 1, 5, .125, .25, 1, 1, 1, 6.375, 3, 2, 1, 1, 1, 4, 2, 8, 7, 3, 3.625]
    label = np.array([0, 0, 0, 0, 0, 0, 0, 0, 4, 4, 5, 0, 0, 5, 2, 0, 0, 0, 0, 0])
    label[:k] = np.arange(k)
    g = WeightedGraph(n, edges, weight=weight)
    groups = [np.flatnonzero(label == i) for i in range(k)]
    d = _demand_at_first_congestion(g, groups, 1.2)
    res = grouped_flow(GroupedFlowProblem(g, groups, d, 0.02), max_iterations=10)
    assert res.status == "ok" and res.diagnostics.early_exit
    assert res.diagnostics.iterations == 7
    assert group_congestions(res.flow, g.weight, groups).max() <= 1 + 10 * 0.02
    assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=4, max_value=12), st.integers(min_value=2, max_value=8), st.data())
def test_a_cap_only_truncates(n, k, data):
    # the demand puts the first iterate's max group congestion at 1 to 2
    # times the contract's 1 + 10 eps, where a capped loop at small eps
    # often needs more than a few iterations; a cap c ends the loop nowhere
    # the loop under cap 4c would not pass, so a call that returns under c
    # returns the same under 4c, and one that raises under c raises under 4c
    # too or runs past iteration c
    g, groups = _random_multigraph(n, k, data)
    eps = data.draw(st.sampled_from([0.02, 0.05]))
    d = _demand_at_first_congestion(g, groups, data.draw(st.floats(1.0, 2.0)) * (1 + 10 * eps))
    cap = data.draw(st.integers(5, 50))
    problem = GroupedFlowProblem(g, groups, d, eps)
    try:
        short = grouped_flow(problem, max_iterations=cap)
    except SolverConvergenceError as exc:
        event("raised under the short cap")
        assert exc.achieved_residual > 1 + 10 * eps
        assert np.abs(residual_of_vector(exc.best_iterate, g) - d).max() <= 1e-9
        try:
            long = grouped_flow(problem, max_iterations=4 * cap)
        except SolverConvergenceError:
            return
        assert long.diagnostics.iterations > cap
        return
    long = grouped_flow(problem, max_iterations=4 * cap)
    assert long.status == short.status
    assert long.diagnostics.iterations == short.diagnostics.iterations
    if not short.failed:
        assert long.flow.tobytes() == short.flow.tobytes()


def test_a_max_flow_run_keeps_its_capped_inner_failures():
    # 16x16, r=16, capacity seed 4 (as the CLI runs it): two probes' inner
    # loops run to their caps and end those probes unproductive
    g = random_capacity_grid(16, 16, seed=4)
    part = grid_r_division(16, 16, 1, 16, terminals=(0, g.n - 1), graph=g)
    res = approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, r=16, seed=4))
    c = res.stats.counters()
    assert (c["probes"], c["iterations_outer"], c["inner_failures"],
            c["electrical_flows"]) == (7, 75, 2, 2372)
    assert res.value == pytest.approx(8.338110584519452, rel=1e-12, abs=0)
