import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sepflow import (DisconnectedGraphError, GraphError, GroupedFlowFail, GroupedFlowProblem,
                     LaggedFactor, RunConfig, SolverConvergenceError, SparseLaplacian,
                     SparsifierPlan, SweptCutFail, ValidationError, WeightedGraph,
                     approx_grouped_flow, approx_max_flow,
                     build_sparsified_instance, convert_flow, cut_certificate,
                     edge_congestions, edge_group_ids, exact_max_flow_oracle, exact_schur, grid_graph,
                     grid_r_division, group_congestions, grouped_flow,
                     one_step_vertex_sparsify, oracle_edge_weights, partition_from_groups,
                     random_capacity_grid, residual_of_vector, route_fixed_flow, st_demand,
                     sweep_cut)
from sepflow import pipeline
from sepflow.schur import GroupTopology

from conftest import dense_electrical, incidences, random_connected_graph


class TestOracleWeights:
    def test_singleton_group(self):
        w = oracle_edge_weights(np.ones(1), np.ones(1), [np.array([0])], 0.2)
        assert w[0] == pytest.approx(0.9 * (1 + 0.05))

    def test_uniform_group_of_four(self):
        w = oracle_edge_weights(np.ones(4), np.ones(4), [np.arange(4)], 0.2)
        assert np.allclose(w, 0.9 * (0.25 + 0.0125))

    def test_capacity_square_scaling(self):
        w1 = oracle_edge_weights(np.ones(4), np.ones(4), [np.arange(4)], 0.2)
        w2 = oracle_edge_weights(np.ones(4), 2 * np.ones(4), [np.arange(4)], 0.2)
        assert np.allclose(w2, w1 / 4.0)

    @pytest.mark.parametrize("groups, message", [
        ([np.arange(11), [-1]], "out of range"), ([np.arange(12), [12]], "out of range"),
        ([np.arange(11)], "belongs to no group"), ([np.arange(12), [0]], "in groups 0 and 1")])
    def test_bad_edge_ids_rejected(self, groups, message):
        with pytest.raises(GraphError, match=message):
            oracle_edge_weights(np.ones(12), np.ones(12), groups, 0.2)

    def test_group_ids_give_the_same_weights(self, rng):
        groups = [np.arange(0, 5), np.arange(5, 12)]
        wo, cap = rng.uniform(1, 5, 12), rng.uniform(1, 10, 12)
        gid = edge_group_ids(groups, 12)
        assert np.array_equal(oracle_edge_weights(wo, cap, gid, 0.2),
                              oracle_edge_weights(wo, cap, groups, 0.2))
        with pytest.raises(GraphError, match="one group id per edge"):
            oracle_edge_weights(wo, cap, gid[:-1], 0.2)

    @pytest.mark.parametrize("dims, r", [((24, 24, 1), 12), ((8, 8, 3), 64)])
    def test_run_weights_bitwise_equal(self, rng, dims, r):
        # the run's hoisted terms give oracle_edge_weights' exact bits
        g = random_capacity_grid(*dims, seed=2)
        part = grid_r_division(*dims, r, terminals=(0, g.n - 1), graph=g)
        run = pipeline._Run(g, part, None, 0, g.n - 1, 0.1, None, "weights")
        for wo in (np.ones(g.m), rng.uniform(0.5, 50.0, g.m), np.exp(rng.normal(0, 8, g.m))):
            assert np.array_equal(run.edge_weights(wo),
                                  oracle_edge_weights(wo, g.capacity, part.groups, 0.1))

    def test_weight_ratio_bound(self, rng):
        # U(w) <= 8 (m/eps) U(u)^2 <= O(m^3 eps^-3) when U(u) <= m/eps
        eps = 0.1
        for _ in range(10):
            m = int(rng.integers(4, 40))
            cap = rng.uniform(1, 10, m)
            wo = rng.uniform(1, 5, m)
            groups = [np.arange(0, m // 2), np.arange(m // 2, m)]
            w = oracle_edge_weights(wo, cap, groups, eps)
            u_cap = cap.max() / cap.min()
            assert w.max() / w.min() <= 8 * m / eps * u_cap**2 * (1 + 1e-9)


class TestPivotIdentity:
    def test_boundary_demand_energy_equality(self, rng):
        # d^T L^+ d = d_bdry^T L_schur^+ d_bdry for boundary-supported demands
        for _ in range(50):
            n = int(rng.integers(5, 21))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            lap = SparseLaplacian(g.laplacian_csr(1.0 / g.weight))
            nb = int(rng.integers(2, n))
            bdry = np.sort(rng.choice(n, size=nb, replace=False))
            d = np.zeros(n)
            vals = rng.normal(size=nb)
            d[bdry] = vals - vals.mean()
            full = d @ (np.linalg.pinv(lap.dense()) @ d)
            schur = exact_schur(lap, bdry).dense()
            small = d[bdry] @ (np.linalg.pinv(schur) @ d[bdry])
            assert abs(full - small) <= 1e-7 * max(abs(full), 1e-12)


class TestConvertFlow:
    def test_identity_conversion(self, rng):
        g = random_connected_graph(rng, 10, 10)
        groups = [np.arange(g.m)]
        d = np.zeros(g.n)
        d[0], d[-1] = 1.0, -1.0
        from sepflow import electrical_flow

        f_src = electrical_flow(g, d, 1e-8, resistances=g.weight).flow
        eps = 0.1
        f_dst = convert_flow(g, groups, g, groups, f_src, eps)
        c_src = group_congestions(f_src, g.weight, groups)
        c_dst = group_congestions(f_dst, g.weight, groups)
        assert c_dst.max() <= (1 + 3 * eps) * c_src.max() + 1e-9
        assert np.abs(residual_of_vector(f_dst, g) - d).max() <= 1e-9

    def test_series_to_schur_edge(self):
        # path 0-1-2 (unit weights) versus its exact Schur edge on {0, 2}
        src = WeightedGraph(3, [(0, 1), (1, 2)], weight=[1.0, 1.0])
        dst = WeightedGraph(3, [(0, 2)], weight=[2.0])  # conductance 1/2 edge
        f_src = np.array([1.0, 1.0])
        f_dst = convert_flow(src, [np.arange(2)], dst, [np.arange(1)], f_src, 0.1)
        assert f_dst[0] == pytest.approx(1.0, abs=1e-9)
        e_src = float(np.sum(src.weight * f_src**2))
        e_dst = float(np.sum(dst.weight * f_dst**2))
        assert e_dst == pytest.approx(e_src, rel=1e-9)

    def test_grid_group_vs_sparsifier(self, rng):
        # energy after conversion stays within (1 + 3 eps) of the source energy
        eps = 0.1
        g = grid_graph(4, 4)
        w = np.ones(g.m)
        gw = WeightedGraph(g.n, g.edges, weight=w)
        bdry = np.array([0, 3, 12, 15])
        lap = SparseLaplacian(gw.laplacian_csr(1.0 / w))
        vs = one_step_vertex_sparsify(lap, bdry, eps, seed=4)
        t, h, c = vs.laplacian.edge_list()
        quotient = WeightedGraph(bdry.size, np.column_stack([t, h]), weight=1.0 / c)
        from sepflow import electrical_flow

        for trial in range(10):
            vals = rng.normal(size=bdry.size)
            vals -= vals.mean()
            dq = vals
            f_src = electrical_flow(quotient, dq, 1e-8, resistances=quotient.weight).flow
            f_dst = convert_flow(quotient, [np.arange(quotient.m)], gw, [np.arange(g.m)],
                                 f_src, eps, src_vertex_map=bdry)
            e_src = float(np.sum(quotient.weight * f_src**2))
            e_dst = float(np.sum(w * f_dst**2))
            assert e_dst <= (1 + 3 * eps) * e_src + 1e-6
            d_full = np.zeros(g.n)
            d_full[bdry] = dq
            assert np.abs(residual_of_vector(f_dst, gw) - d_full).max() <= 1e-8

    def test_boundary_mismatch_rejected(self):
        # the path's end 2 maps to destination vertex 1, which its group misses
        src = WeightedGraph(3, [(0, 1), (1, 2)], weight=[1.0, 1.0])
        dst = WeightedGraph(3, [(0, 2)], weight=[2.0])
        f_src = np.array([1.0, 1.0])
        with pytest.raises(GraphError, match="boundary vertex 1 missing from destination"):
            convert_flow(src, [np.arange(2)], dst, [np.arange(1)], f_src, 0.1,
                         src_vertex_map=np.array([0, 2, 1]))
        for stray in ([0, 1, 3], [-1, 1, 2]):
            with pytest.raises(GraphError, match=r"vertex map has an entry outside 0\.\.2"):
                convert_flow(src, [np.arange(2)], dst, [np.arange(1)], f_src, 0.1,
                             src_vertex_map=np.array(stray))

    def test_round_trip_inflation(self):
        # G's electrical flow, routed on the sparsifier quotient and converted
        # back, inflates group congestion by <= (1 + 3 eps), factored here or
        # by the instance's elimination
        eps = 0.1
        g, part, w, inst = small_instance(eps=eps / 10.0)
        from sepflow import electrical_flow

        d = st_demand(g.n, 0, 15, 0.5)
        f0 = electrical_flow(g, d, 1e-8, resistances=w).flow
        q, qmap = inst.quotient_graph, inst.quotient_vertices
        f_q = electrical_flow(q, inst.quotient_demand(d), 1e-8, resistances=q.weight).flow
        c0 = group_congestions(f0, w, part.groups).max()
        for elimination in (None, inst.elimination):
            f_back = convert_flow(q, inst.quotient_groups, g, part.groups, f_q, eps,
                                  src_vertex_map=qmap, elimination=elimination)
            c2 = group_congestions(f_back, w, part.groups).max()
            assert c2 <= (1 + 3 * eps) * c0 + 1e-6
            assert np.abs(residual_of_vector(f_back, g) - d).max() <= 1e-8


def small_instance(eps=0.01):
    g0 = grid_graph(4, 4)
    part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g0)
    w = oracle_edge_weights(np.ones(g0.m), g0.capacity, part.groups, 0.1)
    g = WeightedGraph(g0.n, g0.edges, capacity=g0.capacity, weight=w)
    inst = build_sparsified_instance(g, part, w, eps)
    return g, part, w, inst


class TestBuildSparsifiedInstance:
    @pytest.mark.parametrize("eps", [0.7, 2.9, float("nan"), 0.0, -1.0])
    def test_build_rejects_eps_outside_its_range(self, eps):
        # once taken silently (0.7, 2.9, nan), a bare ZeroDivisionError (0)
        # or a clamp error (-1): the range of one_step_vertex_sparsify
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g)
        with pytest.raises(GraphError, match=re.escape(
                "build_sparsified_instance requires 0 < eps < 1/2")):
            build_sparsified_instance(g, part, np.ones(g.m), eps)


class TestSparsifierPlan:
    def test_unknown_method_rejected(self):
        with pytest.raises(GraphError, match="one-step"):
            SparsifierPlan(method="two-step")

    def test_recursive_rejected(self):
        with pytest.raises(GraphError, match="'direct' or 'one-step'"):
            SparsifierPlan(method="recursive")


class TestApproxGroupedFlow:
    def test_matches_direct_grouped_flow(self):
        g, part, w, inst = small_instance()
        eps = 0.1
        # feasible demand scaled from a unit electrical flow witness
        from sepflow import electrical_flow

        ef = electrical_flow(g, st_demand(g.n, 0, 15, 1.0), 1e-8, resistances=w)
        cong = group_congestions(ef.flow, w, part.groups)
        d = st_demand(g.n, 0, 15, 0.8 / cong.max())
        two_level = approx_grouped_flow(inst, d, eps)
        assert two_level.status == "ok"
        direct = grouped_flow(GroupedFlowProblem(WeightedGraph(g.n, g.edges, weight=w),
                                                 part.groups, d, eps))
        assert direct.status == "ok"
        c2 = group_congestions(two_level.flow, w, part.groups).max()
        c1 = group_congestions(direct.flow, w, part.groups).max()
        assert c2 <= (1 + eps) * max(c1, 1.0) + 1e-9
        # the result measures the converted flow, not the quotient's
        assert two_level.diagnostics.max_group_congestion == group_congestions(
            two_level.flow, inst.weights, inst.partition.group_of_edge).max()

    def test_residual_exact(self):
        g, part, w, inst = small_instance()
        d = st_demand(g.n, 0, 15, 0.1)
        res = approx_grouped_flow(inst, d, 0.1)
        assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9

    def test_infeasible_demand_fails(self):
        g, part, w, inst = small_instance()
        exact = exact_max_flow_oracle(g, 0, 15).value
        d = st_demand(g.n, 0, 15, 10.0 * exact)
        res = approx_grouped_flow(inst, d, 0.1)
        assert res.failed
        # cross-check: the exact oracle confirms infeasibility
        assert 10.0 * exact > exact

    def test_interior_demand_rejected(self):
        g, part, w, inst = small_instance()
        interior = np.setdiff1d(np.arange(g.n), inst.quotient_vertices)
        d = np.zeros(g.n)
        d[interior[0]], d[0] = 1.0, -1.0
        with pytest.raises(GraphError, match="interior"):
            approx_grouped_flow(inst, d, 0.1)

    def test_rebuilt_quotient_pattern_factors_afresh(self):
        # a LaggedFactor carried across calls rebinds while the quotient keeps
        # its edge pattern, and factors afresh once the pattern is rebuilt
        class Spy(LaggedFactor):
            def solver(self, g, conductance):
                solve = super().solver(g, conductance)
                self.fresh.append(not self.rebound)
                return solve

        eps = 0.1
        g = random_capacity_grid(12, 12, 4, seed=4)
        part = grid_r_division(12, 12, 4, 96, terminals=(0, g.n - 1), graph=g)
        w = oracle_edge_weights(np.ones(g.m), g.capacity, part.groups, eps)
        d = st_demand(g.n, 0, g.n - 1, 0.5 * exact_max_flow_oracle(g, 0, g.n - 1).value)
        lag = Spy()
        lag.fresh = []
        first = build_sparsified_instance(g, part, w, eps / 10)
        assert first.quotient_graph.n > 64
        approx_grouped_flow(first, d, eps, lag=lag)
        # a quotient of 298 vertices and band 89: the LU factor is carried
        assert first.quotient_graph._structure["band_layout"].band > 64
        assert lag.fresh[0] and not any(lag.fresh[1:])
        same = build_sparsified_instance(g, part, 1.05 * w, eps / 10)
        assert same.quotient_graph._structure is first.quotient_graph._structure
        lag.fresh = []
        approx_grouped_flow(same, d, eps, lag=lag)
        assert not any(lag.fresh)
        part._topology = None  # a rebuilt topology builds its quotient pattern afresh
        rebuilt = build_sparsified_instance(g, part, 1.05 * w, eps / 10)
        assert rebuilt.quotient_graph._structure is not first.quotient_graph._structure
        lag.fresh = []
        approx_grouped_flow(rebuilt, d, eps, lag=lag)
        assert lag.fresh[0] and lag.structure is rebuilt.quotient_graph._structure

    def test_carried_problem_is_the_instance_problem(self, monkeypatch):
        # a quotient's structure, groups and group ids are made together, so
        # the structure test alone decides whether a problem is carried on
        real, quotient = pipeline._grouped_problem, GroupTopology.quotient

        def run(rebuild):
            reused = []

            def checked(instance, d, eps, previous=None):
                problem = real(instance, d, eps, previous)
                assert problem.graph._structure is instance.quotient_graph._structure
                assert problem.groups is instance.quotient_groups
                assert problem.group_of_edge is instance.quotient_group_of_edge
                reused.append(previous is not None and problem.demand is previous.demand)
                return problem

            def fresh(topo, weights):  # every quotient call builds its pattern afresh
                topo._quotient = None
                return quotient(topo, weights)

            monkeypatch.setattr(pipeline, "_grouped_problem", checked)
            monkeypatch.setattr(GroupTopology, "quotient", fresh if rebuild else quotient)
            g = random_capacity_grid(10, 10, seed=2)
            part = grid_r_division(10, 10, 1, 16, terminals=(0, g.n - 1), graph=g)
            res = approx_max_flow(g, part, SparsifierPlan("one-step"), 0, g.n - 1, 0.1,
                                  RunConfig(eps=0.1, r=16, seed=2))
            return reused, res

        (cached, res), (rebuilt, again) = run(False), run(True)
        assert (len(cached), sum(cached)) == (45, 39)
        assert (len(rebuilt), sum(rebuilt)) == (45, 0)
        # a carried problem solves as the one made afresh would
        assert res.value == again.value and np.array_equal(res.flow, again.flow)

    def test_single_group_whole_graph(self):
        g0 = grid_graph(3, 3)
        part = grid_r_division(3, 3, 1, 100, terminals=(0, 8), graph=g0)
        assert part.k == 1
        w = oracle_edge_weights(np.ones(g0.m), g0.capacity, part.groups, 0.1)
        g = WeightedGraph(g0.n, g0.edges, weight=w)
        inst = build_sparsified_instance(g, part, w, 0.01)
        from sepflow import electrical_flow

        ef = electrical_flow(g, st_demand(9, 0, 8, 1.0), 1e-8, resistances=w)
        cong = group_congestions(ef.flow, w, part.groups)
        d = st_demand(9, 0, 8, 0.8 / cong.max())
        res = approx_grouped_flow(inst, d, 0.1)
        assert res.status == "ok"
        assert group_congestions(res.flow, w, part.groups).max() <= 1 + 0.1 + 1e-6


class TestRunConfig:
    @pytest.mark.parametrize("field, value", [
        ("max_outer_iterations", 0), ("max_outer_iterations", 2.5),
        ("max_probes", 0), ("max_probes", -1)])
    def test_rejects_a_cap_that_is_not_a_positive_integer(self, field, value):
        with pytest.raises(GraphError, match=f"{field} to be an integer >= 1"):
            RunConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 10.5, 16.0, None, "16", 3, 0,
                                       np.int64(2)])
    def test_rejects_an_r_that_is_not_an_integer_of_at_least_4(self, value):
        with pytest.raises(GraphError, match=re.escape(f"r to be an integer >= 4, not {value!r}")):
            RunConfig(r=value)

    def test_takes_integer_r(self):
        assert RunConfig(r=4).r == 4 and RunConfig(r=np.int64(96)).r == 96

    def test_takes_integer_caps(self):
        config = RunConfig(max_outer_iterations=np.int64(1), max_probes=1)
        assert (config.max_outer_iterations, config.max_probes) == (1, 1)


class TestApproxMaxFlow:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1)], capacity=[7.0])
        part = partition_from_groups(g, [np.array([0])], r=4, terminals=(0, 1))
        res = approx_max_flow(g, part, None, 0, 1, 0.1, RunConfig(eps=0.1, r=4, seed=0))
        assert 7.0 * 0.9 <= res.value <= 7.0 + 1e-9
        assert res.max_edge_congestion <= 1 + 1e-9

    def test_two_disjoint_paths(self):
        g = WeightedGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], capacity=[3, 3, 5, 5])
        part = partition_from_groups(g, [np.array([0, 1]), np.array([2, 3])], r=4,
                                     terminals=(0, 3))
        res = approx_max_flow(g, part, None, 0, 3, 0.1, RunConfig(eps=0.1, r=4, seed=1))
        assert res.value >= 8.0 * 0.9

    def test_grid_vs_exact(self):
        g = random_capacity_grid(10, 10, seed=2)
        part = grid_r_division(10, 10, 1, 32, terminals=(0, g.n - 1), graph=g)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        res = approx_max_flow(g, part, None, 0, g.n - 1, 0.1,
                              RunConfig(eps=0.1, r=32, seed=2))
        assert res.value >= 0.9 * exact - 1e-6
        assert edge_congestions(res.flow, g.capacity).max() <= 1 + 1e-9

    def test_validation_error_reaches_the_caller(self, monkeypatch):
        # a broken invariant inside grouped flow is not an unproductive probe
        def broken(*args, **kwargs):
            raise ValidationError("planted invariant violation")

        g = random_capacity_grid(6, 6, seed=1)
        part = grid_r_division(6, 6, 1, 16, terminals=(0, g.n - 1), graph=g)
        monkeypatch.setattr(pipeline, "grouped_flow", broken)
        with pytest.raises(ValidationError, match="planted"):
            approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, r=16))

    def test_convergence_error_ends_the_probe(self, monkeypatch):
        calls = {"grouped_flow": 0, "phase": 0}
        phase = pipeline._oracle_phase

        def capped(*args, **kwargs):
            calls["grouped_flow"] += 1
            raise SolverConvergenceError("planted cap hit")

        def counted_phase(*args, **kwargs):
            calls["phase"] += 1
            return phase(*args, **kwargs)

        g = random_capacity_grid(6, 6, seed=1)
        part = grid_r_division(6, 6, 1, 16, terminals=(0, g.n - 1), graph=g)
        monkeypatch.setattr(pipeline, "grouped_flow", capped)
        monkeypatch.setattr(pipeline, "_oracle_phase", counted_phase)
        # no probe produced a flow, so there is no value to report
        with pytest.raises(SolverConvergenceError, match="no probe produced a flow"):
            approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, r=16))
        # every probe's first grouped flow hit the planted cap and ended it
        assert calls["grouped_flow"] == calls["phase"] >= 1

    def test_flow_over_the_outer_width_ends_the_phase(self, monkeypatch):
        # grouped flow's flow scaled to twice the outer width breaks the
        # oracle's output contract: the phase counts a width failure and
        # keeps no flow
        g = random_capacity_grid(6, 6, seed=1)
        part = grid_r_division(6, 6, 1, 16, terminals=(0, g.n - 1), graph=g)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        rho_outer = math.ceil(pipeline.C_W * math.sqrt(16) / math.sqrt(0.1))
        inner = pipeline.grouped_flow

        def wide(*args, **kwargs):
            res = inner(*args, **kwargs)
            res.flow = res.flow * (2 * rho_outer / edge_congestions(res.flow, g.capacity).max())
            return res

        monkeypatch.setattr(pipeline, "grouped_flow", wide)
        run = pipeline._Run(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, r=16), "test")
        ok, _, flow, fail = pipeline._oracle_phase(run, run.stats, 0.5 * exact)
        assert not ok and flow is None and fail is None
        assert run.stats.width_failures == run.stats.iterations_outer == 1

    def test_capacity_ratio_above_m_over_eps_warns(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)], capacity=[1, 1e5, 1, 1])
        part = partition_from_groups(g, [np.arange(g.m)], r=g.m, terminals=(0, 3))
        with pytest.warns(UserWarning, match=re.escape(
                "capacity ratio U(u) = 1.000e+05 exceeds m/eps = 4.000e+01")):
            res = approx_max_flow(g, part, None, 0, 3, 0.1, RunConfig(eps=0.1, r=g.m))
        assert res.value == 1.0

    def test_nonboundary_terminal_rejected(self, monkeypatch):
        # both entries, on both routes, check their terminals before any work
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g)
        interior = int(np.setdiff1d(np.arange(16), np.concatenate(part.boundaries))[0])
        monkeypatch.setattr(pipeline, "_oracle_phase", lambda *a, **k: pytest.fail("phase ran"))
        cases = [(interior, 15, "s = .* is not a boundary vertex"),
                 (0, interior, "t = .* is not a boundary vertex"),
                 (-1, 15, "s = -1 is not a boundary vertex"),
                 (0, 16, "t = 16 is not a boundary vertex"),
                 (0, 0, "source and sink coincide")]
        for entry, amount in ((approx_max_flow, ()), (route_fixed_flow, (1.0,))):
            for plan in (None, SparsifierPlan("one-step")):
                for s, t, message in cases:
                    with pytest.raises(GraphError, match=message):
                        entry(g, part, plan, s, t, *amount, 0.1, RunConfig(eps=0.1, r=8))

    @pytest.mark.parametrize("entry", ["approx_max_flow", "route_fixed_flow"])
    def test_config_at_another_eps_rejected(self, entry, monkeypatch):
        g = random_capacity_grid(8, 8, seed=1)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, 63), graph=g)
        monkeypatch.setattr(pipeline, "_oracle_phase", lambda *a, **k: pytest.fail("phase ran"))
        amount = (1.0,) if entry == "route_fixed_flow" else ()
        for plan in (None, SparsifierPlan("one-step")):
            with pytest.raises(GraphError, match=r"eps = 0\.2 but config\.eps = 0\.1"):
                getattr(pipeline, entry)(g, part, plan, 0, 63, *amount, 0.2,
                                         RunConfig(eps=0.1, seed=1))

    def test_probes_stay_under_the_swept_cut_cap(self):
        # 16x16x3 r=128 capacity seed 0: the first probe's potentials sweep
        # the least cut, and no later probe asks more than it allows
        g = random_capacity_grid(16, 16, 3, seed=0)
        part = grid_r_division(16, 16, 3, 128, terminals=(0, g.n - 1), graph=g)
        res = approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, r=128, seed=7))
        cap = res.cut_upper_bound / (1 - pipeline.PROBE_SLACK * 0.1)
        assert all(flow_target <= cap for _, _, flow_target, _, _ in res.stats.trace_rows)


def side_terminal_grid(rows, cols, layers, seed):
    """Random-capacity grid whose edges inside its first and last columns
    have capacity 1000, so that s = 0 and t = n - 1 act as whole opposite
    sides and the min cut crosses the grid."""
    g = random_capacity_grid(rows, cols, layers, seed=seed)
    col = np.arange(g.n) % cols
    cap = g.capacity.copy()
    for c in (0, cols - 1):
        cap[(col[g.tails] == c) & (col[g.heads] == c)] = 1000.0
    return WeightedGraph(g.n, g.edges, capacity=cap)


CORNER_GRIDS = [(10, 10, 1, 16), (12, 12, 1, 16), (8, 8, 2, 32), (6, 6, 3, 48)]


@settings(max_examples=16, deadline=None, derandomize=True)
@given(spec=st.tuples(st.just("corner"), st.sampled_from(CORNER_GRIDS),
                      st.integers(0, 2**16)),
       method=st.sampled_from(["direct", "one-step"]))
@example(spec=("side", (12, 12, 1, 16), 1), method="direct")
@example(spec=("side", (12, 12, 1, 16), 1), method="one-step")
def test_cut_upper_bound_bounds_the_max_flow(spec, method):
    # weak duality: every swept cut is at least the max flow, so the
    # certified ratio never claims more than the flow's ratio to it
    kind, (rows, cols, layers, r), seed = spec
    grid = side_terminal_grid if kind == "side" else random_capacity_grid
    g = grid(rows, cols, layers, seed=seed)
    part = grid_r_division(rows, cols, layers, r, terminals=(0, g.n - 1), graph=g)
    res = approx_max_flow(g, part, SparsifierPlan(method), 0, g.n - 1, 0.1,
                          RunConfig(eps=0.1, r=r, seed=seed))
    exact = exact_max_flow_oracle(g, 0, g.n - 1).value
    # 1e-12: the oracle's value and the cut are sums in different orders
    assert res.cut_upper_bound >= exact * (1 - 1e-12)
    assert res.certified_ratio <= res.value / exact * (1 + 1e-12)


class TestCutCertificate:
    def run_fail(self, g, part, amount, eps=0.1, seed=1):
        res, fail_ctx = route_fixed_flow(g, part, None, 0, g.n - 1, amount, eps,
                                         RunConfig(eps=eps, seed=seed))
        assert fail_ctx is not None
        inst, fail, d = fail_ctx
        return cut_certificate(inst, fail, eps)

    def test_single_edge_over_demand(self):
        g = WeightedGraph(2, [(0, 1)], capacity=[1.0])
        part = partition_from_groups(g, [np.array([0])], r=4, terminals=(0, 1))
        cert = self.run_fail(g, part, 2.0)
        assert cert.gradient_capacity <= 1 + 1e-8
        assert cert.demand_value >= 1 - 10 * 0.1 - 1e-8
        assert cert.cut_capacity == pytest.approx(1.0)

    def test_path_of_three(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], capacity=np.ones(3))
        part = partition_from_groups(g, [np.arange(3)], r=8, terminals=(0, 3))
        cert = self.run_fail(g, part, 2.0)
        assert cert.gradient_capacity <= 1 + 1e-8
        assert cert.demand_value >= 1 - 10 * 0.1 - 1e-8
        assert cert.cut_capacity == pytest.approx(1.0)

    def test_certificate_meaningful_at_small_eps(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], capacity=np.ones(3))
        part = partition_from_groups(g, [np.arange(3)], r=8, terminals=(0, 3))
        cert = self.run_fail(g, part, 4.0, eps=0.02)
        assert cert.gradient_capacity <= 1 + 1e-8
        assert cert.demand_value >= 1 - 10 * 0.02 - 1e-8

    def test_bottleneck_grid_sweep(self):
        # 8x8 grid with a weak column: the sweep should find a small cut
        eps = 0.05
        g0 = grid_graph(8, 8)
        cap = np.ones(g0.m) * 5.0
        # weaken the vertical cut between columns 3 and 4
        for e, (u, v) in enumerate(zip(g0.tails, g0.heads)):
            if v == u + 1 and u % 8 == 3:
                cap[e] = 0.1
        g = WeightedGraph(g0.n, g0.edges, capacity=cap)
        part = grid_r_division(8, 8, 1, 32, terminals=(0, 63), graph=g)
        exact = exact_max_flow_oracle(g, 0, 63)
        cert = self.run_fail(g, part, 50.0, eps=eps)
        assert cert.cut_capacity <= exact.cut_capacity / (1 - 10 * eps) + 1e-6
        # weak duality against a feasible run on the same instance
        res = approx_max_flow(g, part, None, 0, 63, eps, RunConfig(eps=eps, seed=2))
        assert cert.cut_capacity >= res.value - 1e-9

    def test_sweep_cut_separates(self):
        g = grid_graph(5, 5)
        phi = np.linspace(1.0, 0.0, g.n)
        side, cap = sweep_cut(g, phi, 0, g.n - 1)
        assert 0 in side and (g.n - 1) not in side
        assert cap > 0

    def test_sweep_cut_tied_terminals(self):
        g = grid_graph(4, 4)
        phi = np.zeros(g.n)
        with pytest.raises(GraphError, match="equal potentials"):
            sweep_cut(g, phi, 9, 2)
        side, _ = sweep_cut(g, phi, 2, 9)  # s ranks first on a tie: a cut exists
        assert 2 in side and 9 not in side

    def test_sweep_phase_raises_on_tied_terminals(self):
        # a phase sweeps the potentials of a certified s-t flow, whose
        # terminals differ; tied ones are a broken invariant, not a cut to skip
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, terminals=(0, 15), graph=g)
        run = pipeline._Run(g, part, None, 15, 0, 0.1, None, "sweep")
        inst = pipeline._direct_instance(g, part, np.ones(g.m))
        with pytest.raises(GraphError, match="equal potentials"):
            run.sweep_phase(inst, np.zeros(g.n))
        assert run.cut_bound == math.inf


def reference_sweep_cut(g, phi, s, t):
    """The vertex-at-a-time sweep that ``sweep_cut`` vectorizes."""
    order = np.argsort(-phi, kind="stable")
    rank = np.empty(g.n, dtype=np.int64)
    rank[order] = np.arange(g.n)
    if rank[s] > rank[t]:
        order = np.argsort(phi, kind="stable")
        rank[order] = np.arange(g.n)
    lo, hi = rank[s], rank[t]
    in_side = np.zeros(g.n, dtype=bool)
    cut = 0.0
    best = (np.inf, None)
    adj = incidences(g)
    for pos in range(hi):
        v = order[pos]
        in_side[v] = True
        for u, e in adj[v]:
            cut += -g.capacity[e] if in_side[u] else g.capacity[e]
        if pos >= lo:
            if cut < best[0]:
                best = (cut, pos)
    cut_side = order[:best[1] + 1]
    return np.sort(cut_side), float(best[0])


@settings(max_examples=150, deadline=None)
@given(n=st.integers(2, 30), extra=st.integers(0, 40), seed=st.integers(0, 2**32 - 1),
       tied=st.booleans(), flip=st.booleans(), s=st.integers(0, 29), t=st.integers(0, 29))
def test_sweep_cut_matches_reference_loop(n, extra, seed, tied, flip, s, t):
    s, t = s % n, t % n
    assume(s != t)
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, n, extra)
    # tied potentials take few values; flip reverses the s-t orientation
    phi = rng.integers(0, 3, n).astype(float) if tied else rng.normal(size=n)
    if flip:
        phi = -phi
    assume(phi[s] != phi[t])
    side, cap = sweep_cut(g, phi, s, t)
    ref_side, ref_cap = reference_sweep_cut(g, phi, s, t)
    assert abs(cap - ref_cap) <= 1e-12 * abs(ref_cap)
    mask = np.zeros(g.n, dtype=bool)
    mask[side] = True
    assert mask[s] and not mask[t]
    assert np.array_equal(side, np.sort(side))
    assert cap == pytest.approx(float(g.capacity[mask[g.tails] != mask[g.heads]].sum()),
                                rel=1e-12)


def assert_valid_certificate(g, s, t, cert, exact, eps):
    """The conditions the benchmark checks on an overload verdict."""
    assert cert.gradient_capacity <= 1 + 1e-8
    assert cert.demand_value >= 1 - 10 * eps
    side = np.zeros(g.n, dtype=bool)
    side[np.asarray(cert.cut_side, dtype=np.int64)] = True
    assert side[s] and not side[t]
    crossing = float(g.capacity[side[g.tails] != side[g.heads]].sum())
    assert abs(crossing - cert.cut_capacity) <= 1e-9 * max(crossing, 1.0)
    assert cert.cut_capacity >= exact * (1 - 1e-9)


def strong_terminal_grid(n, seed, s, t):
    """Random-capacity grid whose terminals' edges are 10x stronger, so that
    its min cut is not a terminal's star."""
    g = random_capacity_grid(n, n, seed=seed)
    cap = g.capacity.copy()
    cap[np.isin(g.tails, (s, t)) | np.isin(g.heads, (s, t))] *= 10.0
    return WeightedGraph(g.n, g.edges, capacity=cap)


class TestSweptCutVerdict:
    @pytest.mark.parametrize("n, factor, seed, interior", [
        (8, 2.0, 1, False), (12, 3.0, 2, False), (16, 4.0, 3, False), (12, 2.0, 3, True)])
    def test_overload_decided_after_one_outer_iteration(self, n, factor, seed, interior):
        eps = 0.1
        if interior:
            s, t = 3 * n + 3, 8 * n + 8
            g = strong_terminal_grid(n, seed, s, t)
        else:
            s, t = 0, n * n - 1
            g = random_capacity_grid(n, n, seed=seed)
        part = grid_r_division(n, n, 1, 16, terminals=(s, t), graph=g)
        exact = exact_max_flow_oracle(g, s, t).value
        res, fail_ctx = route_fixed_flow(g, part, None, s, t, factor * exact, eps,
                                         RunConfig(eps=eps, r=16, seed=seed))
        assert res is None
        inst, fail, d = fail_ctx
        assert isinstance(fail, SweptCutFail)
        c = inst.stats.counters()
        assert c["iterations_outer"] == 1 and c["iterations_inner_total"] == 0
        assert c["cut_verdicts"] == 1
        cert = cut_certificate(inst, fail, eps)
        assert_valid_certificate(g, s, t, cert, exact, eps)
        assert cert.gradient_capacity == pytest.approx(1.0)
        assert cert.demand_value == pytest.approx(factor * exact / cert.cut_capacity)
        if interior:
            assert 1 < cert.cut_side.size < g.n - 1

    def test_energy_certificate_from_grouped_flow_fail(self):
        eps = 0.1
        g = random_capacity_grid(10, 10, seed=4)
        s, t = 0, g.n - 1
        part = grid_r_division(10, 10, 1, 16, terminals=(s, t), graph=g)
        exact = exact_max_flow_oracle(g, s, t).value
        w = oracle_edge_weights(np.ones(g.m), g.capacity, part.groups, eps)
        inst = build_sparsified_instance(g, part, w, eps / 10)
        res = approx_grouped_flow(inst, st_demand(g.n, s, t, 4 * exact), eps / 10)
        assert res.failed and isinstance(res.fail, GroupedFlowFail)
        cert = cut_certificate(inst, res.fail, eps)
        assert_valid_certificate(g, s, t, cert, exact, eps)

    @pytest.mark.parametrize("one_group", [False, True], ids=["edge-groups", "one-group"])
    def test_energy_verdict_ends_a_fixed_flow_phase(self, one_group):
        # a unit path at 1.02x its max flow: the swept cut (capacity 1) is
        # above the success target, so no sweep decides, and the phase ends
        # in grouped flow's energy test
        eps = 0.1
        g = WeightedGraph(10, [(i, i + 1) for i in range(9)])
        if one_group:
            part = partition_from_groups(g, [np.arange(g.m)], r=g.m, terminals=(0, 9))
        else:
            part = partition_from_groups(g, [[e] for e in range(g.m)], r=4, terminals=(0, 9))
        res, fail_ctx = route_fixed_flow(g, part, None, 0, 9, 1.02, eps,
                                         RunConfig(eps=eps, r=4))
        assert res is None
        inst, fail, _ = fail_ctx
        assert isinstance(fail, GroupedFlowFail) and inst.stats.cut_verdicts == 0
        cert = cut_certificate(inst, fail, eps)
        assert_valid_certificate(g, 0, 9, cert, 1.0, eps)
        assert cert.cut_capacity == 1.0

    def test_energy_certificate_without_a_source_and_sink_has_no_cut(self):
        # cut_certificate is public: a fail whose demand has no positive and
        # negative entry gets potentials but no s-t cut to sweep
        g = WeightedGraph(10, [(i, i + 1) for i in range(9)])
        part = partition_from_groups(g, [[e] for e in range(g.m)], r=4, terminals=(0, 9))
        _, (inst, fail, _) = route_fixed_flow(g, part, None, 0, 9, 1.02, 0.1,
                                              RunConfig(eps=0.1, r=4))
        cert = cut_certificate(inst, replace(fail, demand=np.zeros_like(fail.demand)), 0.1)
        assert cert.cut_side is None and cert.cut_capacity is None
        assert not cert.potentials.any() and cert.demand_value == 0.0

    def test_near_threshold_request_gets_no_verdict(self, monkeypatch):
        """At 1.02x the max flow no swept cut falls below the target, and the
        phase runs exactly as it does with the sweep never deciding."""
        g = random_capacity_grid(12, 12, seed=12)
        amount = 1.02 * exact_max_flow_oracle(g, 0, g.n - 1).value

        def run():
            part = grid_r_division(12, 12, 1, 16, terminals=(0, g.n - 1), graph=g)
            return route_fixed_flow(g, part, None, 0, g.n - 1, amount, 0.1,
                                    RunConfig(eps=0.1, r=16, seed=1))

        res, fail_ctx = run()
        assert fail_ctx is None and res.stats.cut_verdicts == 0
        monkeypatch.setattr(pipeline, "sweep_cut", lambda g, phi, s, t: (None, np.inf))
        base, base_ctx = run()
        assert base_ctx is None
        assert res.value == base.value and np.array_equal(res.flow, base.flow)
        assert res.stats.counters() == base.stats.counters()

    def test_fixed_flow_phase_is_probe_one(self):
        # a routed and an overloaded request each run one phase, numbered 1
        # as approx_max_flow numbers its first probe
        g = random_capacity_grid(12, 12, seed=3)
        part = grid_r_division(12, 12, 1, 16, terminals=(0, g.n - 1), graph=g)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        for factor in (0.5, 3.0):
            res, fail_ctx = route_fixed_flow(g, part, None, 0, g.n - 1, factor * exact, 0.1,
                                             RunConfig(eps=0.1, r=16, seed=3))
            stats = res.stats if fail_ctx is None else fail_ctx[0].stats
            assert (fail_ctx is None) == (factor < 1)
            assert stats.probes == 1
            assert all(row[0] == 1 for row in stats.trace_rows)
            assert len(stats.trace_rows) == stats.iterations_outer  # a fail verdict's too

    @pytest.mark.parametrize("amount", [0.0, -5.0, float("nan"), float("inf")])
    def test_unusable_amount_rejected_before_any_work(self, monkeypatch, amount):
        g = random_capacity_grid(8, 8, seed=3)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, g.n - 1), graph=g)

        def no_phase(*args, **kwargs):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(pipeline, "_oracle_phase", no_phase)
        with pytest.raises(GraphError, match="finite and positive"):
            route_fixed_flow(g, part, None, 0, g.n - 1, amount, 0.1)

    def test_disconnected_graph_rejected_before_any_work(self, monkeypatch):
        # two triangles, s in one and t in the other, in one group
        g = WeightedGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        part = partition_from_groups(g, [np.arange(g.m)], r=16, terminals=(0, 5))

        def no_phase(*args, **kwargs):
            raise AssertionError("a phase ran")

        monkeypatch.setattr(pipeline, "_oracle_phase", no_phase)
        with pytest.raises(DisconnectedGraphError, match="requires a connected graph"):
            route_fixed_flow(g, part, None, 0, 5, 1.0, 0.1)


class TestDeterminism:
    def test_same_seed_same_result(self):
        g = random_capacity_grid(8, 8, seed=9)
        part = grid_r_division(8, 8, 1, 32, terminals=(0, 63), graph=g)
        a = approx_max_flow(g, part, None, 0, 63, 0.1, RunConfig(eps=0.1, seed=4))
        b = approx_max_flow(g, part, None, 0, 63, 0.1, RunConfig(eps=0.1, seed=4))
        assert a.value == b.value
        assert np.array_equal(a.flow, b.flow)

    def test_same_seed_repeats_solver_counters(self):
        # a 12x12x6 grid has band 66: the run carries one lagged LU factor
        g = random_capacity_grid(12, 12, 6, seed=4)

        def run():
            part = grid_r_division(12, 12, 6, 96, terminals=(0, g.n - 1), graph=g)
            return approx_max_flow(g, part, None, 0, g.n - 1, 0.1,
                                   RunConfig(eps=0.1, r=96, seed=4))

        a, b = run(), run()
        ca = a.stats.counters()
        assert ca == b.stats.counters()
        assert np.array_equal(a.flow, b.flow)
        assert 0 < ca["factorizations"] < ca["electrical_flows"]
        assert ca["factorizations"] + ca["rebinds"] == ca["electrical_flows"]
        assert ca["pcg_iterations"] >= ca["rebinds"]
