"""Differential tests of the per-group elimination against independent references."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, RunConfig, SolverConvergenceError, SparseLaplacian,
                     SparsifierPlan, ValidationError, WeightedGraph, approx_max_flow,
                     build_sparsified_instance, convert_flow,
                     cut_certificate, exact_max_flow_oracle, exact_schur, grid_graph,
                     grid_r_division, one_step_vertex_sparsify, optimum_energy,
                     partition_from_groups, random_capacity_grid, residual_of_vector,
                     route_fixed_flow)
from sepflow import partition, schur
from sepflow.grids import GridSpec
from sepflow.pipeline import STAGES
from sepflow.schur import GroupElimination, GroupTopology

from conftest import random_connected_graph

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def random_groups(rng, g, k):
    """Random edge split into k groups, each with a boundary that meets every
    component of the group subgraph."""
    owner = rng.integers(0, k, g.m)
    owner[:k] = np.arange(k)  # no empty group
    groups = [np.flatnonzero(owner == i) for i in range(k)]
    boundaries = []
    for grp in groups:
        sub_verts = np.unique(np.concatenate([g.tails[grp], g.heads[grp]]))
        sub = WeightedGraph(sub_verts.size, np.column_stack(
            [np.searchsorted(sub_verts, g.tails[grp]), np.searchsorted(sub_verts, g.heads[grp])]))
        _, labels = sub.components()
        firsts = sub_verts[np.unique(labels, return_index=True)[1]]
        extra = sub_verts[rng.random(sub_verts.size) < rng.uniform(0.2, 0.9)]
        boundaries.append(np.union1d(firsts, extra))
    return groups, boundaries


def group_laplacian(g, grp, conductance):
    verts = np.unique(np.concatenate([g.tails[grp], g.heads[grp]]))
    lap = SparseLaplacian.from_edges(verts.size, np.searchsorted(verts, g.tails[grp]),
                                     np.searchsorted(verts, g.heads[grp]), conductance[grp])
    return verts, lap


def schur_complement(elim, i):
    """Group i's dense Schur complement onto its sorted boundary, read from
    ``elim.schur``, its shape class's stack."""
    for cls, stack in zip(elim.topology.classes, elim.schur):
        j = np.searchsorted(cls.members, i)
        if j < cls.members.size and cls.members[j] == i:
            return stack[j]
    raise AssertionError(f"group {i} has no boundary")


class TestDenseSchur:
    @SETTINGS
    @given(n=st.integers(3, 18), extra=st.integers(0, 20), k=st.integers(1, 4),
           seed=st.integers(0, 2**31))
    @example(n=144, extra=120, k=1, seed=11)  # one group of 144 vertices
    def test_equals_exact_schur_on_random_groups(self, n, extra, k, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        k = min(k, g.m)
        groups, boundaries = random_groups(rng, g, k)
        cond = rng.uniform(0.1, 10.0, g.m)
        elim = GroupElimination(GroupTopology(g, groups, boundaries), cond)
        for i, grp in enumerate(groups):
            verts, lap = group_laplacian(g, grp, cond)
            ref = exact_schur(lap, np.searchsorted(verts, boundaries[i])).dense()
            ours = schur_complement(elim, i)
            # relative to the group's own entries: a one-vertex boundary has S = 0
            assert np.abs(ours - ref).max() <= 1e-9 * cond[grp].max()
        # the least merged weights, summed without the stack, equal the
        # negated off-diagonals of the stack bit for bit
        for cls, w_min in zip(elim.topology.classes, elim.w_min):
            stack = cls.laplacians(elim.conductance[cls.edges]).reshape(-1)
            assert np.array_equal(w_min, np.minimum.reduceat(-stack[cls.pairs], cls.pair_starts))

    def test_group_without_interior(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        cond = np.array([1.0, 3.0])
        elim = GroupElimination(GroupTopology(g, [np.arange(2)], [np.arange(3)]), cond)
        assert np.allclose(schur_complement(elim, 0), g.laplacian_csr(cond).toarray())

    def test_interior_in_several_pieces(self):
        # boundary {0, 2, 4} cuts the interior of the path into {1} and {3}
        g = WeightedGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        cond = np.array([1.0, 1.0, 2.0, 2.0])
        elim = GroupElimination(GroupTopology(g, [np.arange(4)], [np.array([0, 2, 4])]), cond)
        expect = exact_schur(SparseLaplacian(g.laplacian_csr(cond)), [0, 2, 4]).dense()
        assert np.allclose(schur_complement(elim, 0), expect, atol=1e-12)
        assert schur_complement(elim, 0)[0, 2] == 0.0

    def test_one_step_matches_batched_sparsifier(self, rng):
        # the public one-step sparsifier and the batched pipeline path share one kernel
        g0 = grid_graph(6, 6)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g0)
        w = rng.uniform(0.5, 2.0, g0.m)
        inst = build_sparsified_instance(g0, part, w, 0.05)
        qv = inst.quotient_vertices
        for i, grp in enumerate(part.groups):
            verts, lap = group_laplacian(g0, grp, 1.0 / w)
            vs = one_step_vertex_sparsify(lap, np.searchsorted(verts, part.boundaries[i]), 0.05)
            t, h, c = vs.laplacian.edge_list()
            q = inst.quotient_graph
            qg = inst.quotient_groups[i]
            assert np.array_equal(qv[q.tails[qg]], verts[vs.boundary][t])
            assert np.array_equal(qv[q.heads[qg]], verts[vs.boundary][h])
            assert np.allclose(1.0 / q.weight[qg], c, rtol=1e-12)


    def test_sparsifier_weight_ratio_checked(self):
        # a planted Schur complement with one boundary pair 1e12 times
        # stronger than the group's unit edges spans far more than 10 n^5 U
        g = grid_graph(6, 6)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g)
        elim = GroupElimination(part.topology(g), np.ones(g.m))
        elim.sparsify(0.1)  # the unplanted groups pass
        s = elim.schur[-1][0]
        s[0, 1] -= 1e12
        s[1, 0] -= 1e12
        s[0, 0] += 1e12
        s[1, 1] += 1e12
        with pytest.raises(ValidationError, match=r"sparsifier weight ratio .* exceeds 10 n\^5 U"):
            elim.sparsify(0.1)

    def test_a_group_over_the_edge_budget_raises(self, rng, monkeypatch):
        # nothing is sampled: a sparsifier over the edge budget is an error,
        # here under a budget factor cut so low that every group's clique is
        # over it
        g = grid_graph(6, 6)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g)
        w = rng.uniform(0.5, 2.0, g.m)
        topo = part.topology(g)
        elim = GroupElimination(topo, 1.0 / w)
        elim.sparsify(0.3)  # within the budget at the default factor
        monkeypatch.setattr(schur, "SPARSIFY_EDGE_FACTOR", 1e-3)
        first = int(topo.classes[0].members[0])
        message = rf"group {first}: sparsifier has \d+ edges, budget \d+"
        with pytest.raises(ValidationError, match=message):
            elim.sparsify(0.3)
        with pytest.raises(ValidationError, match=message):
            build_sparsified_instance(g, part, w, 0.3)

    @pytest.mark.parametrize("eps", [0.05, 0.3])
    def test_one_edge_budget_rule(self, rng, monkeypatch, eps):
        # the batched build raises exactly when a group's one-step sparsifier
        # is over ``VertexSparsifier.edge_budget`` at the same eps.  ``tight``
        # is the budget factor at which the first group goes over; a factor
        # between tight / 9 and tight is over the budget at eps but not at
        # eps / 3, so it tells the two rules apart
        g = grid_graph(8, 8)
        part = grid_r_division(8, 8, 1, 12, terminals=(0, 63), graph=g)
        c = 1.0 / rng.uniform(0.5, 2.0, g.m)
        sparsifiers = []
        for grp, bdry in zip(part.groups, part.boundaries):
            verts, lap = group_laplacian(g, grp, c)
            sparsifiers.append(one_step_vertex_sparsify(lap, np.searchsorted(verts, bdry), eps))
        tight = max(schur.SPARSIFY_EDGE_FACTOR * vs.laplacian.num_edges / vs.edge_budget()
                    for vs in sparsifiers)
        elim = GroupElimination(part.topology(g), c)
        for factor in (0.99 * tight, 0.5 * tight, 0.2 * tight, 1.01 * tight):
            monkeypatch.setattr(schur, "SPARSIFY_EDGE_FACTOR", factor)
            over = [vs for vs in sparsifiers if vs.laplacian.num_edges > vs.edge_budget()]
            assert bool(over) == (factor < tight)
            if over:
                with pytest.raises(ValidationError, match="sparsifier has"):
                    elim.sparsify(eps)
                with pytest.raises(ValidationError, match="sparsifier has"):
                    over[0].validate()
            else:
                elim.sparsify(eps)


class TestDistinctKeys:
    """The (group, vertex) keys of a topology and the vertices of a group,
    deduplicated by one sort and a mask, against ``np.unique``."""

    @SETTINGS
    @given(n=st.integers(2, 30), extra=st.integers(0, 30), k=st.integers(1, 6),
           seed=st.integers(0, 2**31))
    def test_topology_keys_match_np_unique(self, n, extra, k, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        k = min(k, g.m)
        groups, boundaries = random_groups(rng, g, k)
        topo = GroupTopology(g, groups, boundaries)
        ref = np.unique(np.concatenate([topo.edge_group * g.n + g.tails[topo.edges],
                                        topo.edge_group * g.n + g.heads[topo.edges]]))
        assert topo.keys.dtype == ref.dtype and np.array_equal(topo.keys, ref)
        bkeys = np.unique(np.concatenate([np.full(len(b), i) * g.n + b
                                          for i, b in enumerate(boundaries)]))
        slot_keys = topo.slot_group * g.n + topo.slot_vertex
        assert np.array_equal(np.sort(slot_keys[topo.on_boundary]), bkeys)
        # a boundary vertex listed twice is one boundary vertex; one that
        # does not touch its group is an error
        doubled = [np.concatenate([b, b]) for b in boundaries]
        assert np.array_equal(GroupTopology(g, groups, doubled).on_boundary, topo.on_boundary)
        touched = np.zeros(g.n, dtype=bool)
        touched[g.tails[groups[0]]] = touched[g.heads[groups[0]]] = True
        if not touched.all():
            stray = [np.append(boundaries[0], np.flatnonzero(~touched)[0])] + boundaries[1:]
            with pytest.raises(GraphError, match="does not touch its group"):
                GroupTopology(g, groups, stray)

    @pytest.mark.parametrize("shape, r", [((6, 6, 1), 12), ((7, 5, 2), 20), ((12, 12, 1), 16)])
    def test_group_vertices_match_np_unique(self, shape, r):
        g = grid_graph(*shape)
        part = grid_r_division(*shape, r, terminals=(0, g.n - 1), graph=g)
        for i, grp in enumerate(part.groups):
            ref = np.unique(np.concatenate([g.tails[grp], g.heads[grp]]))
            ours = part.group_vertices(g, i)
            assert ours.dtype == ref.dtype and np.array_equal(ours, ref)


class TestConversion:
    @SETTINGS
    @given(n=st.integers(3, 16), extra=st.integers(0, 16), k=st.integers(1, 3),
           seed=st.integers(0, 2**31))
    def test_routes_boundary_demand_near_optimally(self, n, extra, k, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        k = min(k, g.m)
        groups, boundaries = random_groups(rng, g, k)
        r = rng.uniform(0.1, 10.0, g.m)
        topo = GroupTopology(g, groups, boundaries)
        if not topo.connected.all():
            return  # conversion needs connected groups
        elim = GroupElimination(topo, 1.0 / r)
        delta = 1e-3
        demand = np.zeros(topo.slot_group.size)
        wanted = []
        for i in range(k):
            nb = topo.n_boundary[i]
            vals = rng.normal(size=nb)
            vals -= vals.mean()
            demand[topo.voff[i]:topo.voff[i] + nb] = vals
            d = np.zeros(g.n)
            d[boundaries[i]] = vals  # slots list the sorted boundary first
            wanted.append(d)
        flow = np.zeros(g.m)
        flow[topo.edges] = elim.route(demand, delta)
        for i, grp in enumerate(groups):
            res = residual_of_vector(flow, g, grp)
            assert np.abs(res - wanted[i]).max() <= 1e-9 * max(np.abs(wanted[i]).max(), 1.0)
            verts, _ = group_laplacian(g, grp, 1.0 / r)
            sub = WeightedGraph(verts.size, np.column_stack(
                [np.searchsorted(verts, g.tails[grp]), np.searchsorted(verts, g.heads[grp])]))
            e_opt = optimum_energy(sub, wanted[i][verts], resistances=r[grp])
            energy = float(np.sum(r[grp] * flow[grp] ** 2))
            assert energy <= (1 + delta) * e_opt + 1e-12

    def test_a_group_that_misses_its_gap_is_named(self):
        # a perturbed Schur complement puts one group's potentials off, so its
        # flow is no longer electrical and its duality gap names it
        g = random_capacity_grid(6, 6, seed=1)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g)
        topo = GroupTopology(g, part.groups, part.boundaries)
        elim = GroupElimination(topo, 1.0 / g.capacity)
        demand = np.zeros(topo.slot_group.size)
        for i in range(topo.k):
            nb = topo.n_boundary[i]
            demand[topo.voff[i]:topo.voff[i] + nb] = np.linspace(-1.0, 1.0, nb)
        elim.route(demand, 1e-3)  # exact complements: every group meets its gap
        c = next(c for c, cls in enumerate(topo.classes) if cls.nb >= 2)
        elim.schur[c] = elim.schur[c].copy()
        elim.schur[c][0] *= 2.0
        with pytest.raises(SolverConvergenceError,
                           match=f"group {topo.classes[c].members[0]}: electrical flow gap"):
            elim.route(demand, 1e-3)

    def test_disconnected_destination_group_rejected(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)])
        with pytest.raises(GraphError, match="disconnected"):
            convert_flow(g, [np.arange(2)], g, [np.arange(2)], np.array([1.0, 0.0]), 0.1)


class TestCertificateExtension:
    def test_cached_extension_equals_scaled_fresh_solve(self, rng):
        g = grid_graph(6, 6)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g)
        w = rng.uniform(0.5, 2.0, g.m)
        inst = build_sparsified_instance(g, part, w, 0.01)
        phi = np.zeros(g.n)
        phi[inst.quotient_vertices] = rng.normal(size=inst.quotient_vertices.size)
        ours = inst.elimination.extend(phi)
        for i, grp in enumerate(part.groups):
            interior = np.setdiff1d(part.group_vertices(g, i), part.boundaries[i])
            if interior.size == 0:
                continue
            r = np.ones(g.m)
            r[grp] = rng.uniform(0.1, 10.0) * w[grp]  # one scalar per group
            verts, lap = group_laplacian(g, grp, 1.0 / r)
            li = np.searchsorted(verts, interior)
            lb = np.searchsorted(verts, part.boundaries[i])
            rhs = -(lap.matrix[li][:, lb] @ phi[part.boundaries[i]])
            fresh = np.linalg.solve(lap.matrix[li][:, li].toarray(), rhs)
            assert np.allclose(ours[interior], fresh, rtol=1e-9, atol=1e-12)
            assert np.array_equal(ours[part.boundaries[i]], phi[part.boundaries[i]])


def dust_instance():
    """Two groups on {0, 1, 2}: group 0 joins 0 and 1 only through interior vertex 3."""
    g = WeightedGraph(5, [(0, 3), (3, 1), (1, 2), (0, 2), (0, 4), (4, 2), (1, 4)])
    part = partition_from_groups(g, [np.arange(4), np.arange(4, 7)], r=8, terminals=(0, 2))
    return g, part


class TestQuotientPattern:
    def expected_quotient(self, g, part, w, eps):
        """Quotient edges (global tail, global head, weight) from the public sparsifier."""
        out = []
        for i, grp in enumerate(part.groups):
            verts, lap = group_laplacian(g, grp, 1.0 / w)
            vs = one_step_vertex_sparsify(lap, np.searchsorted(verts, part.boundaries[i]), eps)
            t, h, c = vs.laplacian.edge_list()
            b = verts[vs.boundary]
            out.extend(zip(b[t].tolist(), b[h].tolist(), (1.0 / c).tolist()))
        return out

    def assert_quotient(self, inst, expected):
        q, qv = inst.quotient_graph, inst.quotient_vertices
        got = list(zip(qv[q.tails].tolist(), qv[q.heads].tolist(), q.weight.tolist()))
        assert [e[:2] for e in got] == [e[:2] for e in expected]
        assert np.allclose([e[2] for e in got], [e[2] for e in expected], rtol=1e-12)

    def test_same_pattern_reuses_structure(self):
        g, part = dust_instance()
        a = build_sparsified_instance(g, part, np.ones(g.m), 0.01)
        w = np.linspace(1.0, 2.0, g.m)
        b = build_sparsified_instance(g, part, w, 0.01)
        assert b.quotient_graph is not a.quotient_graph
        assert b.quotient_graph._structure is a.quotient_graph._structure
        self.assert_quotient(b, self.expected_quotient(g, part, w, 0.01))

    def test_pattern_change_forces_rebuild(self):
        g, part = dust_instance()
        ones = np.ones(g.m)
        a = build_sparsified_instance(g, part, ones, 0.01)
        # a huge resistance on edge 0-3 turns the Schur entry (0, 1) into dust
        w = ones.copy()
        w[0] = 1e16
        b = build_sparsified_instance(g, part, w, 0.01)
        assert b.quotient_graph._structure is not a.quotient_graph._structure
        assert b.quotient_graph.m == a.quotient_graph.m - 1
        self.assert_quotient(b, self.expected_quotient(g, part, w, 0.01))
        c = build_sparsified_instance(g, part, ones, 0.01)
        assert c.quotient_graph._structure is not b.quotient_graph._structure
        assert c.quotient_graph.m == a.quotient_graph.m
        self.assert_quotient(c, self.expected_quotient(g, part, ones, 0.01))


class TestBuildPreconditions:
    def test_boundary_of_one_vertex_rejected(self):
        # group 1 is the pendant edge 2-3, whose only boundary vertex is 2
        g = WeightedGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        part = partition_from_groups(g, [np.arange(3), np.array([3])], r=4, terminals=(0, 1))
        with pytest.raises(GraphError, match=r"group 1 has boundary of size 1; need >= 2"):
            build_sparsified_instance(g, part, np.ones(g.m), 0.01)

    def test_disconnected_group_named_before_any_factor(self):
        # group 1 holds edge 1-2 and the stray edge 3-4, whose component has no
        # boundary vertex, so factoring it would find a singular interior block
        g = WeightedGraph(5, [(0, 1), (1, 2), (3, 4)])
        part = partition_from_groups(g, [np.array([0]), np.array([1, 2])], r=4, terminals=(0, 2))
        with pytest.raises(GraphError, match="group 1 is disconnected; sparsifiers need connected"):
            build_sparsified_instance(g, part, np.ones(g.m), 0.01)
        with pytest.raises(GraphError, match="interior block is not positive definite"):
            GroupElimination(part.topology(g), np.ones(g.m))


def loop_boundary_sets(g, groups, terminals):
    """The boundary definition, one edge at a time: per-group boundaries and
    the vertices that touch two groups or are terminals."""
    touch = [set() for _ in range(g.n)]
    for i, grp in enumerate(groups):
        for e in grp:
            touch[g.tails[e]].add(i)
            touch[g.heads[e]].add(i)
    term = set(int(t) for t in terminals)
    boundaries = []
    for grp in groups:
        verts = sorted(set(g.tails[grp].tolist()) | set(g.heads[grp].tolist()))
        boundaries.append([v for v in verts if len(touch[v]) > 1 or v in term])
    return boundaries, [len(touch[v]) > 1 or v in term for v in range(g.n)]


class TestSetupPath:
    @SETTINGS
    @given(n=st.integers(2, 30), extra=st.integers(0, 30), k=st.integers(1, 6),
           n_term=st.integers(0, 3), seed=st.integers(0, 2**31))
    def test_vectorized_boundary_sets_match_definition(self, n, extra, k, n_term, seed):
        rng = np.random.default_rng(seed)
        g = random_connected_graph(rng, n, extra)
        k = min(k, g.m)
        owner = rng.integers(0, k, g.m)
        owner[:k] = np.arange(k)
        groups = [np.flatnonzero(owner == i) for i in range(k)]
        terminals = tuple(rng.choice(n, size=min(n_term, n), replace=False).tolist())
        # the sets alone, whatever the size clauses say of these random groups
        with mock.patch.object(partition, "_check_sizes"):
            part = partition._partition_from_ids(g, owner, k, g.m, terminals)
        got_b, got_mask = part.boundaries, part.is_boundary
        assert [grp.tolist() for grp in part.groups] == [grp.tolist() for grp in groups]
        ref_b, ref_mask = loop_boundary_sets(g, groups, terminals)
        assert [b.tolist() for b in got_b] == ref_b
        assert got_mask.tolist() == ref_mask
        # on a connected graph the mask is the union of the boundaries
        assert np.array_equal(np.flatnonzero(got_mask), np.unique(np.concatenate(got_b)))

    @pytest.mark.parametrize("dims", [(2, 2, 1), (3, 5, 1), (4, 3, 3), (2, 2, 2)])
    def test_grid_edges_keep_scan_order(self, dims):
        spec = GridSpec(*dims)
        out = []
        for layer in range(spec.layers):
            for row in range(spec.rows):
                for col in range(spec.cols):
                    v = spec.vertex(layer, row, col)
                    if col + 1 < spec.cols:
                        out.append((v, spec.vertex(layer, row, col + 1)))
                    if row + 1 < spec.rows:
                        out.append((v, spec.vertex(layer, row + 1, col)))
                    if layer + 1 < spec.layers:
                        out.append((v, spec.vertex(layer + 1, row, col)))
        assert np.array_equal(spec.edges(), np.array(out, dtype=np.int64))

    def test_topology_built_on_first_use_only(self):
        g = random_capacity_grid(8, 8, seed=9)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, 63), graph=g)
        assert part._topology is None
        direct = approx_max_flow(g, part, None, 0, 63, 0.1, RunConfig(eps=0.1, seed=4))
        assert direct.stats.topology_builds == 0 and part._topology is None
        plan = SparsifierPlan("one-step")
        a = approx_max_flow(g, part, plan, 0, 63, 0.1, RunConfig(eps=0.1, seed=4))
        assert a.stats.topology_builds == 1
        b = approx_max_flow(g, part, plan, 0, 63, 0.1, RunConfig(eps=0.1, seed=4))
        assert b.stats.topology_builds == 0
        assert a.value == b.value and np.array_equal(a.flow, b.flow)


class TestRunStats:
    def test_stage_timings_add_up_to_total(self):
        g = random_capacity_grid(10, 10, seed=2)
        part = grid_r_division(10, 10, 1, 16, terminals=(0, g.n - 1), graph=g)
        res = approx_max_flow(g, part, SparsifierPlan("one-step"), 0, g.n - 1, 0.1,
                              RunConfig(eps=0.1, seed=2))
        t = res.stats.timings
        assert set(t) == set(STAGES) | {"total"}
        assert abs(sum(t[s] for s in STAGES) - t["total"]) <= 0.05 * t["total"]
        c = res.stats.counters()
        assert c["sparsifier_builds"] == part.k * c["iterations_outer"]

        direct = approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, seed=2))
        t = direct.stats.timings
        assert abs(sum(t[s] for s in STAGES) - t["total"]) <= 0.05 * t["total"]
        c = direct.stats.counters()
        assert c["route"] == "direct"
        assert c["sparsifier_builds"] == c["topology_builds"] == 0
        assert t["sparsify"] == t["quotient_assemble"] == t["convert"] == 0.0

    def test_certificate_time_joins_the_run(self):
        g = random_capacity_grid(8, 8, seed=400)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, 63), graph=g)
        _, fail_ctx = route_fixed_flow(g, part, None, 0, 63, 100.0, 0.1, RunConfig(eps=0.1, seed=7))
        inst, fail, _ = fail_ctx
        before = inst.stats.timings["total"]
        cut_certificate(inst, fail, 0.1)
        t = inst.stats.timings
        assert t["certificate"] > 0
        assert t["total"] == pytest.approx(before + t["certificate"])
        assert abs(sum(t[s] for s in STAGES) - t["total"]) <= 0.05 * t["total"]

    def test_counters_identical_on_same_seed_rerun(self, tmp_path):
        """Two runs with the same seed give identical counters."""
        from sepflow.cli import main

        payloads = []
        for tag in ("a", "b"):
            path = tmp_path / f"res{tag}.json"
            assert main(["maxflow", "--grid", "6x6", "--random-capacities",
                         "--r", "16", "--seed", "3", "--json", str(path)]) == 0
            payloads.append(json.loads(path.read_text()))
        counters = [p["counters"] for p in payloads]
        assert counters[0] == counters[1]
        assert counters[0]["route"] == "direct" and counters[0]["electrical_flows"] > 0
        assert set(payloads[0]["timings"]) == set(STAGES) | {"total"}


class TestLargeGroup:
    def test_single_large_group_end_to_end(self):
        g = random_capacity_grid(12, 12, seed=5)  # one group of 144 vertices
        part = partition_from_groups(g, [np.arange(g.m)], r=g.m, terminals=(0, g.n - 1))
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        plan = SparsifierPlan("one-step")
        res = approx_max_flow(g, part, plan, 0, g.n - 1, 0.1, RunConfig(eps=0.1, seed=1))
        assert res.value >= 0.9 * exact
        c = res.stats.counters()
        assert c["sparsifier_builds"] > 0

        direct = approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, seed=1))
        assert direct.value >= 0.9 * exact
        c = direct.stats.counters()
        assert c["sparsifier_builds"] == 0

        _, fail_ctx = route_fixed_flow(g, part, plan, 0, g.n - 1, 4 * exact, 0.1,
                                       RunConfig(eps=0.1, seed=1))
        inst, fail, _ = fail_ctx
        cert = cut_certificate(inst, fail, 0.1)
        assert cert.gradient_capacity <= 1 + 1e-8
        assert cert.demand_value >= 1 - 10 * 0.1 - 1e-8
        assert cert.cut_capacity >= exact * (1 - 1e-9)
