import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, SparseLaplacian, WeightedGraph, edge_congestions,
                     edge_group_ids, electrical_flow, group_congestions, residual_of_vector,
                     st_demand, zero_sum_demand)
from sepflow.graphs import csr_matvec, sorted_distinct

from conftest import dense_laplacian, incidences, multigraphs, random_connected_graph


def path3():
    return WeightedGraph(3, [(0, 1), (1, 2)], capacity=[5.0, 3.0], weight=[1.0, 1.0],
                         resistance=[1.0, 1.0])


class TestConstruction:
    def test_orientation_canonicalized(self):
        g = WeightedGraph(4, [(3, 1), (0, 2)])
        assert g.tails.tolist() == [1, 0]
        assert g.heads.tolist() == [3, 2]

    def test_parallel_edges_kept_distinct(self):
        g = WeightedGraph(2, [(0, 1), (1, 0)], capacity=[1.0, 2.0])
        assert g.m == 2
        assert g.capacity.tolist() == [1.0, 2.0]

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match="self-loop"):
            WeightedGraph(3, [(1, 1)])

    def test_nonpositive_vectors_rejected(self):
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1)], capacity=[0.0])
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1)], weight=[-1.0])
        with pytest.raises(GraphError):
            WeightedGraph(2, [(0, 1)], resistance=[np.inf])

    def test_connectivity_cached(self):
        assert path3().is_connected
        assert not WeightedGraph(3, [(0, 1)]).is_connected


class TestCongestion:
    def test_zero_flow(self):
        assert edge_congestions(np.zeros(2), path3().capacity).tolist() == [0.0, 0.0]

    def test_sign_absolute(self):
        g = WeightedGraph(2, [(0, 1)], capacity=[3.0])
        assert edge_congestions(np.array([-3.0]), g.capacity).tolist() == [1.0]

    def test_direct_ratio(self):
        g = WeightedGraph(2, [(0, 1)], capacity=[8.0])
        assert edge_congestions(np.array([2.0]), g.capacity).tolist() == [0.25]


class TestGroupCongestion:
    def test_zero_flow(self):
        cong = group_congestions(np.zeros(2), np.array([1.0, 2.0]), [np.array([0]), np.array([1])])
        assert cong.tolist() == [0.0, 0.0]

    def test_three_four_five(self):
        # two groups over three edges; the edge-list and group-id forms agree
        flow, weight = np.array([3.0, 1.0, 4.0]), np.ones(3)
        groups = [np.array([0, 2]), np.array([1])]
        assert group_congestions(flow, weight, groups).tolist() == pytest.approx([5.0, 1.0])
        assert np.array_equal(group_congestions(flow, weight, groups),
                              group_congestions(flow, weight, edge_group_ids(groups, 3)))

    def test_weighted(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], weight=[2.0, 1.0])
        cong = group_congestions(np.array([1.0, -2.0]), g.weight, [np.arange(2)])
        assert cong.tolist() == pytest.approx([np.sqrt(6.0)])

    def test_empty_group_is_zero(self):
        cong = group_congestions(np.ones(2), np.ones(2), [np.arange(2), np.zeros(0, np.int64)])
        assert cong.tolist() == pytest.approx([np.sqrt(2.0), 0.0])

    def test_dominates_single_edge(self, rng):
        # max_i group congestion >= sqrt(w(e)) |f(e)| for every e
        g = random_connected_graph(rng, 12, 10)
        flow = rng.normal(size=g.m)
        groups = [np.arange(0, g.m, 2), np.arange(1, g.m, 2)]
        best = group_congestions(flow, g.weight, groups).max()
        assert best >= np.max(np.sqrt(g.weight) * np.abs(flow)) - 1e-12


class TestResidual:
    def test_unit_path_flow(self):
        # orientation a->b, b->c with tail +1 / head -1: source gets +1
        assert residual_of_vector(np.array([1.0, 1.0]), path3()).tolist() == [1.0, 0.0, -1.0]

    def test_zero_flow(self):
        assert residual_of_vector(np.zeros(2), path3()).tolist() == [0, 0, 0]

    def test_circulation(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)])
        # cyclic circulation: 0->1->2->0 means flow -1 on stored (0,2)
        assert np.abs(residual_of_vector(np.array([1.0, 1.0, -1.0]), g)).max() == 0.0

    def test_edge_subset(self):
        g = WeightedGraph(3, [(0, 1), (1, 2), (0, 2)])
        flow = np.array([1.0, 2.0, 4.0])
        assert residual_of_vector(flow, g, [1, 2]).tolist() == [4.0, 2.0, -6.0]

    def test_linear(self, rng):
        g = random_connected_graph(rng, 10, 8)
        f1, f2 = rng.normal(size=g.m), rng.normal(size=g.m)
        lhs = residual_of_vector(f1 + f2, g)
        rhs = residual_of_vector(f1, g) + residual_of_vector(f2, g)
        assert np.abs(lhs - rhs).max() < 1e-12 * max(np.abs(lhs).max(), 1.0)

    def test_sum_zero(self, rng):
        g = random_connected_graph(rng, 15, 20)
        f = rng.normal(size=g.m)
        assert abs(residual_of_vector(f, g).sum()) <= g.n * np.finfo(float).eps * np.abs(f).max()


def laplacian_of_resistances(g):
    """Dense Laplacian with conductances 1/r(e) of the graph's resistances."""
    return g.laplacian_csr(1.0 / g.resistance).toarray()


class TestLaplacian:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1)], resistance=[2.0])
        lap = laplacian_of_resistances(g)
        assert np.allclose(lap, [[0.5, -0.5], [-0.5, 0.5]])

    def test_path(self):
        lap = laplacian_of_resistances(path3())
        assert np.allclose(lap, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])

    def test_parallel_conductances_add(self):
        g = WeightedGraph(2, [(0, 1), (0, 1)], resistance=[1.0, 1.0])
        assert np.allclose(laplacian_of_resistances(g), [[2, -2], [-2, 2]])

    def test_nonpositive_resistance_rejected(self):
        g = WeightedGraph(2, [(0, 1)])
        with pytest.raises(GraphError):
            electrical_flow(g, st_demand(2, 0, 1, 1.0), 1e-6, resistances=np.array([-1.0]))

    def test_row_sums_and_offdiagonals(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 9, 6)
            lap = SparseLaplacian(g.laplacian_csr(1.0 / g.resistance))
            lap.validate()
            mat = lap.dense()
            degree = np.diag(mat)
            assert np.abs(mat.sum(axis=1)).max() <= 1e-12 * degree.max()

    def test_quadratic_form_identity(self, rng):
        # x^T L x = sum_e (x_u - x_v)^2 / r(e), 100 random x, n <= 8
        g = random_connected_graph(rng, 8, 6)
        mat = laplacian_of_resistances(g)
        for _ in range(100):
            x = rng.normal(size=g.n)
            direct = np.sum((x[g.tails] - x[g.heads]) ** 2 / g.resistance)
            assert abs(x @ mat @ x - direct) <= 1e-10 * max(direct, 1e-30)


class TestEnergy:
    """The energy an electrical flow reports is sum_e r(e) f(e)^2 of its flow,
    on paths, where the flow is fixed by the demand."""

    def test_zero(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], resistance=[1.0, 1.0])
        res = electrical_flow(g, np.zeros(3), 1e-6)
        assert res.energy == 0.0 and not res.flow.any()

    def test_unit(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], resistance=[1.0, 1.0])
        res = electrical_flow(g, st_demand(3, 0, 2, 1.0), 1e-6)
        assert res.flow.tolist() == pytest.approx([1.0, 1.0])
        assert res.energy == pytest.approx(2.0)

    def test_signed(self):
        # stored (0, 2) and (1, 2): the path 0 -> 2 -> 1 runs against the second
        g = WeightedGraph(3, [(0, 2), (2, 1)], resistance=[2.0, 3.0])
        res = electrical_flow(g, st_demand(3, 0, 1, 1.0), 1e-6)
        assert res.flow.tolist() == pytest.approx([1.0, -1.0])
        assert res.energy == pytest.approx(5.0)


class TestDemand:
    def test_st_demand(self):
        d = st_demand(4, 0, 3, 2.5)
        assert d.tolist() == [2.5, 0.0, 0.0, -2.5]
        # a negative id would wrap around to the last vertex
        for s, t in ((-1, 0), (0, 4)):
            with pytest.raises(GraphError, match="not a vertex id in 0..3"):
                st_demand(4, s, t, 1.0)

    def test_rejects_nonzero_sum(self):
        with pytest.raises(GraphError, match="sum to zero"):
            zero_sum_demand(np.array([1.0, 1.0]))

    def test_matches_dense_laplacian(self, rng):
        g = random_connected_graph(rng, 7, 5)
        ours = laplacian_of_resistances(g)
        ref = dense_laplacian(g.n, g.tails, g.heads, 1.0 / g.resistance)
        assert np.allclose(ours, ref, atol=1e-14)

    def test_laplacian_csr_shares_the_read_only_pattern(self, rng):
        g = random_connected_graph(rng, 9, 6)
        a = g.laplacian_csr(np.ones(g.m))
        b = g.reweighted(2.0 * g.weight).laplacian_csr(2.0 * np.ones(g.m))
        assert np.shares_memory(a.indices, b.indices) and np.shares_memory(a.indptr, b.indptr)
        assert a.has_canonical_format
        assert not a.indices.flags.writeable and not a.indptr.flags.writeable
        assert np.allclose(b.toarray(), 2.0 * a.toarray())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=9), st.data())
def test_residual_matches_incidence_matrix(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        min_size=1, max_size=12))
    g = WeightedGraph(n, edges)
    flow = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=g.m, max_size=g.m)))
    b = np.zeros((g.m, n))
    for e, (u, v) in enumerate(zip(g.tails, g.heads)):
        b[e, u] = 1.0
        b[e, v] = -1.0
    assert np.allclose(residual_of_vector(flow, g), b.T @ flow, atol=1e-9)


def reference_bfs_tree(g):
    """The BFS forest vertex at a time: one queue seeded with the least
    vertex of every component in ascending order, neighbors in ascending
    (vertex, edge id) order."""
    adj = incidences(g)
    seen, roots = [False] * g.n, []
    for root in range(g.n):  # the first vertex of a component not yet seen is its least
        if not seen[root]:
            roots.append(root)
            seen[root] = True
            stack = [root]
            while stack:
                for u, _ in adj[stack.pop()]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
    parent, parent_edge = [-1] * g.n, [-1] * g.n
    reached = [False] * g.n
    for root in roots:
        reached[root] = True
    queue = list(roots)
    for v in queue:  # grows while it is read: first in, first out
        for u, e in adj[v]:
            if not reached[u]:
                reached[u] = True
                parent[u], parent_edge[u] = v, e
                queue.append(u)
    return tuple(np.array(a, dtype=np.int64) for a in (parent, parent_edge, queue))


@settings(max_examples=200, deadline=None)
@given(multigraphs(max_n=30))
def test_bfs_tree_matches_the_queue_reference_exactly(g):
    ours, ref = g.bfs_tree(), reference_bfs_tree(g)
    assert len(ours) == len(ref) == 3
    for a, b in zip(ours, ref):
        assert a.dtype == np.int64
        assert np.array_equal(a, b)


def test_bfs_tree_of_components_and_isolated_vertices():
    # components {0, 3, 5} and {1, 4}, isolated 2 and 6; a parallel pair 3-5
    g = WeightedGraph(7, [(5, 3), (4, 1), (0, 5), (3, 5), (0, 3)])
    parent, parent_edge, order = g.bfs_tree()
    assert order.tolist() == [0, 1, 2, 6, 3, 5, 4]
    assert parent.tolist() == [-1, -1, -1, 0, 1, 0, -1]
    assert parent_edge.tolist() == [-1, -1, -1, 4, 1, 2, -1]


def reference_route_on_tree(g, q):
    """The BFS-tree repair level by level, deepest first: each vertex pushes
    everything it carries to its parent (the former ``route_on_tree``).  The
    levels are counted up the ``parent`` pointers."""
    parent, parent_edge = g.bfs_tree()[:2]
    depth = np.zeros(g.n, dtype=np.int64)
    for v in range(g.n):
        u = v
        while parent[u] >= 0:
            u = parent[u]
            depth[v] += 1
    carry = np.array(q, dtype=float)
    f = np.zeros(g.m)
    for d in range(int(depth.max()), 0, -1):
        idx = np.flatnonzero(depth == d)
        e = parent_edge[idx]
        f[e] = np.where(g.tails[e] == idx, 1.0, -1.0) * carry[idx]
        np.add.at(carry, parent[idx], carry[idx])
    return f


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=4), st.data())
def test_route_on_tree_repairs_every_component(n, parts, data):
    # random components (some of them single vertices) with parallel edges
    label = np.array(data.draw(st.lists(st.integers(0, parts - 1), min_size=n, max_size=n)))
    edges = []
    for c in range(parts):
        verts = np.flatnonzero(label == c)
        for u, v in zip(verts[:-1], verts[1:]):  # keep each component connected
            w = int(verts[data.draw(st.integers(0, int(np.searchsorted(verts, v)) - 1))])
            edges.append((w, int(v)))
        if verts.size > 1:
            pairs = data.draw(st.lists(st.tuples(st.sampled_from(verts.tolist()),
                                                 st.sampled_from(verts.tolist())), max_size=8))
            edges += [(int(a), int(b)) for a, b in pairs if a != b]
            edges += edges[-2:] if len(edges) >= 2 else []  # parallel edges
    g = WeightedGraph(n, edges)
    q = np.array(data.draw(st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=n, max_size=n)))
    _, comp = g.components()
    q -= (np.bincount(comp, weights=q) / np.bincount(comp))[comp]
    f = g.route_on_tree(q)
    scale = max(np.abs(q).max(initial=0.0), 1e-300)
    roots = np.flatnonzero(g.bfs_tree()[0] < 0)
    off_root = np.ones(n, dtype=bool)
    off_root[roots] = False
    assert np.all(np.abs(residual_of_vector(f, g) - q)[off_root] <= 1e-12 * scale)
    assert np.all(np.abs(f - reference_route_on_tree(g, q)) <= 1e-12 * scale)
    tree = np.zeros(g.m, dtype=bool)
    tree[g.bfs_tree()[1][off_root]] = True
    assert not np.any(f[~tree])


def test_route_on_tree_tiny_flows_match_the_level_loop(rng):
    # flows far below 1 keep their relative accuracy
    g = random_connected_graph(rng, 300, 200)
    q = rng.normal(size=g.n) * 1e-6
    q -= q.mean()
    f, ref = g.route_on_tree(q), reference_route_on_tree(g, q)
    assert np.abs(f - ref).max() <= 1e-12 * np.abs(ref).max()


def test_csr_matvec_matches_scipy_bitwise(rng):
    g = random_connected_graph(rng, 50, 80)
    a = g.laplacian_csr(rng.uniform(0.5, 2.0, g.m))
    x = rng.normal(size=g.n)
    out = np.full(g.n, np.nan)  # stale contents are overwritten
    assert csr_matvec(a.indptr, a.indices, a.data, g.n, x, out) is out
    assert np.array_equal(out, a @ x)
    for short_x, short_out in ((x[:-1], out), (x, out[:-1])):
        with pytest.raises(GraphError, match="cannot take"):
            csr_matvec(a.indptr, a.indices, a.data, g.n, short_x, short_out)
    with pytest.raises(GraphError, match="cannot take"):
        g.laplacian_data(np.ones(g.m - 1))
    assert np.array_equal(g.laplacian_data(np.ones(g.m)), g.laplacian_csr(np.ones(g.m)).data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keys=st.lists(st.integers(-2**40, 2**40) | st.integers(0, 12), max_size=60))
def test_sorted_distinct_matches_np_unique(keys):
    keys = np.array(keys, dtype=np.int64)
    ours = sorted_distinct(keys.copy())
    ref = np.unique(keys)
    assert ours.dtype == ref.dtype and np.array_equal(ours, ref)
