import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, WeightedGraph, exact_max_flow_oracle, grid_graph,
                     random_capacity_grid, residual_of_vector, widest_path_bottleneck)

from conftest import incidences, multigraphs, random_connected_graph


def reference_widest_path(g, s, t):
    """Heap Dijkstra on bottleneck widths, one vertex at a time; None when
    no path joins s and t."""
    adj = incidences(g)
    best = [-np.inf] * g.n
    best[s] = np.inf
    heap, done = [(-np.inf, s)], [False] * g.n
    while heap:
        _, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        if v == t:
            break
        for u, e in adj[v]:
            w = min(best[v], g.capacity[e])
            if w > best[u]:
                best[u] = w
                heapq.heappush(heap, (-w, u))
    return float(best[t]) if np.isfinite(best[t]) else None


def brute_force_max_flow(g, s, t):
    """LP-free reference: repeated BFS augmentation on the directed transform."""
    cap = {}
    for e, (u, v) in enumerate(zip(g.tails, g.heads)):
        cap[(u, v, e)] = float(g.capacity[e])
        cap[(v, u, e)] = float(g.capacity[e])
    adj = {v: [] for v in range(g.n)}
    for (u, v, e) in cap:
        adj[u].append((v, e))
    total = 0.0
    while True:
        prev = {s: None}
        queue = [s]
        while queue and t not in prev:
            u = queue.pop(0)
            for (v, e) in adj[u]:
                if v not in prev and cap[(u, v, e)] > 1e-12:
                    prev[v] = (u, e)
                    queue.append(v)
        if t not in prev:
            return total
        path = []
        v = t
        while prev[v] is not None:
            u, e = prev[v]
            path.append((u, v, e))
            v = u
        aug = min(cap[p] for p in path)
        for (u, v, e) in path:
            cap[(u, v, e)] -= aug
            cap[(v, u, e)] += aug
        total += aug


class TestExactOracle:
    def test_single_edge(self):
        g = WeightedGraph(2, [(0, 1)], capacity=[7.0])
        assert exact_max_flow_oracle(g, 0, 1).value == 7.0

    def test_two_parallel_paths(self):
        g = WeightedGraph(4, [(0, 1), (1, 3), (0, 2), (2, 3)], capacity=[3, 3, 5, 5])
        assert exact_max_flow_oracle(g, 0, 3).value == 8.0

    def test_grid_corner_degree_bound(self):
        g = grid_graph(4, 4)
        assert exact_max_flow_oracle(g, 0, 15).value == 2.0

    def test_matches_augmenting_paths(self, rng):
        for _ in range(30):
            n = int(rng.integers(4, 14))
            g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            ours = exact_max_flow_oracle(g, 0, n - 1)
            ref = brute_force_max_flow(g, 0, n - 1)
            assert ours.value == pytest.approx(ref, rel=1e-7)

    def test_flow_is_valid_and_cut_matches(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 12, 15)
            res = exact_max_flow_oracle(g, 0, g.n - 1)
            d = np.zeros(g.n)
            d[0], d[-1] = res.value, -res.value
            assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-8 * max(res.value, 1)
            assert np.all(np.abs(res.flow) <= g.capacity + 1e-9)
            assert res.cut_capacity == pytest.approx(res.value, rel=1e-7)
            assert 0 in res.cut_side and (g.n - 1) not in res.cut_side

    def test_random_capacity_grid_seeded(self):
        a = exact_max_flow_oracle(random_capacity_grid(8, 8, seed=5), 0, 63)
        b = exact_max_flow_oracle(random_capacity_grid(8, 8, seed=5), 0, 63)
        assert a.value == b.value

    @pytest.mark.parametrize("s, t", [(0, -1), (0, 16), (-1, 15), (16, 0)])
    def test_terminal_outside_the_graph_raises(self, s, t):
        # a sink of -1 never equals a vertex the search reaches, so without
        # the check the augmenting search would not end
        with pytest.raises(GraphError, match="is not a vertex id in 0..15"):
            exact_max_flow_oracle(grid_graph(4, 4), s, t)


class TestWidestPath:
    def test_unit_grid(self):
        assert widest_path_bottleneck(grid_graph(4, 4), 0, 15) == 1.0

    def test_lower_bounds_max_flow(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 10, 12)
            wp = widest_path_bottleneck(g, 0, g.n - 1)
            mf = exact_max_flow_oracle(g, 0, g.n - 1).value
            assert wp <= mf + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(multigraphs(), st.data())
    def test_matches_the_heap_reference_exactly(self, g, data):
        s = data.draw(st.integers(0, g.n - 1))
        for t in range(g.n):
            if t == s:
                continue
            ref = reference_widest_path(g, s, t)
            if ref is None:
                with pytest.raises(GraphError, match="no s-t path"):
                    widest_path_bottleneck(g, s, t)
            else:
                assert widest_path_bottleneck(g, s, t) == ref

    def test_parallel_edges_count_at_their_widest_copy(self):
        # CSR would sum the copies (2 + 3 = 5 > 4); the widest copy is 3
        g = WeightedGraph(3, [(0, 1), (0, 1), (1, 2)], capacity=[2.0, 3.0, 4.0])
        assert widest_path_bottleneck(g, 0, 2) == 3.0

    def test_no_path_across_components_and_no_path_to_oneself(self):
        g = WeightedGraph(5, [(0, 1), (2, 3)], capacity=[1.0, 2.0])  # vertex 4 is isolated
        for s, t in ((0, 2), (1, 3), (0, 4), (4, 3)):
            with pytest.raises(GraphError, match="no s-t path"):
                widest_path_bottleneck(g, s, t)
        assert widest_path_bottleneck(g, 2, 3) == 2.0
        with pytest.raises(GraphError, match="source equals sink"):
            widest_path_bottleneck(g, 1, 1)
        with pytest.raises(GraphError, match="source equals sink"):
            widest_path_bottleneck(grid_graph(3, 3), 4, 4)
