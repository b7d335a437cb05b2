import numpy as np
import pytest
from hypothesis import given, settings
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee

from sepflow import (DisconnectedGraphError, GraphError, LaggedFactor, SolverConvergenceError,
                     SolverHandle, WeightedGraph, electrical_flow, grid_graph, grid_r_division,
                     optimum_energy, random_capacity_grid, residual_of_vector, st_demand)
from sepflow import solver
from sepflow.solver import GAP_FLOOR, SolveStats

from conftest import dense_electrical, multigraphs, random_connected_graph


class TestSolveSdd:
    """Exact Laplacian solves on a ``SolverHandle``, and PCG on the factor a
    ``LaggedFactor`` carries."""

    def test_path_laplacian(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        x = SolverHandle(g, np.ones(g.m)).solve(np.array([1.0, 0.0, -1.0]))
        assert np.allclose(x, [1.0, 0.0, -1.0], atol=1e-9)

    def test_matches_dense_pseudoinverse(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 20, 15)
            c = 1.0 / g.resistance
            d = rng.normal(size=g.n)
            d -= d.mean()
            x = SolverHandle(g, c).solve(d)
            ref = np.linalg.pinv(g.laplacian_csr(c).toarray()) @ d
            ref -= ref.mean()
            assert np.linalg.norm(x - ref) <= 1e-6 * np.linalg.norm(ref)

    def test_anorm_contract(self, rng):
        # |x - A^+ b|_A <= delta |A^+ b|_A against the dense pseudoinverse, on
        # random graphs whose band is above the banded cutoff: the first
        # solve on a fresh LU factor, then PCG on that factor carried by a
        # ``LaggedFactor`` to conductances that drift by U(0.8, 1.25) per step
        deltas = (1e-2, 1e-4, 1e-6, 1e-10)
        for trial in range(40):
            n = int(rng.integers(160, 221))
            g = random_connected_graph(rng, n, 2 * n)
            conds = [rng.uniform(0.5, 2.0, g.m)]
            for _ in range(3):
                conds.append(conds[-1] * rng.uniform(0.8, 1.25, g.m))
            d = rng.normal(size=n)
            d -= d.mean()
            delta = deltas[trial % len(deltas)]
            lag = LaggedFactor()
            for cond in conds:
                a = g.laplacian_csr(cond).toarray()
                x, _ = lag.solver(g, cond)(d, delta)
                assert lag.handle is not None  # a wide band: the LU factor is carried
                ref = np.linalg.pinv(a) @ d
                err = x - ref
                err -= err.mean()
                anorm = np.sqrt(err @ a @ err)
                ref_norm = np.sqrt(ref @ a @ ref)
                assert anorm <= delta * ref_norm * 1.05, (n, delta, lag.rebound)
            assert lag.rebinds == 3

    def test_iteration_cap_errors_with_best_iterate(self, rng):
        # only PCG on a carried factor iterates, so only it can hit the cap;
        # the flow's error carries the best iterate and drops the factor
        g = grid_graph(12, 12, 6)  # band 66: the LU factor is carried
        c = rng.uniform(0.5, 2.0, g.m)
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        lag = LaggedFactor()
        electrical_flow(g, d, 1e-3, resistances=1.0 / c, lag=lag)
        lag.cap = 2
        drifted = c * rng.uniform(0.8, 1.25, g.m)
        with pytest.raises(SolverConvergenceError, match="iteration cap 2") as err:
            electrical_flow(g, d, 1e-10, resistances=1.0 / drifted, lag=lag)
        assert err.value.best_iterate is not None
        assert err.value.best_iterate.shape == (g.n,)
        assert err.value.achieved_residual is not None
        assert lag.rebinds == 1 and lag.handle is None

    def test_iteration_cap_is_set_by_the_original_conductances(self, rng):
        # computed once per carried factor, from the conductances it was
        # built at, and never on a narrow band
        g = grid_graph(12, 12, 6)
        c = rng.uniform(0.5, 2.0, g.m)
        degree = np.bincount(g.tails, weights=c, minlength=g.n)
        degree += np.bincount(g.heads, weights=c, minlength=g.n)
        cap = int(20 * np.sqrt(4 * g.n ** 2 * degree.max() / degree.min()) + 1000)
        lag = LaggedFactor()
        lag.solver(g, c)
        assert lag.cap == cap
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        lag.solver(g, c * rng.uniform(0.1, 10.0, g.m))(d, 1e-6)
        assert lag.rebinds == 1 and lag.cap == cap
        narrow = LaggedFactor()
        narrow.solver(grid_graph(9, 9), np.ones(144))
        assert narrow.cap is None and narrow.handle is None

    @pytest.mark.parametrize("n", [10, 100])
    def test_rejects_positive_off_diagonal(self, rng, n):
        # a negative conductance is a positive off-diagonal Laplacian entry;
        # zero, nan and inf conductances, and a vector that is not one entry
        # per edge, are rejected alike, before any factor
        g = random_connected_graph(rng, n, n)
        for bad in (0.0, -0.5, np.nan, np.inf):
            c = rng.uniform(0.5, 2.0, g.m)
            c[g.m // 2] = bad
            with pytest.raises(GraphError, match="strictly positive and finite"):
                SolverHandle(g, c)
        for size in (g.m - 1, g.m + 1):
            with pytest.raises(GraphError, match="one entry per edge"):
                SolverHandle(g, np.ones(size))

    @pytest.mark.parametrize("n", [10, 100])
    def test_rejects_isolated_vertex(self, rng, n):
        # a path on the first n - 1 vertices and an isolated last vertex
        g = WeightedGraph(n, [(i, i + 1) for i in range(n - 2)])
        with pytest.raises(GraphError, match=f"vertex {n - 1} is isolated"):
            SolverHandle(g, rng.uniform(0.5, 2.0, g.m))

    def test_rejects_rhs_outside_range(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)])
        with pytest.raises(GraphError, match="null space"):
            SolverHandle(g, np.ones(g.m)).solve(np.array([1.0, 1.0, 1.0]))

    def test_deterministic_repeat(self, rng):
        g = random_connected_graph(rng, 30, 25)
        handle = SolverHandle(g, 1.0 / g.resistance)
        d = rng.normal(size=g.n)
        d -= d.mean()
        x1 = handle.solve(d)
        x2 = handle.solve(d)
        assert np.array_equal(x1, x2)


class TestReboundValues:
    """PCG on the factor a ``LaggedFactor`` carries to new conductances."""

    def test_lagged_factor_flows_match_exact_flows(self, rng):
        # electrical flows by PCG on a carried factor, on reweighted copies
        # of the graph, route the demand exactly at the energy of flows on
        # an exact factor at the same conductances, up to delta
        g = grid_graph(12, 12, 6)
        c0 = rng.uniform(0.5, 2.0, g.m)
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        delta = 1e-3
        lag = LaggedFactor()
        electrical_flow(g, d, delta, resistances=1.0 / c0, lag=lag)
        for step in range(3):
            c = c0 * rng.uniform(0.8, 1.25, g.m)
            ours = electrical_flow(g.reweighted(np.full(g.m, 2.0 + step)), d, delta,
                                   resistances=1.0 / c, lag=lag)
            exact = electrical_flow(g, d, delta, resistances=1.0 / c)
            opt = optimum_energy(g, d, resistances=1.0 / c)
            assert (1 - 1e-12) * opt <= ours.energy <= (1 + delta) * opt
            assert abs(ours.energy - exact.energy) <= delta * opt
            assert np.abs(residual_of_vector(ours.flow, g) - d).max() <= 1e-9
        assert lag.rebinds == 3 and lag.factorizations == 1
        assert lag.pcg_iterations >= 3 and lag.electrical_flows == 4


class TestLaggedFactor:
    def test_policy_and_counters(self):
        g = grid_graph(12, 12, 6)  # reverse Cuthill-McKee band 66: the LU factor is carried
        c = np.ones(g.m)
        lag = LaggedFactor()
        lag.solver(g, c)
        assert not lag.rebound and lag.factorizations == 1 and lag.handle is not None
        lag.record(SolveStats(iterations=1))
        lag.solver(g.reweighted(np.full(g.m, 2.0)), 1.1 * c)
        assert lag.rebound and lag.rebinds == 1
        slow = LaggedFactor.REFRESH_ITERATIONS + 1
        lag.record(SolveStats(iterations=slow))
        lag.solver(g, c)
        assert not lag.rebound  # slow PCG refreshes the factor
        assert lag.counters() == {"electrical_flows": 3, "factorizations": 2, "rebinds": 1,
                                  "pcg_iterations": slow}

    def test_rebuilt_pattern_factors_afresh(self):
        g = grid_graph(12, 12, 6)
        lag = LaggedFactor()
        lag.solver(g, np.ones(g.m))
        lag.record(SolveStats(iterations=1))
        # same edges, but not made by ``reweighted``: a rebuilt pattern
        rebuilt = WeightedGraph(g.n, g.edges)
        lag.solver(rebuilt, np.ones(g.m))
        assert not lag.rebound and lag.factorizations == 2 and lag.rebinds == 0
        lag.record(SolveStats(iterations=1))
        lag.solver(rebuilt.reweighted(np.full(g.m, 3.0)), np.ones(g.m))
        assert lag.rebound

    def test_small_graphs_factor_every_time(self):
        g = grid_graph(8, 8)  # 64 vertices, band 8
        lag = LaggedFactor()
        for _ in range(3):
            lag.solver(g, np.ones(g.m))
            assert not lag.rebound
            lag.record(SolveStats(iterations=1))
        assert lag.factorizations == 3 and lag.rebinds == 0 and lag.pcg_iterations == 0

    def test_narrow_band_gets_an_exact_fresh_handle_every_time(self, rng):
        # a 9x9 grid (81 vertices, band 9): every flow gets a fresh banded
        # factor at its own conductances, even when PCG would have been quick
        g = grid_graph(9, 9)
        c0 = rng.uniform(0.5, 2.0, g.m)
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        lag = LaggedFactor()
        for step in range(4):
            c = c0 * rng.uniform(0.8, 1.25, g.m)
            x, iterations = lag.solver(g.reweighted(np.full(g.m, 1.0 + step)), c)(d, 1e-3)
            assert iterations == 1 and np.array_equal(x, SolverHandle(g, c).solve(d))
            lag.record(SolveStats(iterations=1))
        assert lag.counters() == {"electrical_flows": 4, "factorizations": 4, "rebinds": 0,
                                  "pcg_iterations": 0}
        assert lag.handle is None and lag.cap is None

    def test_drop_forgets_the_factor(self):
        g = grid_graph(12, 12, 6)
        lag = LaggedFactor()
        lag.solver(g, np.ones(g.m))
        lag.drop()
        lag.solver(g, np.ones(g.m))
        assert not lag.rebound and lag.factorizations == 2


def _pendant_pair(g, tiny):
    """``g`` with a path root - a - b appended, whose edge to the root
    (vertex 0) has conductance ``tiny``, absorbed in a's diagonal, and the
    unit conductances of the rest: a and b then ground to an exactly
    singular block."""
    n = g.n
    h = WeightedGraph(n + 2, np.vstack([g.edges, [[0, n], [n, n + 1]]]))
    c = np.ones(h.m)
    c[-2] = tiny
    return h, c


class TestFactorKinds:
    """The banded Cholesky factor (reverse Cuthill-McKee band at most 64)
    and the sparse LU factor (wider band) against the dense pseudoinverse."""

    CASES = {  # name: (graph, expects a banded factor)
        "24x24": (lambda rng: grid_graph(24, 24), True),
        "16x16x3": (lambda rng: grid_graph(16, 16, 3), True),
        "12x12x6": (lambda rng: grid_graph(12, 12, 6), False),
        "multigraph": (lambda rng: WeightedGraph(40, np.vstack(
            [random_connected_graph(rng, 40, 30).edges] * 2)), True),
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_matches_the_pseudoinverse(self, rng, name):
        make, banded = self.CASES[name]
        g = make(rng)
        c = rng.uniform(0.5, 2.0, g.m)
        handle = SolverHandle(g, c)
        assert handle.banded == banded
        d = rng.normal(size=(g.n, 2))
        d -= d.mean(axis=0)
        ref = np.linalg.pinv(g.laplacian_csr(c).toarray()) @ d
        # one right-hand side, and one per column
        for x, r in ((handle.solve(d[:, 0]), ref[:, 0]), (handle.solve(d)[:, 1], ref[:, 1])):
            assert np.linalg.norm(x - r - (x - r).mean()) <= 1e-9 * np.linalg.norm(r)

    @pytest.mark.parametrize("base, banded", [(grid_graph(4, 4), True),
                                              (grid_graph(12, 12, 6), False)],
                             ids=["banded", "lu"])
    def test_singular_and_isolated_raise(self, base, banded):
        g, c = _pendant_pair(base, 2.0 ** -100)
        with pytest.raises(GraphError, match="singular after grounding"):
            SolverHandle(g, c)
        assert g._structure["band_layout"].banded == banded
        c[-2] = 1.0  # the same graph at a conductance a's diagonal keeps
        assert SolverHandle(g, c).banded == banded
        lone = WeightedGraph(base.n + 1, base.edges)
        with pytest.raises(GraphError, match=f"vertex {base.n} is isolated"):
            SolverHandle(lone, np.ones(lone.m))

    def test_a_disconnected_graph_raises(self):
        # a handle grounds one vertex, so it factors one connected graph
        g = WeightedGraph(5, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraphError, match="SolverHandle requires a connected"):
            SolverHandle(g, np.ones(g.m))

    @pytest.mark.parametrize("name", ["24x24", "12x12x6"])
    def test_apply_writes_into_out_and_never_the_roots(self, rng, name):
        # LaggedFactor._pcg rewrites one preconditioned-residual buffer per solve
        make, banded = self.CASES[name]
        g = make(rng)
        handle = SolverHandle(g, rng.uniform(0.5, 2.0, g.m))
        assert handle.banded == banded
        out = np.zeros(g.n)
        for y in (rng.normal(size=g.n), rng.normal(size=g.n)):
            assert handle.apply(y, out=out) is out
            assert out[0] == 0.0  # the root, vertex 0
            assert np.array_equal(out, handle.apply(y))  # the bits of a fresh application

    def test_layout_is_computed_once_per_structure(self, monkeypatch):
        calls = []
        real = solver.reverse_cuthill_mckee
        monkeypatch.setattr(solver, "reverse_cuthill_mckee",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        g = random_capacity_grid(12, 12, 6, seed=0)
        grid_r_division(12, 12, 6, 96, terminals=(0, g.n - 1), graph=g)
        assert not calls and "band_layout" not in g._structure  # built at the first factor
        SolverHandle(g, g.capacity)
        copy = g.reweighted(np.full(g.m, 2.0))
        SolverHandle(copy, np.ones(g.m))
        LaggedFactor().solver(copy, g.capacity)
        assert len(calls) == 1
        assert copy._structure["band_layout"] is g._structure["band_layout"]
        SolverHandle(WeightedGraph(g.n, g.edges), np.ones(g.m))  # a rebuilt structure
        assert len(calls) == 2


def reference_layout(g):
    """The ``_Layout`` of ``g`` grounded at vertex 0: the straightforward
    construction ``solver._layout`` must match array for array (its
    isolated-vertex and connectivity errors too)."""
    n = g.n
    degree = np.bincount(g.tails, minlength=n) + np.bincount(g.heads, minlength=n)
    if not degree.all():
        raise GraphError(f"vertex {int(np.argmin(degree))} is isolated; every vertex needs an edge")
    if connected_components(g.adjacency(), directed=False)[0] > 1:
        raise DisconnectedGraphError("SolverHandle requires a connected graph")
    root = np.zeros(n, dtype=bool)
    root[0] = True
    perm = reverse_cuthill_mckee(g.adjacency(), symmetric_mode=True)
    order = perm[~root[perm]]
    pos = np.full(n, -1, dtype=np.int64)
    pos[order] = np.arange(order.size)
    pt, ph = pos[g.tails], pos[g.heads]
    lo, width = np.minimum(pt, ph), np.abs(pt - ph)
    both = lo >= 0
    band = int(width[both].max(initial=0))
    slot = edge = sign = None
    if band <= solver.BAND_CUTOFF:
        ld, eid = band + 1, np.arange(g.m)
        kt, kh = pt >= 0, ph >= 0
        slot = np.concatenate([pt[kt] * ld, ph[kh] * ld, lo[both] * ld + width[both]])
        edge = np.concatenate([eid[kt], eid[kh], eid[both]])
        sign = np.concatenate([np.ones(kt.sum() + kh.sum()), -np.ones(both.sum())])
    return solver._Layout(order, band, slot, edge, sign)


def reference_solve(handle, b):
    """``handle``'s solve of ``b`` as a matrix of right-hand sides, one per
    column, with the range check and both projections by ``mean``: the
    straightforward solve ``SolverHandle.solve`` must match bit for bit."""
    b = np.asarray(b, dtype=float)
    bmat = b[:, None] if b.ndim == 1 else b
    tol = 1e-6 * np.maximum(np.abs(bmat).max(axis=0), 1e-300) * handle.n + 1e-300
    if (np.abs(bmat.sum(axis=0)) > tol).any():
        raise GraphError("right-hand side is not orthogonal to the Laplacian null space")

    def project(v):
        out = np.array(v, dtype=float)
        out -= out.mean(axis=0)
        return out

    x = project(handle.apply(project(bmat)))
    return x[:, 0] if b.ndim == 1 else x


def _same_layout(ours, ref):
    assert ours.band == ref.band
    for name in ("order", "slot", "edge", "sign"):
        a, b = getattr(ours, name), getattr(ref, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b), name


def _check_against_reference(g, rng):
    """``g``'s layout and solves equal the references bit for bit."""
    ref = reference_layout(g)
    _same_layout(solver._layout(g), ref)
    c = rng.uniform(0.5, 2.0, g.m)
    handle = SolverHandle(g, c)
    d = rng.normal(size=(g.n, 3))
    d -= d.mean(axis=0)
    d[:, 2] = 0.0
    for col in range(3):
        x = handle.solve(d[:, col])
        assert x.shape == (g.n,)
        assert np.array_equal(x, reference_solve(handle, d[:, col]))
    assert np.array_equal(handle.solve(d), reference_solve(handle, d))
    outside = d[:, 1] + 1.0
    for rhs in (outside, np.column_stack([d[:, 0], outside])):
        with pytest.raises(GraphError, match="null space"):
            reference_solve(handle, rhs)
        with pytest.raises(GraphError, match="null space"):
            handle.solve(rhs)


class TestAgainstReference:
    """``_layout`` and ``SolverHandle.solve`` against the straightforward
    constructions they replace (``reference_layout``, ``reference_solve``):
    equal arrays, bitwise equal solves and the same errors."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(g=multigraphs(max_n=40))
    def test_multigraphs(self, g):
        rng = np.random.default_rng(g.n * 1000 + g.m)
        try:
            reference_layout(g)
        except GraphError as exc:
            with pytest.raises(GraphError) as ours:
                solver._layout(g)
            assert type(ours.value) is type(exc) and str(ours.value) == str(exc)
            if g.n == 1:
                return
            # chain the components, isolated vertices among them, and compare again
            _, labels = connected_components(g.adjacency(), directed=False)
            firsts = np.unique(labels, return_index=True)[1]
            g = WeightedGraph(g.n, np.vstack([g.edges, np.column_stack([firsts[:-1], firsts[1:]])]))
        _check_against_reference(g, rng)

    @pytest.mark.parametrize("shape", [(24, 24, 1), (16, 16, 3), (12, 12, 6)],
                             ids=["24x24", "16x16x3", "12x12x6-lu"])
    def test_grids(self, rng, shape):
        g = random_capacity_grid(*shape, seed=0)
        _check_against_reference(g, rng)
        assert solver._layout(g).banded == (shape != (12, 12, 6))


class TestElectricalFlow:
    def test_series_path(self):
        g = WeightedGraph(3, [(0, 1), (1, 2)], resistance=[1.0, 1.0])
        res = electrical_flow(g, st_demand(3, 0, 2, 1.0), 1e-6)
        assert np.allclose(res.flow, [1.0, 1.0], atol=1e-9)
        assert res.energy == pytest.approx(2.0)

    def test_parallel_split(self):
        g = WeightedGraph(2, [(0, 1), (0, 1)], resistance=[1.0, 1.0])
        res = electrical_flow(g, st_demand(2, 0, 1, 1.0), 1e-6)
        assert np.allclose(res.flow, [0.5, 0.5], atol=1e-9)
        assert res.energy == pytest.approx(0.5)

    def test_grid_corner_energy(self):
        # unit 3x3 grid, corner-to-corner energy = d^T L^+ d
        from sepflow.grids import grid_graph

        g = grid_graph(3, 3)
        d = st_demand(g.n, 0, 8, 1.0)
        res = electrical_flow(g, d, 1e-8, resistances=np.ones(g.m))
        _, _, ref = dense_electrical(g, d, resistances=np.ones(g.m))
        assert res.energy == pytest.approx(ref, rel=1e-6)
        assert ref == pytest.approx(1.5, rel=1e-9)

    def test_contract_on_random_instances(self, rng):
        delta = 1e-3
        for _ in range(60):
            n = int(rng.integers(4, 31))
            g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
            d = rng.normal(size=n)
            d -= d.mean()
            res = electrical_flow(g, d, delta)
            fbar, _, eopt = dense_electrical(g, d)
            # part 1: demand exactness
            assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9 * max(np.abs(d).max(), 1)
            # part 2: near-optimal energy
            assert res.energy <= (1 + delta) * eopt + 1e-12
            # part 3: summed per-edge energy deviation
            dev = np.abs(g.resistance * fbar**2 - g.resistance * res.flow**2).sum()
            assert dev <= delta * eopt + 1e-12
            # flow-potential duality
            assert d @ res.potentials >= (1 - delta) * eopt - 1e-12

    def test_zero_demand(self, rng):
        g = random_connected_graph(rng, 6, 4)
        res = electrical_flow(g, np.zeros(g.n), 1e-6)
        assert not res.flow.any()

    def test_disconnected_rejected(self):
        g = WeightedGraph(4, [(0, 1), (2, 3)], resistance=[1.0, 1.0])
        with pytest.raises(GraphError):
            electrical_flow(g, np.array([1.0, -1.0, 0.0, 0.0]), 1e-6)

    def test_energy_field_consistent(self, rng):
        g = random_connected_graph(rng, 12, 10)
        d = rng.normal(size=g.n)
        d -= d.mean()
        res = electrical_flow(g, d, 1e-4)
        assert float(np.sum(g.resistance * res.flow**2)) == pytest.approx(res.energy, rel=1e-10)

    def test_certifies_when_conductances_span_six_decades(self):
        # phi @ (L phi) loses ~1e-11 to cancellation here, above the gap floor
        g = random_capacity_grid(24, 24, seed=0)
        r = 10 ** np.random.default_rng(0).uniform(0, 6, g.m)
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        res = electrical_flow(g, d, 1e-10, resistances=r)
        assert res.energy <= (1 + GAP_FLOOR) * res.optimum_estimate
        assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9

    def test_only_a_pcg_solve_is_retried(self, monkeypatch):
        # an exact factor ignores the accuracy it is asked for, so after a gap
        # miss a second solve would repeat its bits; PCG is asked again, tighter
        calls = []
        exact = SolverHandle.solve
        monkeypatch.setattr(SolverHandle, "solve",
                            lambda self, b: calls.append("exact") or exact(self, b))
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
        with pytest.raises(SolverConvergenceError, match="gap"):
            electrical_flow(g, st_demand(4, 0, 3, 1.0), 1e-6,
                            resistances=np.array([1.0, 1e-12, 1.0, 1.0]))
        assert calls == ["exact"]

        calls.clear()
        g = random_capacity_grid(12, 12, 6, seed=0)  # band 66: a carried factor
        d = st_demand(g.n, 0, g.n - 1, 1.0)
        lag = LaggedFactor()
        electrical_flow(g, d, 0.1, resistances=np.ones(g.m), lag=lag)
        pcg = lag._pcg

        def coarse_first(*args):
            calls.append("pcg")
            x, iterations = pcg(*args)
            return (0.5 * x if calls.count("pcg") == 1 else x), iterations

        monkeypatch.setattr(lag, "_pcg", coarse_first)
        res = electrical_flow(g, d, 0.1, resistances=np.linspace(1.0, 2.0, g.m), lag=lag)
        assert calls == ["exact", "pcg", "pcg"]
        assert lag.rebound and res.stats.refinements == 1


class TestOptimumEnergy:
    def test_single_resistor(self):
        g = WeightedGraph(2, [(0, 1)], resistance=[5.0])
        assert optimum_energy(g, st_demand(2, 0, 1, 1.0)) == pytest.approx(5.0)

    def test_series(self):
        g = WeightedGraph(4, [(0, 1), (1, 2), (2, 3)], resistance=np.ones(3))
        assert optimum_energy(g, st_demand(4, 0, 3, 1.0)) == pytest.approx(3.0)

    def test_k4_effective_resistance(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        g = WeightedGraph(4, edges, resistance=np.ones(6))
        assert optimum_energy(g, st_demand(4, 0, 1, 1.0)) == pytest.approx(0.5, rel=1e-8)

    def test_matches_dense(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 18, 12)
            d = rng.normal(size=g.n)
            d -= d.mean()
            _, _, ref = dense_electrical(g, d)
            assert optimum_energy(g, d) == pytest.approx(ref, rel=1e-8)
