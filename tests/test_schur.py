import numpy as np
import pytest
import scipy.sparse as sp

from sepflow import (GraphError, GridSpec, SparseLaplacian, ValidationError, approx_schur,
                     exact_schur, grid_graph, one_step_vertex_sparsify,
                     recursive_vertex_sparsify, separator_tree_for_grid_block,
                     spectral_bounds, weight_floor)

from conftest import gen_eig_range, partial_elimination_schur, random_connected_graph


def lap_of(g, conductance=None):
    c = 1.0 / g.weight if conductance is None else conductance
    return SparseLaplacian(g.laplacian_csr(c))


def block_lap(rows, cols, weights=None):
    g = grid_graph(rows, cols)
    w = np.ones(g.m) if weights is None else weights
    return SparseLaplacian(g.laplacian_csr(w)), g


class TestExactSchur:
    def test_series_resistors(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        s = exact_schur(lap, [0, 2])
        assert np.allclose(s.dense(), [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)

    def test_star_to_triangle(self):
        lap = SparseLaplacian.from_edges(4, [0, 0, 0], [1, 2, 3], np.ones(3))
        s = exact_schur(lap, [1, 2, 3])
        expect = np.full((3, 3), -1 / 3) + np.diag([1.0, 1.0, 1.0])
        assert np.allclose(s.dense(), expect, atol=1e-12)

    def test_boundary_equals_vertices(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
        s = exact_schur(lap, [0, 1, 2])
        assert np.allclose(s.dense(), lap.dense())

    def test_matches_partial_elimination_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(5, 16))
            g = random_connected_graph(rng, n, int(rng.integers(0, n)))
            lap = lap_of(g)
            nb = int(rng.integers(2, max(n // 2, 3)))
            bdry = np.sort(rng.choice(n, size=nb, replace=False))
            ours = exact_schur(lap, bdry).dense()
            ref = partial_elimination_schur(lap.dense(), bdry)
            scale = np.abs(ref).max()
            assert np.allclose(ours, ref, atol=1e-9 * scale, rtol=1e-9)

    def test_isolated_interior_component_rejected(self):
        lap = SparseLaplacian.from_edges(5, [0, 1, 3], [1, 2, 4], np.ones(3))
        with pytest.raises(GraphError, match="no boundary vertex"):
            exact_schur(lap, [0, 2])

    def test_output_is_laplacian(self, rng):
        g = random_connected_graph(rng, 12, 10)
        s = exact_schur(lap_of(g), np.arange(4))
        s.validate(tol=1e-10)


class TestApproxSchur:
    def test_path_small_eps(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        s = approx_schur(lap, [0, 2], 0.01)
        w = -s.dense()[0, 1]
        assert 0.495 <= w <= 0.505

    def test_boundary_equals_vertices_identity(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 2.0])
        s = approx_schur(lap, [0, 1, 2], 0.1)
        assert np.allclose(s.dense(), lap.dense())

    def test_sandwich_on_random_graphs(self, rng):
        for _ in range(15):
            g = random_connected_graph(rng, 30, 40)
            lap = lap_of(g)
            bdry = np.arange(8)
            approx = approx_schur(lap, bdry, 0.1).dense()
            exact = exact_schur(lap, bdry).dense()
            lo, hi = gen_eig_range(approx, exact)
            assert 0.9 - 1e-6 <= lo and hi <= 1.1 + 1e-6
            assert np.abs(approx - exact).max() <= 1e-12 * np.abs(exact).max()
        # disjoint unions of 2-4 components, interleaved by a vertex permutation,
        # each component with at least one boundary and one interior vertex
        for k in (2, 3, 4):
            for _ in range(5):
                sizes = rng.integers(3, 15, size=k)
                offsets = np.concatenate([[0], np.cumsum(sizes)])
                tails, heads, c, bdry = [], [], [], []
                for n, off in zip(sizes.tolist(), offsets[:-1].tolist()):
                    t, h, w = lap_of(random_connected_graph(rng, n, n)).edge_list()
                    tails.append(t + off)
                    heads.append(h + off)
                    c.append(w)
                    bdry.append(off + rng.choice(n, size=int(rng.integers(1, n)), replace=False))
                perm = rng.permutation(offsets[-1])
                lap = SparseLaplacian.from_edges(int(offsets[-1]), perm[np.concatenate(tails)],
                                                 perm[np.concatenate(heads)], np.concatenate(c))
                assert lap.component_labels()[0] == k
                bdry = perm[np.concatenate(bdry)]
                approx = approx_schur(lap, bdry, 0.1).dense()
                exact = exact_schur(lap, bdry).dense()
                assert np.abs(approx - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_eps_range_enforced(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        with pytest.raises(GraphError):
            approx_schur(lap, [0, 2], 0.7)

    def test_clamp_beyond_a_tenth_of_eps_raises(self):
        # the path 0 - 2 - 1 plus a positive (0, 1) entry of 1: the Schur
        # complement onto {0, 1} is 0.5 everywhere, so the clamped mass
        # equals its trace
        a = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 2.0]])
        with pytest.raises(ValidationError, match="clamped positive off-diagonal mass"):
            approx_schur(SparseLaplacian(sp.csr_matrix(a)), [0, 1], 0.2)


class TestSpectralBounds:
    def test_single_unit_edge(self):
        lap = SparseLaplacian.from_edges(2, [0], [1], [1.0])
        b = spectral_bounds(lap)
        assert b.lam_min == 0.25 and b.lam_max == 2.0 and b.kappa == 8.0

    def test_path_of_two(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        b = spectral_bounds(lap)
        assert b.lam_min == pytest.approx(1 / 9) and b.lam_max == 3.0

    def test_kappa_bound(self):
        lap = SparseLaplacian.from_edges(4, [0, 1, 2], [1, 2, 3], [1.0, 4.0, 1.0])
        b = spectral_bounds(lap)
        n, u = 4, 4.0
        assert b.kappa == pytest.approx(256.0)
        assert b.kappa <= n**3 * u

    def test_bounds_bracket_true_spectrum(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 10, 8)
            lap = lap_of(g)
            b = spectral_bounds(lap)
            eig = np.linalg.eigvalsh(lap.dense())
            assert b.lam_min <= eig[1] + 1e-12
            assert eig[-1] <= b.lam_max + 1e-12

    def test_max_edge_weight_at_most_twice_lam_n(self, rng):
        for _ in range(20):
            g = random_connected_graph(rng, 9, 7)
            lap = lap_of(g)
            eig = np.linalg.eigvalsh(lap.dense())
            assert lap.weights().max() <= 2 * eig[-1] + 1e-12


class TestWeightFloor:
    def test_additive_rule(self):
        lap = SparseLaplacian.from_edges(2, [0], [1], [1.0])
        out = weight_floor(lap, 0.25)
        assert -out.dense()[0, 1] == pytest.approx(1.0625)

    def test_sandwich(self, rng):
        for _ in range(10):
            g = random_connected_graph(rng, 10, 8)
            lap = lap_of(g)
            b = spectral_bounds(lap)
            out = weight_floor(lap, b.lam_min)
            lo, hi = gen_eig_range(out.dense(), lap.dense())
            assert 1.0 - 1e-12 <= lo and hi <= 1.0 + 1.0 / lap.n + 1e-12


class TestOneStep:
    def test_path_series_value(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        vs = one_step_vertex_sparsify(lap, [0, 2], 0.3, seed=0)
        w = -vs.laplacian.dense()[0, 1]
        assert 0.35 <= w <= 0.65
        vs.validate()

    def test_boundary_all_vertices(self):
        lap = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
        vs = one_step_vertex_sparsify(lap, [0, 1, 2], 0.3, seed=0)
        lo, hi = gen_eig_range(vs.laplacian.dense(), lap.dense())
        assert 0.7 <= lo and hi <= 1.3

    def test_grid_block_perimeter(self, rng):
        lap, g = block_lap(5, 5)
        perim = np.array([v for v in range(25) if v // 5 in (0, 4) or v % 5 in (0, 4)])
        vs = one_step_vertex_sparsify(lap, perim, 0.2, seed=7)
        vs.validate()
        exact = exact_schur(lap, perim)
        lo, hi = gen_eig_range(vs.laplacian.dense(), exact.dense())
        assert 0.8 <= lo and hi <= 1.2

    def test_deterministic(self):
        # nothing is drawn at random, so the seed has no effect
        lap, _ = block_lap(5, 5)
        perim = np.array([v for v in range(25) if v // 5 in (0, 4) or v % 5 in (0, 4)])
        a = one_step_vertex_sparsify(lap, perim, 0.2, seed=0)
        b = one_step_vertex_sparsify(lap, perim, 0.2, seed=12345)
        assert np.array_equal(a.laplacian.dense(), b.laplacian.dense())

    @pytest.mark.parametrize("eps", [0.05, 0.3, 0.49])
    def test_is_the_floored_schur_complement(self, rng, eps):
        # the Schur complement is kept whole: no edge is sampled away
        g = grid_graph(6, 7)
        lap = lap_of(g, rng.uniform(0.5, 2.0, g.m))
        side = np.arange(7)
        vs = one_step_vertex_sparsify(lap, side, eps)
        expect = weight_floor(approx_schur(lap, side, eps / 3.0), spectral_bounds(lap).lam_min)
        assert np.array_equal(vs.laplacian.dense(), expect.dense())


class TestRecursive:
    def test_leaf_equals_one_step(self):
        lap, g = block_lap(3, 3)
        tree = separator_tree_for_grid_block(GridSpec(3, 3), np.arange(9), leaf_cutoff=16)
        assert tree.root.is_leaf
        vs = recursive_vertex_sparsify(lap, [0, 8], tree, 0.3, seed=1)
        exact = exact_schur(lap, [0, 8])
        lo, hi = gen_eig_range(vs.laplacian.dense(), exact.dense())
        assert 0.7 <= lo and hi <= 1.3

    def test_path_of_nine(self):
        lap = SparseLaplacian.from_edges(9, np.arange(8), np.arange(1, 9), np.ones(8))
        tree = separator_tree_for_grid_block(GridSpec(2, 9), np.arange(9), leaf_cutoff=4)
        vs = recursive_vertex_sparsify(lap, [0, 8], tree, 0.3, seed=1)
        w = -vs.laplacian.dense()[0, 1]
        assert (1 - 0.3) / 8 <= w <= (1 + 0.3) / 8

    def test_8x8_one_side(self):
        lap, g = block_lap(8, 8)
        tree = separator_tree_for_grid_block(GridSpec(8, 8), np.arange(64), g=g)
        side = np.arange(8)
        vs = recursive_vertex_sparsify(lap, side, tree, 0.3, seed=5)
        vs.validate()
        exact = exact_schur(lap, side)
        lo, hi = gen_eig_range(vs.laplacian.dense(), exact.dense())
        assert 0.7 <= lo and hi <= 1.3

    def test_deterministic(self):
        # nothing is drawn at random, so the seed has no effect
        lap, g = block_lap(8, 8)
        tree = separator_tree_for_grid_block(GridSpec(8, 8), np.arange(64), g=g)
        a = recursive_vertex_sparsify(lap, np.arange(8), tree, 0.3, seed=0)
        b = recursive_vertex_sparsify(lap, np.arange(8), tree, 0.3, seed=12345)
        assert np.array_equal(a.laplacian.dense(), b.laplacian.dense())


class TestSchurIdentities:
    def test_schur_of_similar_graphs(self, rng):
        # reweighting H within (1 +- eps) of G keeps Schur complements sandwiched
        eps = 0.2
        for _ in range(10):
            g = random_connected_graph(rng, 12, 10)
            lap_g = lap_of(g)
            scale = rng.uniform(1 - eps, 1 + eps, g.m)
            lap_h = SparseLaplacian(g.laplacian_csr(scale / g.weight))
            bdry = np.arange(4)
            sg = exact_schur(lap_g, bdry).dense()
            sh = exact_schur(lap_h, bdry).dense()
            lo, hi = gen_eig_range(sh, sg)
            assert 1 - eps - 1e-9 <= lo and hi <= 1 + eps + 1e-9

    def test_dirichlet_energy_identity(self, rng):
        # x^T Schur x = min over interior extensions of the full quadratic form
        for _ in range(10):
            n = int(rng.integers(6, 21))
            g = random_connected_graph(rng, n, n)
            lap = lap_of(g)
            bdry = np.sort(rng.choice(n, size=int(rng.integers(2, n - 1)), replace=False))
            intr = np.setdiff1d(np.arange(n), bdry)
            schur = exact_schur(lap, bdry).dense()
            dense = lap.dense()
            x = rng.normal(size=bdry.size)
            l_intr = dense[np.ix_(intr, intr)]
            l_mid = dense[np.ix_(intr, bdry)]
            y = -np.linalg.solve(l_intr, l_mid @ x) if intr.size else np.zeros(0)
            z = np.zeros(n)
            z[bdry] = x
            z[intr] = y
            assert x @ schur @ x == pytest.approx(z @ dense @ z, abs=1e-8 * max(abs(x @ schur @ x), 1))

    def test_spectrum_relation(self, rng):
        for _ in range(10):
            n = int(rng.integers(6, 15))
            g = random_connected_graph(rng, n, n)
            lap = lap_of(g)
            bdry = np.arange(int(rng.integers(2, n - 1)))
            schur = exact_schur(lap, bdry).dense()
            le = np.linalg.eigvalsh(lap.dense())
            se = np.linalg.eigvalsh(schur)
            assert se[1] >= le[1] - 1e-9
            assert se[-1] <= n * le[-1] + 1e-9
