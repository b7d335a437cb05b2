import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, GridSpec, ParseError, SeparatorNode, SeparatorTree,
                     ValidationError, grid_graph, grid_r_division, load_partition,
                     partition_from_groups, save_partition, separator_tree_for_grid_block,
                     validate_partition, validate_septree)
from sepflow import partition


class TestGridRDivision:
    def test_9x9_r32(self):
        g = grid_graph(9, 9)
        part = grid_r_division(9, 9, 1, 32, terminals=(0, 80), graph=g)
        assert part.k == 9
        assert max(len(grp) for grp in part.groups) <= 32
        assert max(len(b) for b in part.boundaries) <= 12
        # edge partition exactness
        all_edges = np.sort(np.concatenate(part.groups))
        assert np.array_equal(all_edges, np.arange(g.m))

    def test_2x2_degenerate_single_group(self):
        g = grid_graph(2, 2)
        part = grid_r_division(2, 2, 1, 100, terminals=(0, 3), graph=g)
        assert part.k == 1
        assert len(part.groups[0]) == 4
        # boundary is just the terminals
        assert part.boundaries[0].tolist() == [0, 3]

    def test_4x4_r8_four_blocks(self):
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, graph=g)
        assert part.k == 4
        counted = sum(len(grp) for grp in part.groups)
        assert counted == g.m == 24

    def test_terminals_forced_to_boundary(self):
        g = grid_graph(6, 6)
        part = grid_r_division(6, 6, 1, 12, terminals=(0, 35), graph=g)
        touching = [i for i in range(part.k)
                    if 0 in part.group_vertices(g, i)]
        for i in touching:
            assert 0 in part.boundaries[i]
        for bad in (-1, 36):
            with pytest.raises(GraphError, match=f"terminal {bad} is not a vertex id"):
                grid_r_division(6, 6, 1, 12, terminals=(0, bad), graph=g)

    def test_layers(self):
        g = grid_graph(6, 6, layers=2)
        part = grid_r_division(6, 6, 2, 32, terminals=(0, g.n - 1), graph=g)
        validate_partition(part, g)
        assert max(len(grp) for grp in part.groups) <= 32

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 12), st.integers(4, 12), st.integers(6, 64))
    def test_generated_partitions_always_validate(self, rows, cols, r):
        g = grid_graph(rows, cols)
        part = grid_r_division(rows, cols, 1, r, terminals=(0, g.n - 1), graph=g)
        validate_partition(part, g)


class TestPartitionValidation:
    def test_duplicate_edge_named(self):
        g = grid_graph(3, 3)
        groups = [np.arange(g.m), np.array([2])]
        with pytest.raises(ValidationError, match=r"edge 2 in groups 0 and 1"):
            partition_from_groups(g, groups, r=20)

    def test_out_of_range_edge_id_named(self):
        g = grid_graph(3, 3)
        with pytest.raises(ValidationError, match="edge id 12 in group 1 is out of range"):
            partition_from_groups(g, [np.arange(g.m), [g.m]], r=20)

    def test_missing_edge_detected(self):
        g = grid_graph(3, 3)
        with pytest.raises(ValidationError, match="belongs to no group"):
            partition_from_groups(g, [np.arange(g.m - 1)], r=20)

    def test_groups_are_sorted_and_repeats_dropped(self):
        g = grid_graph(3, 3)
        groups = [[7, 3, 3, 0, 11], np.array([10, 1, 2, 1]), [4, 5, 6, 8, 9, 9]]
        part = partition_from_groups(g, groups, r=8)
        assert [grp.tolist() for grp in part.groups] == [sorted(set(grp)) for grp in groups]
        assert all(grp.dtype == np.int64 for grp in part.groups)
        validate_partition(part, g)

    @pytest.mark.parametrize("empty", [0, 1, 2])
    def test_empty_group_named(self, empty):
        g = grid_graph(3, 3)
        groups = [np.arange(4), np.arange(4, 8), np.arange(8, g.m)]
        groups.insert(empty, [])
        with pytest.raises(ValidationError, match=f"^group {empty} is empty$"):
            partition_from_groups(g, groups, r=20)

    def test_group_size_bound(self):
        g = grid_graph(4, 4)
        with pytest.raises(ValidationError, match="> r"):
            partition_from_groups(g, [np.arange(g.m)], r=4)

    def test_boundary_bound_clause(self, monkeypatch):
        g = grid_graph(9, 9)
        part = grid_r_division(9, 9, 1, 32, graph=g)
        monkeypatch.setattr(partition, "C_BDRY", 0.1)
        with pytest.raises(ValidationError, match="c_bdry"):
            validate_partition(part, g)


class TestPartitionFiles:
    def test_round_trip(self, tmp_path):
        g = grid_graph(9, 9)
        part = grid_r_division(9, 9, 1, 32, terminals=(0, 80), graph=g)
        path = tmp_path / "p.part"
        save_partition(part, path)
        loaded = load_partition(path, g, terminals=(0, 80))
        assert loaded.k == part.k
        for a, b in zip(part.groups, loaded.groups):
            assert np.array_equal(a, b)
        for a, b in zip(part.boundaries, loaded.boundaries):
            assert np.array_equal(np.sort(a), np.sort(b))

    def test_edge_in_two_groups_error(self, tmp_path):
        g = grid_graph(3, 3)
        path = tmp_path / "bad.part"
        path.write_text("k 2 r 12\ng 0 0 1 2 3 4 5\ng 1 5 6 7 8 9 10 11\n")
        with pytest.raises(ValidationError, match=r"edge 5 in groups 0 and 1"):
            load_partition(path, g)

    def test_bad_boundary_set_error(self, tmp_path):
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, graph=g)
        path = tmp_path / "p.part"
        save_partition(part, path)
        text = path.read_text().splitlines()
        # corrupt group 0's boundary line
        text = [ln if not ln.startswith("b 0") else "b 0 0" for ln in text]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError, match="boundary set of group 0"):
            load_partition(path, g)

    @pytest.mark.parametrize("line", ["g", "b", "k a r 32", "g 0 x"])
    def test_malformed_line_names_its_number(self, tmp_path, line):
        path = tmp_path / "bad.part"
        path.write_text(f"{line}\n")
        with pytest.raises(ParseError, match="line 1: "):
            load_partition(path, grid_graph(3, 3))


class TestSeparatorTree:
    def test_small_path_is_leaf(self):
        spec = GridSpec(2, 9)
        tree = separator_tree_for_grid_block(spec, np.arange(9))
        assert tree.root.is_leaf

    def test_5x5_median_column(self):
        spec = GridSpec(5, 5)
        tree = separator_tree_for_grid_block(spec, np.arange(25), leaf_cutoff=16)
        assert tree.root.separator.tolist() == [2, 7, 12, 17, 22]
        assert tree.root.left.vertices.size == 15
        assert tree.root.right.vertices.size == 15

    def test_4x4_single_leaf_at_cutoff(self):
        spec = GridSpec(4, 4)
        tree = separator_tree_for_grid_block(spec, np.arange(16), leaf_cutoff=16)
        assert tree.root.is_leaf

    def test_validates_on_grid(self):
        g = grid_graph(8, 8)
        spec = GridSpec(8, 8)
        tree = separator_tree_for_grid_block(spec, np.arange(64), g=g)
        validate_septree(tree, g=g, expected_root=np.arange(64))

    def test_depth_bound(self):
        g = grid_graph(12, 12)
        tree = separator_tree_for_grid_block(GridSpec(12, 12), np.arange(144), g=g)
        n = 144
        assert tree.depth() <= math.ceil(math.log(n) / math.log(20 / 19)) + 2

    def test_separation_violation_detected(self):
        # hand-build a tree whose "separator" does not separate
        g =grid_graph(2, 3)  # vertices 0..5
        root = SeparatorNode(vertices=np.arange(6), separator=np.array([0]))
        root.left = SeparatorNode(vertices=np.array([0, 1, 2]), separator=np.array([], dtype=np.int64))
        root.right = SeparatorNode(vertices=np.array([0, 3, 4, 5]), separator=np.array([], dtype=np.int64))
        tree = SeparatorTree(root=root, leaf_cutoff=16, c0=10.0)
        with pytest.raises(ValidationError, match="BFS"):
            validate_septree(tree, g=g)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(5, 12), st.integers(5, 12))
    def test_generated_trees_always_validate(self, rows, cols):
        g = grid_graph(rows, cols)
        spec = GridSpec(rows, cols)
        tree = separator_tree_for_grid_block(spec, np.arange(g.n), g=g)
        validate_septree(tree, g=g, expected_root=np.arange(g.n))

    def test_unbalanced_tree_rejected(self):
        # 20-vertex root split into 19+sep vs 0+sep: violates alpha = 9/10
        empty = np.array([], dtype=np.int64)
        root = SeparatorNode(vertices=np.arange(20), separator=np.array([19]))
        root.left = SeparatorNode(vertices=np.arange(20), separator=empty)
        root.right = SeparatorNode(vertices=np.array([19]), separator=empty)
        with pytest.raises(ValidationError, match="unbalanced"):
            validate_septree(SeparatorTree(root=root))

    def test_partition_trees(self):
        g = grid_graph(16, 16)
        part = grid_r_division(16, 16, 1, 32, terminals=(0, 255), graph=g)
        for i in range(part.k):
            verts = part.group_vertices(g, i)
            tree = separator_tree_for_grid_block(GridSpec(16, 16), verts, g=g)
            validate_septree(tree, g=g, expected_root=verts)
