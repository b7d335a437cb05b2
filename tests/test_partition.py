import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepflow import (GraphError, GridSpec, ParseError, SeparatorNode, SeparatorTree,
                     ValidationError, approx_max_flow, edge_group_ids, grid_graph,
                     grid_r_division, load_partition, partition_from_groups,
                     random_capacity_grid, route_fixed_flow, save_partition,
                     separator_tree_for_grid_block, validate_partition, validate_septree)
from sepflow import partition
from sepflow.graphs import check_terminals, group_ids


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

    @pytest.mark.parametrize("dims", [(4, 16), (9, 8), (8, 8, 2), (7, 7)])
    def test_graph_of_another_grid_rejected(self, dims):
        # 4x16 has the 8x8 graph's n, 9x8 has more edges, 7x7 is smaller than the graph
        g = grid_graph(8, 8)
        spec = GridSpec(*dims)
        with pytest.raises(GraphError, match=re.escape(
                f"graph has n = 64, m = 112, but the {'x'.join(map(str, dims))}"
                f"{'' if len(dims) == 3 else 'x1'} grid has n = {spec.n}, m = {spec.m}")):
            grid_r_division(*dims[:2], spec.layers, 16, graph=g)

    @pytest.mark.parametrize("r", [float("nan"), float("inf"), 10.5, 16.0, "16", None, True, 3,
                                   np.int64(2)])
    def test_r_that_is_not_an_integer_of_at_least_4_rejected(self, r):
        # RunConfig.r's rule and message
        with pytest.raises(GraphError, match=re.escape(
                f"grid_r_division requires r to be an integer >= 4, not {r!r}")):
            grid_r_division(8, 8, 1, r)

    def test_partition_of_another_graph_rejected_before_any_work(self):
        g8 = random_capacity_grid(8, 8, seed=1)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, 63), graph=g8)
        g9 = random_capacity_grid(9, 9, seed=1)
        message = "the partition is of a graph with n = 64, m = 112; this graph has n = 81"
        with pytest.raises(GraphError, match=message):
            approx_max_flow(g9, part, None, 0, 63, 0.1)
        with pytest.raises(GraphError, match=message):
            route_fixed_flow(g9, part, None, 0, 63, 1.0, 0.1)


class TestPartitionValidation:
    @pytest.mark.parametrize("r", [16.9, float("nan"), "16", None, 3, np.float64(16.0)])
    def test_explicit_groups_follow_the_rule_for_r(self, r):
        # grid_r_division's rule: 16.9 once became r = 16, "16" was taken,
        # nan and None raised bare ValueError and TypeError
        g = grid_graph(3, 3)
        with pytest.raises(GraphError, match=re.escape(
                f"partition_from_groups requires r to be an integer >= 4, not {r!r}")):
            partition_from_groups(g, [np.arange(g.m)], r=r)
        part = partition_from_groups(g, [np.arange(g.m)], r=12)
        with pytest.raises(GraphError, match=re.escape(
                f"validate_partition requires r to be an integer >= 4, not {r!r}")):
            validate_partition(replace(part, r=r), g)

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

    def test_group_ids_checked(self):
        g = grid_graph(4, 4)
        part = grid_r_division(4, 4, 1, 8, graph=g)
        assert np.array_equal(part.group_of_edge, edge_group_ids(part.groups, g.m))
        swapped = part.group_of_edge.copy()
        swapped[[0, -1]] = swapped[[-1, 0]]
        with pytest.raises(ValidationError, match="group ids do not match the groups"):
            validate_partition(replace(part, group_of_edge=swapped), g)

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

    def test_a_boundary_set_with_one_wrong_vertex_is_named(self, tmp_path):
        # a set of the right size, so the sets are compared in one sort
        g = grid_graph(8, 8)
        part = grid_r_division(8, 8, 1, 16, terminals=(0, 63), graph=g)
        wrong = part.boundaries[2].copy()
        wrong[0] = np.setdiff1d(np.arange(g.n), wrong)[0]
        message = "boundary set of group 2 does not match its definition"
        with pytest.raises(ValidationError, match=message):
            validate_partition(replace(part, boundaries=part.boundaries[:2] + [wrong]
                                       + part.boundaries[3:]), g)
        path = tmp_path / "p.part"
        save_partition(part, path)
        text = [f"b 2 {' '.join(map(str, wrong))}" if ln.startswith("b 2 ") else ln
                for ln in path.read_text().splitlines()]
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(ValidationError, match=message):
            load_partition(path, g, terminals=(0, 63))

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

    @pytest.mark.parametrize("text, message", [
        ("k 1 r 12\nk 1 r 16\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\n",
         "line 2: second 'k' line (first on line 1)"),
        ("k 1 r 12\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\ng 0 0 1 2\n",
         "line 3: second 'g 0' line (first on line 2)"),
        ("k 1 r 12\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\nb 0\nc note\nb 0\n",
         "line 5: second 'b 0' line (first on line 3)"),
        ("c header\nk 1 r 3\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\n", "line 2: need r >= 4, not 3"),
    ], ids=["header", "group", "boundary", "small-r"])
    def test_repeated_record_or_small_r_names_its_line(self, tmp_path, text, message):
        # the last repeated record once won silently, and r below 4 reached
        # the size clauses
        path = tmp_path / "bad.part"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_partition(path, grid_graph(3, 3))

    @pytest.mark.parametrize("text, message", [
        ("k 1\n", "line 1: expected 'k <num_groups> r <r>'"),
        ("k 1 r 12\nz 0 1\n", "line 2: unknown record 'z'"),
        ("c no header\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\n", "missing 'k ... r ...' header"),
        ("k 2 r 12\ng 0 0 1 2 3 4 5 6 7 8 9 10 11\n", "expected groups 0..1, got [0]"),
    ], ids=["short-header", "unknown-record", "no-header", "missing-group"])
    def test_malformed_file_message(self, tmp_path, text, message):
        path = tmp_path / "bad.part"
        path.write_text(text)
        with pytest.raises(ParseError, match=re.escape(message)):
            load_partition(path, grid_graph(3, 3))

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

    @staticmethod
    def grid_tree():
        # 8x8: root separator column 3 (8 vertices, c0 = 1), leaves of 12-16 vertices
        return separator_tree_for_grid_block(GridSpec(8, 8), np.arange(64), g=grid_graph(8, 8))

    def test_root_set_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="root vertex set"):
            validate_septree(self.grid_tree(), expected_root=np.arange(63))

    def test_depth_above_bound_rejected(self):
        # a chain of 17 splits of {0, 1}; log_(20/19)(2) + 2 allows 16
        pair, empty = np.array([0, 1]), np.array([], dtype=np.int64)
        root = SeparatorNode(vertices=pair, separator=empty)
        for _ in range(17):
            root = SeparatorNode(vertices=pair, separator=pair, left=root,
                                 right=SeparatorNode(vertices=pair, separator=empty))
        tree = SeparatorTree(root=root, c0=10.0)
        assert tree.depth() == 17
        with pytest.raises(ValidationError, match="tree depth 17 exceeds .* bound 16"):
            validate_septree(tree)

    def test_leaf_above_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="leaf has 16 vertices > leaf cutoff 12"):
            validate_septree(replace(self.grid_tree(), leaf_cutoff=12))

    def test_children_that_miss_a_vertex_rejected(self):
        tree = self.grid_tree()
        tree.root.left.vertices = tree.root.left.vertices[1:]  # vertex 0 is in no child
        with pytest.raises(ValidationError, match="do not cover"):
            validate_septree(tree)

    def test_children_sharing_a_non_separator_vertex_rejected(self):
        tree = self.grid_tree()
        tree.root.separator = tree.root.separator[1:]  # vertex 3 stays in both children
        with pytest.raises(ValidationError, match="overlap outside the separator"):
            validate_septree(tree)

    def test_separator_above_c0_sqrt_n_rejected(self):
        with pytest.raises(ValidationError, match=r"separator of size 8 exceeds c0 \* sqrt\(64\)"):
            validate_septree(replace(self.grid_tree(), c0=0.5))

    def test_partition_trees(self):
        g = grid_graph(16, 16)
        part = grid_r_division(16, 16, 1, 32, terminals=(0, 255), graph=g)
        for i in range(part.k):
            verts = part.group_vertices(g, i)
            tree = separator_tree_for_grid_block(GridSpec(16, 16), verts, g=g)
            validate_septree(tree, g=g, expected_root=verts)


# -- the list-based construction, kept as a reference for the id-array path --


def reference_block_worst(rows, cols, layers, p_r, p_c):
    """Most edges owned by one block, block by block."""
    ra, ca = partition._axis_parts(rows, p_r), partition._axis_parts(cols, p_c)
    worst = 0
    for i, a in enumerate(ra):
        for j, b in enumerate(ca):
            worst = max(worst, partition._block_edge_count(
                a, b, layers, owns_east=j + 1 < p_c, owns_south=i + 1 < p_r))
    return worst


def reference_grid_groups(rows, cols, layers, r, g):
    """The blocks' edge lists, block by block, in block order, empty blocks dropped."""
    spec = GridSpec(rows, cols, layers)

    def feasible(p_r, p_c):
        return reference_block_worst(rows, cols, layers, p_r, p_c) <= r

    side = max(1, math.isqrt(r // 2 if layers == 1 else r // (3 * layers - 1)))
    p_r, p_c = math.ceil(rows / side), math.ceil(cols / side)
    if not feasible(p_r, p_c) or p_r * p_c > max(partition.C_DIV * spec.n / r, 1.0):
        best = None
        for pr in range(1, rows + 1):
            for pc in range(1, cols + 1):
                if feasible(pr, pc):
                    key = (pr * pc, abs(pr - pc))
                    if best is None or key < best[0]:
                        best = (key, pr, pc)
                    break
        if best is None:
            raise GraphError(f"no block decomposition fits r = {r}")
        _, p_r, p_c = best
    row_block = np.repeat(np.arange(p_r), partition._axis_parts(rows, p_r))
    col_block = np.repeat(np.arange(p_c), partition._axis_parts(cols, p_c))
    _, trow, tcol = spec.coord_arrays(g.tails)
    owner = row_block[trow] * p_c + col_block[tcol]
    groups = [np.flatnonzero(owner == b) for b in range(p_r * p_c)]
    return [grp for grp in groups if grp.size]


def reference_partition(g, groups, r, terminals):
    """(groups, boundaries, mask) of explicit groups: every group sorted and
    deduplicated one by one, the (group, vertex) incidences by ``np.unique``,
    and the size clauses group by group."""
    groups = [np.unique(np.asarray(grp, dtype=np.int64)) for grp in groups]
    for i, grp in enumerate(groups):
        if not grp.size:
            raise ValidationError(f"group {i} is empty")
    check_terminals(g.n, terminals)
    try:
        gid = edge_group_ids(groups, g.m)
    except GraphError as exc:
        raise ValidationError(str(exc)) from None
    keys = np.unique(np.concatenate([gid * g.n + g.tails, gid * g.n + g.heads]))
    owner, verts = np.divmod(keys, g.n)
    mask = np.bincount(verts, minlength=g.n) > 1
    mask[list(terminals)] = True
    boundaries = [verts[(owner == i) & mask[verts]] for i in range(len(groups))]
    for i, grp in enumerate(groups):
        if len(grp) > r:
            raise ValidationError(f"group {i} has {len(grp)} edges > r = {r}")
    k_bound = max(partition.C_DIV * g.n / r, 1.0)
    if len(groups) > k_bound:
        raise ValidationError(f"k = {len(groups)} exceeds c_div * n / r = {k_bound:.2f}")
    bdry_bound = partition.C_BDRY * math.sqrt(r)
    for i, b in enumerate(boundaries):
        if len(b) > bdry_bound:
            raise ValidationError(
                f"|V_bdry(S_{i})| = {len(b)} exceeds c_bdry * sqrt(r) = {bdry_bound:.2f}")
    return groups, boundaries, mask


def assert_same_partition(part, ref, g):
    groups, boundaries, mask = ref
    assert len(part.groups) == len(groups)
    for ours, theirs in zip(part.groups, groups):
        assert ours.dtype == np.int64 and np.array_equal(ours, theirs)
    assert len(part.boundaries) == len(boundaries)
    for ours, theirs in zip(part.boundaries, boundaries):
        assert np.array_equal(ours, theirs)
    assert part.is_boundary.dtype == bool and np.array_equal(part.is_boundary, mask)
    assert np.array_equal(part.group_of_edge, edge_group_ids(part.groups, g.m))


def reference_or_error(build):
    try:
        return build(), None
    except (GraphError, ValidationError) as exc:
        return None, exc


class TestIdArrayPath:
    def test_closed_form_worst_block_matches_every_block(self):
        """Every (rows, cols, layers, p_r, p_c) with all five at most 12; the
        per-block maximum of each is evaluated over all blocks at once."""
        dims, parts = np.arange(2, 13), np.arange(1, 13)
        # per (dim, parts, block index): its size, whether it owns its far
        # face, and whether the block exists (index < parts)
        size = np.zeros((dims.size, parts.size, 12), dtype=np.int64)
        owns = np.zeros_like(size, dtype=bool)
        exists = np.zeros_like(owns)
        for a, dim in enumerate(dims):
            for b, p in enumerate(parts):
                split = [len(x) for x in np.array_split(np.arange(dim), p)]
                size[a, b, :p] = split
                owns[a, b, :p - 1] = True
                exists[a, b, :p] = True
        col_size, col_owns, col_exists = size[None, None], owns[None, None], exists[None, None]
        for layers in range(1, 13):
            for a, rows in enumerate(dims):
                # axes: (p_r, row block, cols, p_c, col block)
                row_size = size[a][:, :, None, None, None]
                row_owns = owns[a][:, :, None, None, None]
                row_exists = exists[a][:, :, None, None, None]
                count = (layers * (row_size * (col_size - 1) + col_size * (row_size - 1))
                         + (layers - 1) * row_size * col_size
                         + layers * row_size * col_owns + layers * col_size * row_owns)
                count = np.where(row_exists & col_exists, count, 0)
                worst = count.max(axis=(1, 4))  # (p_r, cols, p_c)
                for i, p_r in enumerate(parts):
                    for c, cols in enumerate(dims):
                        for j, p_c in enumerate(parts):
                            got = partition._worst_block_edges(rows, cols, layers, p_r, p_c)
                            assert got == worst[i, c, j], (rows, cols, layers, p_r, p_c)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(rows=st.integers(2, 20), cols=st.integers(2, 20), layers=st.integers(1, 3),
           r=st.integers(4, 200), picks=st.lists(st.integers(0, 2**16), max_size=3))
    # the fallback block search: with its smallest k, and (3 layers, r = 4) with no fit
    @example(rows=2, cols=20, layers=1, r=30, picks=[0, 39])
    @example(rows=5, cols=3, layers=3, r=40, picks=[7])
    @example(rows=4, cols=4, layers=3, r=4, picks=[])
    def test_constructors_match_the_list_reference(self, rows, cols, layers, r, picks):
        g = grid_graph(rows, cols, layers)
        terminals = tuple(dict.fromkeys(v % g.n for v in picks))
        ref_groups, exc = reference_or_error(
            lambda: reference_grid_groups(rows, cols, layers, r, g))
        ref = None
        if exc is None:
            ref, exc = reference_or_error(
                lambda: reference_partition(g, ref_groups, r, terminals))
        if exc is not None:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                grid_r_division(rows, cols, layers, r, terminals=terminals, graph=g)
            if ref_groups is not None:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    partition_from_groups(g, ref_groups, r, terminals=terminals)
            return
        part = grid_r_division(rows, cols, layers, r, terminals=terminals, graph=g)
        assert_same_partition(part, ref, g)
        assert_same_partition(partition_from_groups(g, ref_groups, r, terminals), ref, g)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.part"
            save_partition(part, path)
            assert_same_partition(load_partition(path, g, terminals=terminals), ref, g)
        validate_partition(part, g)

    def test_fallback_search_is_reached(self):
        # the first guess (side 2 blocks) exceeds the group-count bound here
        rows, cols, layers, r = 2, 20, 1, 30
        side = max(1, math.isqrt(r // 2))
        assert math.ceil(rows / side) * math.ceil(cols / side) > partition.C_DIV * 40 / r
        part = grid_r_division(rows, cols, layers, r)
        assert part.k == 2

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**31), k=st.integers(1, 6), repeats=st.integers(0, 4))
    def test_explicit_groups_with_repeats_match_the_reference(self, seed, k, repeats):
        rng = np.random.default_rng(seed)
        g = grid_graph(4, 5)
        owner = rng.integers(0, k, g.m)
        owner[:k] = np.arange(k)
        groups = [rng.permutation(np.flatnonzero(owner == i)) for i in range(k)]
        for _ in range(repeats):  # repeats inside one group are dropped
            i = int(rng.integers(k))
            groups[i] = np.append(groups[i], rng.choice(groups[i]))
        r = int(rng.integers(4, 40))
        ref, exc = reference_or_error(lambda: reference_partition(g, groups, r, (0, g.n - 1)))
        if exc is not None:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                partition_from_groups(g, groups, r, terminals=(0, g.n - 1))
            return
        part = partition_from_groups(g, groups, r, terminals=(0, g.n - 1))
        assert_same_partition(part, ref, g)
        flat, _ = group_ids(part.groups)
        assert np.array_equal(np.sort(flat), np.arange(g.m))
