"""r-divisions and recursive separator trees.

Generators cover 2D and layered 3D grids.  An r-division of an arbitrary
graph is read from a partition file and validated against every structural
invariant (edge partition exactness, group size and boundary size);
``validate_septree`` checks a separator tree's balance, separator size and
literal BFS separation property.  Designated terminals (s and t) are
force-added to the boundary of every group they touch so that s-t demands
stay boundary-supported.

Each edge's group id, ``Partition.group_of_edge``, is an r-division's
primary form.  ``grid_r_division`` computes it from the grid blocks, and
``partition_from_groups``, ``load_partition`` and ``validate_partition`` from
edge lists (``edge_group_ids``).  All of them then build the groups,
boundaries, boundary mask and size clauses from that one array
(``_partition_from_ids``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .config import require_integer
from .errors import GraphError, ParseError, ValidationError
from .graphs import WeightedGraph, check_terminals, edge_group_ids, group_ids, sorted_distinct
from .grids import GridSpec, grid_graph

C_DIV = 4.0  # group-count bound k <= C_DIV n / r
C_BDRY = 8.0  # boundary-size bound |V_bdry(S_i)| <= C_BDRY sqrt(r)
DEFAULT_LEAF_CUTOFF = 16
ALPHA = 0.9


# -- r-divisions -------------------------------------------------------------


@dataclass
class Partition:
    """An r-division: edge groups with per-group boundary vertex sets.

    ``group_of_edge`` is the primary form: each edge's group id.  ``groups``
    (each group's edge ids, ascending), ``boundaries`` and ``is_boundary`` are
    derived from it, once, by the constructor that made the partition.
    """

    groups: list  # list of np.ndarray edge ids (sorted)
    boundaries: list  # list of np.ndarray vertex ids (sorted)
    is_boundary: np.ndarray  # per vertex: on some group's boundary (connected graph)
    group_of_edge: np.ndarray  # per edge: its index in ``groups``
    r: int
    n: int
    m: int
    terminals: tuple = ()
    _topology: object = field(default=None, repr=False, compare=False)

    @property
    def k(self):
        return len(self.groups)

    def topology(self, g: WeightedGraph):
        """The groups' ``GroupTopology`` on ``g``, built on first use and cached here.

        Partition constructors never build it, so set-up does no elimination work.
        """
        from .schur import GroupTopology

        if self._topology is None or not self._topology.matches(g):
            self._topology = GroupTopology(g, self.groups, self.boundaries)
        return self._topology

    def group_vertices(self, g: WeightedGraph, i):
        grp = self.groups[i]
        return sorted_distinct(np.concatenate([g.tails[grp], g.heads[grp]]))


def _slices(flat, cuts):
    """``flat[cuts[i]:cuts[i + 1]]`` for each i."""
    cuts = cuts.tolist()
    return [flat[a:b] for a, b in zip(cuts, cuts[1:])]


def _partition_from_ids(g: WeightedGraph, group_of_edge, k, r, terminals,
                        claimed=None) -> Partition:
    """The Partition of ``g`` whose group i holds the edges with group id i.

    ``group_of_edge`` holds an id in ``0..k-1`` for each edge and the
    terminals are vertex ids of ``g``; the caller has checked both.  The
    boundaries follow the definition: a vertex is on a group's boundary iff
    it touches the group and also touches another group, or is a terminal.
    ``claimed`` maps group indices to boundary sets the caller was given (a
    file's ``b`` lines, a Partition's own sets); each is checked against the
    definition before the size clauses.
    """
    gid, r = group_of_edge, int(r)
    order = np.argsort(gid, kind="stable")  # each group's edges stay ascending
    cuts = np.searchsorted(gid[order], np.arange(k + 1))
    # distinct (group, vertex) incidences, sorted by group then vertex
    keys = sorted_distinct(np.concatenate([gid * g.n + g.tails, gid * g.n + g.heads]))
    owner, verts = np.divmod(keys, g.n)
    is_bdry = np.bincount(verts, minlength=g.n) > 1
    is_bdry[np.asarray(terminals, dtype=np.int64)] = True
    on_bdry = is_bdry[verts]
    owner, verts = owner[on_bdry], verts[on_bdry]
    bcuts = np.searchsorted(owner, np.arange(k + 1))
    boundaries = _slices(verts, bcuts)
    if claimed:
        sets = [claimed.get(i, b) for i, b in enumerate(boundaries)]
        bad = _first_mismatch(sets, boundaries, g.n)
        if bad is not None:
            raise ValidationError(f"boundary set of group {bad} does not match its definition")
    _check_sizes(g.n, r, np.diff(cuts), np.diff(bcuts))
    return Partition(groups=_slices(order, cuts), boundaries=boundaries, is_boundary=is_bdry,
                     group_of_edge=gid, r=r, n=g.n, m=g.m, terminals=tuple(terminals))


def _checked_group_ids(g: WeightedGraph, groups, terminals):
    """Each edge's group id from a list of edge-id arrays (``edge_group_ids``),
    after the terminal check; its edge errors are raised as ValidationError."""
    check_terminals(g.n, terminals)
    try:
        return edge_group_ids(groups, g.m)
    except GraphError as exc:
        raise ValidationError(str(exc)) from None


def partition_from_groups(g: WeightedGraph, groups, r, terminals=()) -> Partition:
    """Build and validate a Partition from explicit edge groups; each group
    is kept sorted and without repeats.  ``r`` follows ``grid_r_division``'s rule."""
    require_integer("partition_from_groups", "r", r, 4)
    # one sort over (group, edge) pairs drops every group's repeats at once
    ids, owner = group_ids(groups)
    order = np.lexsort((ids, owner))
    ids, owner = ids[order], owner[order]
    repeat = np.zeros(ids.size, dtype=bool)
    repeat[1:] = (ids[1:] == ids[:-1]) & (owner[1:] == owner[:-1])
    ids, owner = ids[~repeat], owner[~repeat]
    cuts = np.searchsorted(owner, np.arange(len(groups) + 1))
    empty = np.flatnonzero(cuts[1:] == cuts[:-1])
    if empty.size:
        raise ValidationError(f"group {int(empty[0])} is empty")
    gid = _checked_group_ids(g, _slices(ids, cuts), terminals)
    return _partition_from_ids(g, gid, len(groups), r, terminals)


def _check_sizes(n, r, sizes, bsizes):
    """The group-size, group-count and boundary-size clauses, from each
    group's edge count ``sizes`` and boundary size ``bsizes``."""
    over = np.flatnonzero(sizes > r)
    if over.size:
        i = int(over[0])
        raise ValidationError(f"group {i} has {sizes[i]} edges > r = {r}")
    k_bound = max(C_DIV * n / r, 1.0)
    if sizes.size > k_bound:
        raise ValidationError(f"k = {sizes.size} exceeds c_div * n / r = {k_bound:.2f}")

    bdry_bound = C_BDRY * math.sqrt(r)
    over = np.flatnonzero(bsizes > bdry_bound)
    if over.size:
        i = int(over[0])
        raise ValidationError(
            f"|V_bdry(S_{i})| = {bsizes[i]} exceeds c_bdry * sqrt(r) = {bdry_bound:.2f}")


def _first_mismatch(sets, ref, n):
    """Index of the first group whose vertex set differs from ``ref``, or None."""
    flat, owner = group_ids(sets)
    ref_flat, ref_owner = group_ids(ref)
    in_range = not flat.size or (flat.min() >= 0 and flat.max() < n)
    if in_range and np.array_equal(owner, ref_owner):
        # one sort over (group, vertex) keys compares every set at once
        differ = np.sort(owner * n + flat) != owner * n + ref_flat
        if not differ.any():
            return None
        return int(owner[np.flatnonzero(differ)[0]])
    for i, (a, b) in enumerate(zip(sets, ref)):
        if not np.array_equal(np.sort(a), b):
            return i
    return min(len(sets), len(ref))


def validate_partition(part: Partition, g: WeightedGraph):
    """Enforce every r-division invariant; raises ValidationError naming the clause."""
    require_integer("validate_partition", "r", part.r, 4)
    if g.n != part.n or g.m != part.m:
        raise ValidationError("partition does not match graph dimensions")
    gid = _checked_group_ids(g, part.groups, part.terminals)
    # the size clauses read the sets as given, before they meet the definition
    bsizes = np.fromiter(map(len, part.boundaries), dtype=np.int64, count=len(part.boundaries))
    _check_sizes(g.n, part.r, np.bincount(gid, minlength=part.k), bsizes)
    ref = _partition_from_ids(g, gid, part.k, part.r, part.terminals,
                              claimed=dict(enumerate(part.boundaries)))
    if len(part.boundaries) != part.k:
        raise ValidationError(f"boundary set of group {min(len(part.boundaries), part.k)}"
                              " does not match its definition")
    if not np.array_equal(part.is_boundary, ref.is_boundary):
        raise ValidationError("boundary mask does not match its definition")
    if not np.array_equal(part.group_of_edge, gid):
        raise ValidationError("group ids do not match the groups")
    return part


def _worst_block_edges(rows, cols, layers, p_r, p_c):
    """Most edges owned by one block of the ``p_r`` x ``p_c`` balanced tiling.

    A block's edge count grows with its side lengths and with each face it
    owns.  On an axis split into several parts, some largest block
    (``ceil(dim / parts)`` long) is not the last one and so owns its far
    face; the worst block is such a block on both axes.
    """
    return _block_edge_count(-(-rows // p_r), -(-cols // p_c), layers,
                             owns_east=p_c > 1, owns_south=p_r > 1)


def _axis_parts(dim, parts):
    """Balanced split sizes (array_split semantics)."""
    q, rem = divmod(dim, parts)
    return [q + 1] * rem + [q] * (parts - rem)


def _block_edge_count(a, b, layers, owns_east, owns_south):
    internal = layers * (a * (b - 1) + b * (a - 1)) + (layers - 1) * a * b
    cuts = layers * (a if owns_east else 0) + layers * (b if owns_south else 0)
    return internal + cuts


def grid_r_division(rows, cols, layers, r, terminals=(),
                    graph: WeightedGraph | None = None) -> Partition:
    """Axis-aligned r-division of a grid built by ``grids.grid_graph``.

    Blocks are balanced vertex tiles; each block owns its internal edges plus
    the cut edges on its east and south faces, so every edge lands in exactly
    one group.  The number of blocks per axis is the smallest that keeps every
    group at or below r edges.  A ``graph`` whose vertex or edge count is not
    the grid's raises ``GraphError``, and so does an ``r`` that is not an
    integer >= 4 (``RunConfig.r``'s rule).
    """
    require_integer("grid_r_division", "r", r, 4)
    spec = GridSpec(rows, cols, layers)
    if graph is None:
        g = grid_graph(rows, cols, layers)
    elif (graph.n, graph.m) != (spec.n, spec.m):
        raise GraphError(f"graph has n = {graph.n}, m = {graph.m}, but the {rows}x{cols}"
                         f"x{layers} grid has n = {spec.n}, m = {spec.m}")
    else:
        g = graph

    def feasible(p_r, p_c):
        return _worst_block_edges(rows, cols, layers, p_r, p_c) <= r

    # blocks of side ~ sqrt(r / 2) in 2D, ~ sqrt(r / (3*layers - 1)) with layers
    side = max(1, math.isqrt(r // 2 if layers == 1 else r // (3 * layers - 1)))
    p_r, p_c = math.ceil(rows / side), math.ceil(cols / side)
    k_bound = max(C_DIV * spec.n / r, 1.0)
    if not feasible(p_r, p_c) or p_r * p_c > k_bound:
        # fall back to the smallest feasible k for small or ragged grids
        best = None
        for pr in range(1, rows + 1):
            for pc in range(1, cols + 1):
                if feasible(pr, pc):
                    key = (pr * pc, abs(pr - pc))
                    if best is None or key < best[0]:
                        best = (key, pr, pc)
                    break  # larger pc only adds groups for this pr
        if best is None:
            raise GraphError(f"no block decomposition fits r = {r}")
        _, p_r, p_c = best
    check_terminals(g.n, terminals)

    row_edges = np.cumsum([0] + _axis_parts(rows, p_r))
    col_edges = np.cumsum([0] + _axis_parts(cols, p_c))
    row_block = np.searchsorted(row_edges, np.arange(rows), side="right") - 1
    col_block = np.searchsorted(col_edges, np.arange(cols), side="right") - 1

    # owner of an edge = block of its canonical tail coordinate; blocks that
    # own no edge are dropped and the rest numbered in block order
    _, trow, tcol = spec.coord_arrays(g.tails)
    block = row_block[trow] * p_c + col_block[tcol]
    owns = np.bincount(block, minlength=p_r * p_c) > 0
    rank = np.cumsum(owns) - 1
    return _partition_from_ids(g, rank[block], int(owns.sum()), r, terminals)


# -- separator trees -----------------------------------------------------------


@dataclass
class SeparatorNode:
    vertices: np.ndarray
    separator: np.ndarray
    left: "SeparatorNode | None" = None
    right: "SeparatorNode | None" = None

    @property
    def is_leaf(self):
        return self.left is None and self.right is None

    def depth(self):
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def preorder(self):
        yield self
        if not self.is_leaf:
            yield from self.left.preorder()
            yield from self.right.preorder()


@dataclass
class SeparatorTree:
    """Recursive alpha-separator hierarchy; separator edges belong to both
    children at half weight, so child Laplacians sum back to the parent
    exactly."""

    root: SeparatorNode
    alpha: float = ALPHA
    leaf_cutoff: int = DEFAULT_LEAF_CUTOFF
    c0: float = 1.0

    def depth(self):
        return self.root.depth()


def _grid_split(spec: GridSpec, verts):
    """Axis-aligned median cut of a grid point set; returns (sep, left, right)."""
    layer, row, col = spec.coord_arrays(verts)
    axes = [(col, "col"), (row, "row"), (layer, "layer")]
    axes.sort(key=lambda t: -(t[0].max() - t[0].min()))
    for coords, _name in axes:
        lo, hi = coords.min(), coords.max()
        if hi - lo < 2:
            continue
        best = None
        for cut in range(lo + 1, hi):
            left = int((coords < cut).sum())
            right = int((coords > cut).sum())
            size = max(left, right)
            if best is None or size < best[0]:
                best = (size, cut)
        cut = best[1]
        sep = verts[coords == cut]
        left = verts[coords < cut]
        right = verts[coords > cut]
        if left.size and right.size:
            return sep, left, right
    return None


def separator_tree_for_grid_block(spec: GridSpec, vertices, leaf_cutoff=DEFAULT_LEAF_CUTOFF,
                                  g: WeightedGraph | None = None) -> SeparatorTree:
    """Separator tree for a grid block subgraph via axis-alternating median cuts.

    ``vertices`` are global grid vertex ids (a group's vertex set, fringe
    included).  The block must induce a connected subgraph.
    """
    verts = np.unique(np.asarray(vertices, dtype=np.int64))
    if g is not None and not _induced_connected(g, verts):
        raise GraphError("block subgraph is disconnected")

    max_sep = [0.0]

    def build(vs):
        if vs.size <= leaf_cutoff:
            return SeparatorNode(vertices=vs, separator=np.array([], dtype=np.int64))
        split = _grid_split(spec, vs)
        if split is None:
            return SeparatorNode(vertices=vs, separator=np.array([], dtype=np.int64))
        sep, left, right = split
        max_sep[0] = max(max_sep[0], sep.size / math.sqrt(vs.size))
        node = SeparatorNode(vertices=vs, separator=np.sort(sep))
        node.left = build(np.sort(np.concatenate([left, sep])))
        node.right = build(np.sort(np.concatenate([right, sep])))
        return node

    root = build(verts)
    return SeparatorTree(root=root, alpha=ALPHA, leaf_cutoff=leaf_cutoff,
                         c0=max(max_sep[0], 1.0))


def _induced_labels(g: WeightedGraph, verts):
    """Component labels of the subgraph induced on sorted ``verts``, by position."""
    inside = np.zeros(g.n, dtype=bool)
    inside[verts] = True
    keep = inside[g.tails] & inside[g.heads]
    idx = np.searchsorted(verts, g.tails[keep])
    jdx = np.searchsorted(verts, g.heads[keep])
    adj = sp.csr_matrix((np.ones(idx.size), (idx, jdx)), shape=(verts.size, verts.size))
    return connected_components(adj, directed=False)[1]


def _induced_connected(g: WeightedGraph, verts):
    return verts.size <= 1 or not _induced_labels(g, verts).any()


def validate_septree(tree: SeparatorTree, g: WeightedGraph | None = None,
                     expected_root=None):
    """Check the recursive separator structure; BFS-checks the separation property."""
    if expected_root is not None:
        if not np.array_equal(np.sort(np.asarray(expected_root)), np.sort(tree.root.vertices)):
            raise ValidationError("root vertex set does not equal the group vertex set")
    n_root = tree.root.vertices.size
    depth_bound = math.ceil(math.log(max(n_root, 2)) / math.log(20.0 / 19.0)) + 2
    if tree.depth() > depth_bound:
        raise ValidationError(f"tree depth {tree.depth()} exceeds log_(20/19)(n) bound {depth_bound}")
    for node in tree.root.preorder():
        verts = np.asarray(node.vertices)
        if node.is_leaf:
            if verts.size > tree.leaf_cutoff:
                raise ValidationError(
                    f"leaf has {verts.size} vertices > leaf cutoff {tree.leaf_cutoff}")
            continue
        sep = np.asarray(node.separator)
        v1, v2 = np.asarray(node.left.vertices), np.asarray(node.right.vertices)
        if not np.array_equal(np.union1d(v1, v2), np.sort(verts)):
            raise ValidationError("children do not cover their parent node")
        if not np.array_equal(np.intersect1d(v1, v2), np.sort(sep)):
            raise ValidationError("children overlap outside the separator")
        c1 = np.setdiff1d(v1, sep)
        c2 = np.setdiff1d(v2, sep)
        if max(c1.size, c2.size) > tree.alpha * verts.size:
            raise ValidationError(
                f"separator is unbalanced: max component {max(c1.size, c2.size)}"
                f" > alpha * {verts.size}")
        if sep.size > tree.c0 * math.sqrt(verts.size) * (1 + 1e-9):
            raise ValidationError(
                f"separator of size {sep.size} exceeds c0 * sqrt({verts.size})")
        if g is not None and c1.size and c2.size:
            if _bfs_reaches(g, verts, sep, c1, c2):
                raise ValidationError("BFS from C1 reaches C2 after removing the separator")
    return tree


def _bfs_reaches(g: WeightedGraph, verts, sep, c1, c2):
    """True iff C1 reaches C2 inside the induced subgraph minus the separator."""
    sub = np.setdiff1d(verts, sep)
    labels = _induced_labels(g, sub)
    l1 = labels[np.searchsorted(sub, c1)]
    l2 = labels[np.searchsorted(sub, c2)]
    return bool(np.isin(l1, l2).any())


# -- file formats ----------------------------------------------------------------


def save_partition(part: Partition, path):
    with open(path, "w") as fh:
        fh.write(f"k {part.k} r {part.r}\n")
        for i, grp in enumerate(part.groups):
            fh.write(f"g {i} " + " ".join(str(int(e)) for e in grp) + "\n")
        for i, b in enumerate(part.boundaries):
            fh.write(f"b {i} " + " ".join(str(int(v)) for v in b) + "\n")


def load_partition(path, g: WeightedGraph, terminals=()) -> Partition:
    """Parse and validate a partition file (validation is mandatory).  An ``r``
    below 4 or a repeated record raises ``ParseError`` naming its line."""
    groups = {}
    bdry = {}
    first = {}  # "k", or "g <group>" or "b <group>" -> the line number of that record
    k = r = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0] == "c":
                continue
            try:
                if parts[0] == "k":
                    if len(parts) != 4 or parts[2] != "r":
                        raise ParseError(f"line {lineno}: expected 'k <num_groups> r <r>'")
                    k, r, key = int(parts[1]), int(parts[3]), "k"
                    if r < 4:
                        raise ParseError(f"line {lineno}: need r >= 4, not {r}")
                elif parts[0] in ("g", "b"):
                    if len(parts) < 2:
                        raise ParseError(f"line {lineno}: expected '{parts[0]} <group> <ids...>'")
                    key = f"{parts[0]} {int(parts[1])}"
                    dest = groups if parts[0] == "g" else bdry
                    dest[int(parts[1])] = np.array([int(x) for x in parts[2:]], dtype=np.int64)
                else:
                    raise ParseError(f"line {lineno}: unknown record '{parts[0]}'")
                if key in first:
                    raise ParseError(f"line {lineno}: second '{key}' line (first on line {first[key]})")
                first[key] = lineno
            except ValueError:
                raise ParseError(f"line {lineno}: bad number in '{raw.strip()}'") from None
    if k is None:
        raise ParseError("missing 'k ... r ...' header")
    if sorted(groups) != list(range(k)):
        raise ParseError(f"expected groups 0..{k - 1}, got {sorted(groups)}")
    glist = [groups[i] for i in range(k)]
    gid = _checked_group_ids(g, glist, terminals)
    return _partition_from_ids(g, gid, k, r, terminals, claimed=bdry)
