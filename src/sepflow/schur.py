"""Exact and approximate Schur complements, the one-step / recursive spectral
vertex sparsifiers, and the batched per-group elimination.

A vertex sparsifier is its cleaned, clamp-checked Schur complement plus a
``lam_min / n^2`` weight floor, checked against one edge budget
``C_s b ln(b) eps^-2`` on b boundary vertices.  The paper's Sparsify step
(effective-resistance sampling) is left out: a Schur complement has at most
``b (b - 1) / 2`` edges, under the budget until b is far beyond what a dense
elimination can hold (README "Notes on scale").

Conventions: boundary vertex sets are always sorted; returned Laplacians are
indexed by position in the sorted boundary.  Disconnected inputs are handled
per component (Schur complements of components add); a component whose
vertices are all interior makes the interior block singular and is an error.

Per-group elimination: ``GroupTopology`` holds the weight-independent
structure of a list of edge groups (local ids with the boundary first, local
incidence, BFS trees, shape classes).  ``GroupElimination`` factors each
group's interior block once by dense Cholesky, stacked over groups of equal
shape, and keeps the Schur complement ``S = L_bb - L_bi L_ii^-1 L_ib`` and
the harmonic extension ``X = -L_ii^-1 L_ib``.  Those serve the one-step
sparsifiers, flow conversion and the cut certificate at every group size.
``approx_schur`` runs the same elimination on one Laplacian, a component at
a time, for ``one_step_vertex_sparsify`` and for every node (leaf or inner)
of ``recursive_vertex_sparsify``; ``exact_schur`` stays an independent
reference by ``np.linalg.solve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import GraphError, SolverConvergenceError, ValidationError
from .graphs import SparseLaplacian, WeightedGraph, group_ids, sorted_distinct
from .partition import SeparatorTree, SeparatorNode
from .solver import GAP_FLOOR

SPARSIFY_EDGE_FACTOR = 48.0  # C_s


# -- spectral bounds ---------------------------------------------------------


@dataclass
class SpectralBounds:
    """Cheap eigenvalue bounds: lam_min <= lambda_2 and lambda_n <= lam_max."""

    lam_min: float
    lam_max: float

    @property
    def kappa(self):
        return self.lam_max / self.lam_min


def spectral_bounds(lap: SparseLaplacian) -> SpectralBounds:
    """lam_min = w_min / n^2, lam_max = n * w_max; kappa <= n^3 U(w)."""
    if not lap.is_connected():
        raise GraphError("spectral bounds require a connected graph")
    w = lap.weights()
    if w.size == 0:
        raise GraphError("graph has no edges")
    n = lap.n
    return SpectralBounds(lam_min=w.min() / n**2, lam_max=n * w.max())


def weight_floor(lap: SparseLaplacian, lam_min: float) -> SparseLaplacian:
    """Add lam_min / n^2 to every existing edge; L <= L' <= (1 + 1/n) L."""
    tails, heads, w = lap.edge_list()
    bump = lam_min / lap.n**2
    return SparseLaplacian.from_edges(lap.n, tails, heads, w + bump)


# -- Schur complements --------------------------------------------------------


def _sorted_boundary(lap, v_bdry):
    bdry = np.unique(np.asarray(v_bdry, dtype=np.int64))
    if bdry.size == 0:
        raise GraphError("boundary set is empty")
    if bdry[0] < 0 or bdry[-1] >= lap.n:
        raise GraphError("boundary vertex out of range")
    return bdry


def _component_cases(lap, bdry):
    """Split into per-component (vertex ids, local boundary) subproblems."""
    nc, labels = lap.component_labels()
    cases = []
    bset = np.zeros(lap.n, dtype=bool)
    bset[bdry] = True
    for c in range(nc):
        verts = np.flatnonzero(labels == c)
        local_bdry = np.flatnonzero(bset[verts])
        if local_bdry.size == 0:
            raise GraphError(
                f"component of size {verts.size} has no boundary vertex; interior block is singular")
        cases.append((verts, local_bdry))
    return cases


def exact_schur(lap: SparseLaplacian, v_bdry) -> SparseLaplacian:
    """L_bdry - L_mid^T L_intr^{-1} L_mid by dense elimination of the interior."""
    bdry = _sorted_boundary(lap, v_bdry)
    if bdry.size == lap.n:
        return SparseLaplacian(lap.matrix.copy())
    out = np.zeros((bdry.size, bdry.size))
    pos = {int(v): i for i, v in enumerate(bdry)}
    for verts, local_bdry in _component_cases(lap, bdry):
        sub = lap.matrix[verts][:, verts].toarray()
        li = np.setdiff1d(np.arange(verts.size), local_bdry)
        lb = local_bdry
        if li.size == 0:
            schur = sub[np.ix_(lb, lb)]
        else:
            l_intr = sub[np.ix_(li, li)]
            l_mid = sub[np.ix_(li, lb)]
            l_bdry = sub[np.ix_(lb, lb)]
            try:
                y = np.linalg.solve(l_intr, l_mid)
            except np.linalg.LinAlgError as exc:
                raise GraphError("interior block is singular") from exc
            schur = l_bdry - l_mid.T @ y
            schur = 0.5 * (schur + schur.T)
        rows = [pos[int(verts[j])] for j in lb]
        out[np.ix_(rows, rows)] += schur
    return SparseLaplacian(sp.csr_matrix(_clean_stack(out[None])[0]))


def _clean_stack(a, tol=1e-13):
    """Zero positive/dust off-diagonals and reset diagonals to weighted degrees,
    for each matrix of a (G, n, n) stack."""
    diag = np.arange(a.shape[1])
    off = a.copy()
    off[:, diag, diag] = 0.0
    scale = np.abs(off).max(axis=(1, 2), initial=0.0)
    off[off > 0] = 0.0
    off[np.abs(off) <= tol * scale[:, None, None]] = 0.0
    off[:, diag, diag] = -off.sum(axis=2)
    return off


def _check_clamp(a, eps):
    """Raise ValidationError when the positive off-diagonal mass of a matrix of
    the stack exceeds eps/10 of its trace, so the cost of the clamp stays
    observable."""
    diag = np.arange(a.shape[1])
    trace = a[:, diag, diag].sum(axis=1)
    off = a.copy()
    off[:, diag, diag] = 0.0
    clamp = np.where(off > 0, off, 0.0).sum(axis=(1, 2))
    bad = np.flatnonzero(clamp > (eps / 10.0) * np.maximum(trace, 1e-300))
    if bad.size:
        i = bad[0]
        raise ValidationError(
            f"clamped positive off-diagonal mass {clamp[i]:.3e} exceeds eps/10 of trace {trace[i]:.3e}")


def _eliminate(lap, nb):
    """Schur complements of stacked dense Laplacians onto their first ``nb`` vertices.

    ``lap`` has shape (G, n, n), boundary vertices first.  One Cholesky factor
    C of each interior block gives ``S = L_bb - W^T W`` with ``W = C^-1 L_ib``
    and the harmonic extension ``X = -L_ii^-1 L_ib = -C^-T W``, both by
    solves against C, stacked (no inverse is formed, so no second interior-
    sized array is held).  Once C is formed the stack is dropped, so a
    caller that passes a stack it keeps no reference to frees it before the
    solves.  Raises ``np.linalg.LinAlgError`` if an interior block is not
    positive definite.
    """
    l_bb = lap[:, :nb, :nb].copy()
    if lap.shape[1] == nb:
        return l_bb, np.zeros((lap.shape[0], 0, nb))
    chol = np.linalg.cholesky(lap[:, nb:, nb:])
    l_ib = lap[:, nb:, :nb].copy()
    del lap
    w = np.linalg.solve(chol, l_ib)
    del l_ib
    s = l_bb - np.swapaxes(w, 1, 2) @ w
    x = np.linalg.solve(np.swapaxes(chol, 1, 2), w)
    x *= -1.0
    return 0.5 * (s + np.swapaxes(s, 1, 2)), x


def approx_schur(lap: SparseLaplacian, v_bdry, eps: float) -> SparseLaplacian:
    """Schur complement onto the boundary by ``_eliminate``, one component at a
    time with its boundary first.

    The elimination is exact up to rounding; ``eps`` (the paper's ApproxSchur
    tolerance) bounds only the clamp.  Positive off-diagonals of the
    assembled matrix are clamped to zero and diagonals reset to weighted
    degrees; the clamped mass is checked against eps/10 of the trace so the
    cost of the clamp stays observable.
    """
    if not (0 < eps < 0.5):
        raise GraphError("approx_schur requires 0 < eps < 1/2")
    bdry = _sorted_boundary(lap, v_bdry)
    if bdry.size == lap.n:
        return SparseLaplacian(lap.matrix.copy())
    out = np.zeros((bdry.size, bdry.size))
    for verts, local_bdry in _component_cases(lap, bdry):
        interior = np.setdiff1d(np.arange(verts.size), local_bdry)
        order = verts[np.concatenate([local_bdry, interior])]
        try:
            schur, _ = _eliminate(lap.matrix[order][:, order].toarray()[None], local_bdry.size)
        except np.linalg.LinAlgError as exc:
            raise GraphError("interior block is not positive definite") from exc
        rows = np.searchsorted(bdry, verts[local_bdry])
        out[np.ix_(rows, rows)] += schur[0]
    _check_clamp(out[None], eps)
    return SparseLaplacian(sp.csr_matrix(_clean_stack(out[None])[0]))


def _edge_budget(n, eps):
    """Edge budget ``C_s n ln(n) eps^-2`` of a sparsifier on n vertices at
    error eps (ln 2 below two), with ``C_s = SPARSIFY_EDGE_FACTOR``."""
    return SPARSIFY_EDGE_FACTOR * n * math.log(max(n, 2)) / eps**2


# -- vertex sparsifiers ----------------------------------------------------------


def _weight_ratio(w):
    return float(w.max() / w.min()) if w.size else 1.0


@dataclass
class VertexSparsifier:
    """Sparse Laplacian on boundary vertices, spectrally close to the Schur complement."""

    laplacian: SparseLaplacian
    boundary: np.ndarray  # sorted global vertex ids; row i <-> boundary[i]
    eps: float
    source_weight_ratio: float
    source_n: int

    @property
    def n_boundary(self):
        return self.boundary.size

    def edge_budget(self):
        return _edge_budget(self.n_boundary, self.eps)

    def weight_ratio(self):
        return _weight_ratio(self.laplacian.weights())

    def validate(self):
        self.laplacian.validate(tol=1e-9)
        if self.laplacian.num_edges > self.edge_budget():
            raise ValidationError(
                f"sparsifier has {self.laplacian.num_edges} edges, budget {self.edge_budget():.0f}")
        # loose reading of the m^5 bound, with 10x slack
        bound = 10.0 * self.source_n**5 * self.source_weight_ratio
        if self.n_boundary > 1 and self.weight_ratio() > bound:
            raise ValidationError(
                f"sparsifier weight ratio {self.weight_ratio():.3e} exceeds 10 n^5 U = {bound:.3e}")
        return self


def one_step_vertex_sparsify(lap: SparseLaplacian, v_bdry, eps: float,
                             seed: int = 0) -> VertexSparsifier:
    """ApproxSchur(eps/3), then a lam_min/n^2 weight floor; no Sparsify step
    (see the module docstring).

    The Schur complement comes from the dense elimination that
    ``GroupElimination`` batches over groups, so it is exact up to rounding.
    Nothing is drawn at random; ``seed`` has no effect.
    """
    if not (0 < eps < 0.5):
        raise GraphError("one_step_vertex_sparsify requires 0 < eps < 1/2")
    if not lap.is_connected():
        raise GraphError("one_step_vertex_sparsify requires a connected graph")
    bdry = _sorted_boundary(lap, v_bdry)
    bounds = spectral_bounds(lap)
    u_in = _weight_ratio(lap.weights())
    floored = weight_floor(approx_schur(lap, bdry, eps / 3.0), bounds.lam_min)
    return VertexSparsifier(
        laplacian=floored,
        boundary=bdry,
        eps=eps,
        source_weight_ratio=u_in,
        source_n=lap.n,
    )


# recursive sparsification works on edge lists in global vertex ids


def _edges_of(lap: SparseLaplacian, verts):
    """(tails, heads, w) of lap in global ids given row i <-> verts[i]."""
    t, h, w = lap.edge_list()
    return verts[t], verts[h], w


def _local_lap(verts, tails, heads, w):
    """Laplacian on local indices for a node's vertex set."""
    idx = np.searchsorted(verts, tails)
    jdx = np.searchsorted(verts, heads)
    return SparseLaplacian.from_edges(verts.size, idx, jdx, w)


def recursive_vertex_sparsify(lap: SparseLaplacian, v_bdry, tree: SeparatorTree, eps: float,
                              seed: int = 0) -> VertexSparsifier:
    """Recursive sparsification along a separator tree.

    Each level spends ``eps_step = eps / (2 * depth)``: children are
    sparsified, summed (separator-internal edges enter both children at half
    weight, so the sum reproduces the node) and reduced to the node's boundary
    by ApproxSchur(eps_step/3), kept whole as in ``one_step_vertex_sparsify``.
    A final weight floor keeps the weight ratio polynomially bounded.  Nothing
    is drawn at random; ``seed`` has no effect.
    """
    if not (0 < eps < 0.5):
        raise GraphError("recursive_vertex_sparsify requires 0 < eps < 1/2")
    if not lap.is_connected():
        raise GraphError("recursive_vertex_sparsify requires a connected graph")
    bdry = _sorted_boundary(lap, v_bdry)
    depth = max(tree.depth(), 1)
    eps_step = eps / (2.0 * depth)
    bounds = spectral_bounds(lap)
    u_in = _weight_ratio(lap.weights())

    root_verts = np.unique(np.asarray(tree.root.vertices, dtype=np.int64))
    tails, heads, w = _edges_of(lap, np.arange(lap.n))
    missing = np.setdiff1d(np.unique(np.concatenate([tails, heads])), root_verts)
    if missing.size:
        raise ValidationError(f"separator tree does not cover graph vertices {missing[:5]}")

    out_bdry, ot, oh, ow = _sparsify_node(tree.root, tails, heads, w, bdry, eps_step)
    lap_out = _local_lap(out_bdry, ot, oh, ow)
    floored = weight_floor(lap_out, bounds.lam_min)
    return VertexSparsifier(
        laplacian=floored,
        boundary=out_bdry,
        eps=eps,
        source_weight_ratio=u_in,
        source_n=lap.n,
    )


def _sparsify_node(node: SeparatorNode, tails, heads, w, bdry, eps_step):
    """Returns (boundary ids, tails, heads, weights) of the node's sparsifier."""
    verts = np.unique(np.asarray(node.vertices, dtype=np.int64))
    bdry = np.intersect1d(bdry, verts)
    if bdry.size == 0:
        raise GraphError("node has no boundary vertices")

    if node.is_leaf or verts.size <= 2 * bdry.size:
        return _reduce_node(verts, tails, heads, w, bdry, eps_step)

    sep = np.unique(np.asarray(node.separator, dtype=np.int64))
    child_parts = []
    covered = np.zeros(tails.size, dtype=bool)
    for child in (node.left, node.right):
        cverts = np.unique(np.asarray(child.vertices, dtype=np.int64))
        core = np.setdiff1d(cverts, sep)
        in_core_t = np.isin(tails, core)
        in_core_h = np.isin(heads, core)
        in_sep_t = np.isin(tails, sep)
        in_sep_h = np.isin(heads, sep)
        own = (in_core_t | in_core_h) & (in_core_t | in_sep_t) & (in_core_h | in_sep_h)
        shared = in_sep_t & in_sep_h
        covered |= own | shared
        et = np.concatenate([tails[own], tails[shared]])
        eh = np.concatenate([heads[own], heads[shared]])
        ew = np.concatenate([w[own], 0.5 * w[shared]])
        child_bdry = np.union1d(np.intersect1d(cverts, bdry), sep)
        child_parts.append(_sparsify_node(child, et, eh, ew, child_bdry, eps_step))
    if not covered.all():
        raise ValidationError(
            "separator does not cover the node: an edge joins the two child components")

    ct = np.concatenate([p[1] for p in child_parts])
    ch = np.concatenate([p[2] for p in child_parts])
    cw = np.concatenate([p[3] for p in child_parts])
    union = np.union1d(child_parts[0][0], child_parts[1][0])
    return _reduce_node(union, ct, ch, cw, bdry, eps_step)


def _reduce_node(verts, tails, heads, w, bdry, eps_step):
    """ApproxSchur(eps_step/3) onto ``bdry`` of the edges on ``verts``; the
    same step for a leaf and for an inner node."""
    lap = _local_lap(verts, tails, heads, w)
    t, h, ww = approx_schur(lap, np.searchsorted(verts, bdry), eps_step / 3.0).edge_list()
    return bdry, bdry[t], bdry[h], ww


# -- per-group elimination ----------------------------------------------------------


@dataclass
class _ShapeClass:
    """Dense groups with equal vertex and boundary counts, eliminated as one stack."""

    members: np.ndarray  # group ids, ascending
    n: int
    nb: int
    slots: np.ndarray  # (G, n): slot of each member's local vertex
    edges: np.ndarray  # union edges of the members
    scatter: np.ndarray  # flat (G, n, n) positions receiving [c, c, -c, -c] per edge
    pairs: np.ndarray  # flat positions of each member's distinct vertex pairs
    pair_starts: np.ndarray  # first entry of each member in ``pairs``
    pair_of: np.ndarray  # index in ``pairs`` of each class edge

    def laplacians(self, conductance):
        """The members' dense Laplacians, (G, n, n), at per-edge conductances
        over ``edges``."""
        c = conductance
        return np.bincount(self.scatter, weights=np.concatenate([c, c, -c, -c]),
                           minlength=self.members.size * self.n * self.n
                           ).reshape(self.members.size, self.n, self.n)

    def merged_weight_range(self, conductance):
        """Per member, the least and the greatest total conductance between
        two adjacent vertices, without the stack.  A graph orients its
        parallel edges alike, so ``laplacians`` also sums a pair's edges in
        edge order: the results are bitwise negated off-diagonals."""
        merged = np.bincount(self.pair_of, weights=conductance, minlength=self.pairs.size)
        return (np.minimum.reduceat(merged, self.pair_starts),
                np.maximum.reduceat(merged, self.pair_starts))


class GroupTopology:
    """The weight-independent structure of a list of edge groups.

    It and ``GroupElimination`` own the group layout.  A group's local
    vertex ids list its sorted boundary first, then its sorted interior.  A
    *slot* is one (group, local id) pair; the slots of group i are
    ``voff[i]:voff[i + 1]``, and key ``group * n + vertex`` (sorted in
    ``keys``) is at slot ``slot_of_key``.  ``union`` is the disjoint union
    of the group subgraphs on the slots, with union edge j standing for
    graph edge ``edges[j]`` of group ``edge_group[j]``; its BFS forest has
    one tree per connected group.  Groups with a boundary are stacked into
    shape classes for the batched elimination.
    """

    def __init__(self, g: WeightedGraph, groups, boundaries):
        self.tails, self.heads = g.tails, g.heads
        k = self.k = len(groups)
        n = self.n = g.n
        self.edges, self.edge_group = group_ids(groups)
        if self.edges.size == 0:
            raise GraphError("groups have no edges")
        keys = self.keys = sorted_distinct(np.concatenate(
            [self.edge_group * n + g.tails[self.edges], self.edge_group * n + g.heads[self.edges]]))
        b_verts, b_owner = group_ids(boundaries)
        bkeys = sorted_distinct(b_owner * n + b_verts)
        is_bdry = np.isin(keys, bkeys)
        if np.count_nonzero(is_bdry) != bkeys.size:
            raise GraphError("a boundary vertex does not touch its group")
        owner, vert = np.divmod(keys, n)
        order = np.lexsort((vert, ~is_bdry, owner))
        self.slot_group = owner[order]
        self.slot_vertex = vert[order]
        self.voff = np.searchsorted(self.slot_group, np.arange(k + 1))
        self.n_vertices = np.diff(self.voff)
        self.n_boundary = np.bincount(owner[is_bdry], minlength=k)
        slot_of_key = self.slot_of_key = np.empty(keys.size, dtype=np.int64)
        slot_of_key[order] = np.arange(keys.size)
        base = self.edge_group * n
        self.slot_tail = slot_of_key[np.searchsorted(keys, base + g.tails[self.edges])]
        self.slot_head = slot_of_key[np.searchsorted(keys, base + g.heads[self.edges])]
        self.local_tail = self.slot_tail - self.voff[self.edge_group]
        self.local_head = self.slot_head - self.voff[self.edge_group]
        self.on_boundary = (np.arange(keys.size) - self.voff[self.slot_group]
                            < self.n_boundary[self.slot_group])
        # the union graph orients each edge from its lower slot; sign maps back
        self.union = WeightedGraph(keys.size, np.column_stack([self.slot_tail, self.slot_head]))
        self.sign = np.where(self.slot_tail < self.slot_head, 1.0, -1.0)
        _, labels = self.union.components()
        stray = labels != labels[self.voff[self.slot_group]]
        self.connected = np.bincount(self.slot_group[stray], minlength=k) == 0
        self.classes = self._shape_classes()  # groups without a boundary have nothing to factor
        self._quotient = None  # the quotient's edge set, from the last ``quotient`` call

    def _shape_classes(self):
        # ascending (n, n_b) order: n_b <= n, so this key sorts by n, then n_b
        shape = self.n_vertices * (self.n_vertices.max() + 1) + self.n_boundary
        stacked = self.n_boundary > 0
        edge_shape = np.where(stacked, shape, -1)[self.edge_group]
        pos = np.zeros(self.k, dtype=np.int64)
        classes = []
        for key in np.unique(shape[stacked]):
            members = np.flatnonzero(stacked & (shape == key))
            pos[members] = np.arange(members.size)
            nv, nb = int(self.n_vertices[members[0]]), int(self.n_boundary[members[0]])
            sel = np.flatnonzero(edge_shape == key)
            base = pos[self.edge_group[sel]] * nv * nv
            a, b = self.local_tail[sel], self.local_head[sel]
            scatter = np.concatenate([base + a * nv + a, base + b * nv + b,
                                      base + a * nv + b, base + b * nv + a])
            pair_pos = base + np.minimum(a, b) * nv + np.maximum(a, b)
            pairs = np.unique(pair_pos)
            classes.append(_ShapeClass(
                members=members, n=nv, nb=nb, slots=self.voff[members][:, None] + np.arange(nv),
                edges=sel, scatter=scatter, pairs=pairs,
                pair_starts=np.searchsorted(pairs // (nv * nv), np.arange(members.size)),
                pair_of=np.searchsorted(pairs, pair_pos)))
        return classes

    def matches(self, g: WeightedGraph):
        """True if ``g`` has the edge endpoints this topology was built from."""
        if g.tails is self.tails and g.heads is self.heads:
            return True
        return np.array_equal(g.tails, self.tails) and np.array_equal(g.heads, self.heads)

    def require_sparsifiable(self):
        """Raise ``GraphError`` unless every group is connected with two or more
        boundary vertices, as its vertex sparsifier needs."""
        small = np.flatnonzero(self.n_boundary < 2)
        if small.size:
            i = int(small[0])
            raise GraphError(f"group {i} has boundary of size {self.n_boundary[i]}; need >= 2")
        split = np.flatnonzero(~self.connected)
        if split.size:
            raise GraphError(
                f"group {int(split[0])} is disconnected; sparsifiers need connected groups")

    def quotient(self, weights):
        """The quotient of the sparsifiers ``GroupElimination.sparsify``
        returned: its graph at grouped-flow weights (inverse conductances),
        per-group edge lists, each edge's group and each vertex's graph id.
        The edge set is cached until the sparsifiers' pattern changes, so
        successive graphs share their structure caches."""
        masks = [w > 0 for w in weights]
        pattern = self._quotient
        if pattern is None or not all(np.array_equal(a, b) for a, b in zip(masks, pattern.masks)):
            pattern = self._quotient = self._quotient_pattern(masks)
        wq = np.empty(pattern.graph.m)
        for w, mask, where in zip(weights, masks, pattern.dest):
            wq[where] = 1.0 / w[mask]  # quotient grouped-flow weight = inverse conductance
        return pattern.graph.reweighted(wq), pattern.groups, pattern.group_of_edge, pattern.vertices

    def _quotient_pattern(self, masks):
        qverts = np.unique(self.slot_vertex[self.on_boundary])
        counts = np.zeros(self.k, dtype=np.int64)
        for cls, mask in zip(self.classes, masks):
            counts[cls.members] = mask.sum(axis=1)
        if np.any(counts == 0):
            raise GraphError("a group sparsifier has no edges; boundary too small")
        offsets = np.concatenate([[0], np.cumsum(counts)])
        tails = np.empty(offsets[-1], dtype=np.int64)
        heads = np.empty(offsets[-1], dtype=np.int64)
        dest = []
        for cls, mask in zip(self.classes, masks):
            iu = np.triu_indices(cls.nb, k=1)
            qb = np.searchsorted(qverts, self.slot_vertex[cls.slots[:, :cls.nb]])
            where = (offsets[cls.members][:, None] + np.cumsum(mask, axis=1) - 1)[mask]
            tails[where] = qb[:, iu[0]][mask]
            heads[where] = qb[:, iu[1]][mask]
            dest.append(where)
        quotient = WeightedGraph(qverts.size, np.column_stack([tails, heads]))
        if not quotient.is_connected:
            raise GraphError("quotient graph is disconnected; sparsification failed")
        groups = [np.arange(offsets[i], offsets[i + 1]) for i in range(self.k)]
        return _QuotientPattern(masks=masks, dest=dest, graph=quotient, groups=groups,
                                group_of_edge=np.repeat(np.arange(self.k), counts),
                                vertices=qverts)


@dataclass
class _QuotientPattern:
    """The quotient's fixed edge set, built from one set of per-class edge masks."""

    masks: list  # per shape class, (G, P) booleans over np.triu_indices pairs
    dest: list  # per shape class, quotient edge id of each True mask entry
    graph: WeightedGraph  # template; calls share its structure caches
    groups: list
    group_of_edge: np.ndarray
    vertices: np.ndarray


class GroupElimination:
    """Every group eliminated at one set of edge conductances.

    Per shape class, one batched Cholesky factor of the interior blocks
    gives the Schur complements ``S`` onto the boundaries and the harmonic
    extensions ``X = -L_ii^-1 L_ib``.  Those serve the vertex sparsifiers
    (``sparsify``), flow conversion (``route_residual``) and the cut
    certificate (``extend``).
    """

    def __init__(self, topo: GroupTopology, conductance):
        self.topology = topo
        self.conductance = np.asarray(conductance, dtype=float)[topo.edges]  # per union edge
        self.schur, self.extension, self.w_min, self.w_max = [], [], [], []
        for cls in topo.classes:
            c = self.conductance[cls.edges]
            # merged edge weight range: w_min for the lam_min = w_min / n^2
            # floor, and U = w_max / w_min for the sparsifier weight-ratio check
            w_min, w_max = cls.merged_weight_range(c)
            self.w_min.append(w_min)
            self.w_max.append(w_max)
            try:
                # the stack goes in unnamed, so _eliminate frees it before its solves
                s, x = _eliminate(cls.laplacians(c), cls.nb)
            except np.linalg.LinAlgError:
                bad = next(i for i, block in zip(cls.members, cls.laplacians(c))
                           if not _positive_definite(block[cls.nb:, cls.nb:]))
                raise GraphError(f"group {bad}: interior block is not positive definite") from None
            self.schur.append(s)
            self.extension.append(x)

    def sparsify(self, eps):
        """One-step vertex sparsifiers of every group at error ``eps``.

        The steps of ``one_step_vertex_sparsify``: the clamp check and
        cleanup of the Schur complement at ``eps/3``, then the
        ``lam_min / n_b^2`` weight floor.  Returns per shape class a (G, P)
        array of conductances over the boundary pairs in ``np.triu_indices``
        order (0 where there is no edge), for ``quotient``.  As
        ``VertexSparsifier.validate`` does, it raises ``ValidationError`` when
        a sparsifier has more edges than the budget at ``eps`` (a clique
        passes up to about 5e5 boundary vertices at eps = 0.05), or a weight
        ratio above ``10 n^5 U`` for a group of n vertices whose merged edge
        weights span U.
        """
        weights = []
        for cls, s, w_min, w_max in zip(self.topology.classes, self.schur, self.w_min,
                                        self.w_max):
            _check_clamp(s, eps / 3.0)
            clean = _clean_stack(s)
            iu = np.triu_indices(cls.nb, k=1)
            cond = -clean[:, iu[0], iu[1]]
            has = cond > 0
            cond = np.where(has, cond + (w_min / cls.n**2 / cls.nb**2)[:, None], 0.0)
            edges = has.sum(axis=1)
            budget = _edge_budget(cls.nb, eps)
            over = np.flatnonzero(edges > budget)
            if over.size:
                j = over[0]
                raise ValidationError(f"group {int(cls.members[j])}: sparsifier has {edges[j]}"
                                      f" edges, budget {budget:.0f}")
            least = np.where(cond > 0, cond, np.inf).min(axis=1, initial=np.inf)
            ratio = cond.max(axis=1, initial=0.0) / least
            bound = 10.0 * cls.n**5 * (w_max / w_min)
            bad = np.flatnonzero(ratio > bound)
            if bad.size:
                j = bad[0]
                raise ValidationError(
                    f"sparsifier weight ratio {ratio[j]:.3e} exceeds 10 n^5 U = {bound[j]:.3e}")
            weights.append(cond)
        return weights

    def route_residual(self, keys, res, delta):
        """Flow on the graph's edges routing each group's residual ``res`` at
        sorted keys ``group * n + vertex`` by ``route`` at ``delta``.  A
        residual above 1e-9 of its group's largest must sit on the group's
        boundary and sum there to zero; the rounding dust of the sum is
        spread over the boundary."""
        topo = self.topology
        k = topo.k
        owner = keys // topo.n
        tol = 1e-9 * np.maximum(_group_max(np.abs(res), owner, k), 1.0)[owner]
        live = np.abs(res) > tol
        pos = np.minimum(np.searchsorted(topo.keys, keys), topo.keys.size - 1)
        slot = topo.slot_of_key[pos]
        found = topo.keys[pos] == keys
        on_bdry = found & topo.on_boundary[slot]
        off_bdry = live & found & ~on_bdry
        missing = live & ~found
        bad = np.flatnonzero(off_bdry | missing)
        if bad.size:
            i = owner[bad[0]]
            first = bad[owner[bad] == i]
            v = keys[first] % topo.n
            if off_bdry[first].any():
                raise GraphError(f"group {i}: source residual at non-boundary vertex "
                                 f"{int(v[off_bdry[first]][0])}")
            raise GraphError(f"group {i}: boundary vertex {int(v[0])} missing from destination group")
        demand = np.zeros(topo.slot_group.size)
        demand[slot[on_bdry]] = res[on_bdry]
        total = np.bincount(topo.slot_group, weights=demand, minlength=k)
        peak = _group_max(np.abs(demand), topo.slot_group, k)
        unbalanced = np.flatnonzero(np.abs(total) > 1e-9 * np.maximum(peak, 1.0))
        if unbalanced.size:
            i = unbalanced[0]
            raise GraphError(f"group {i}: boundary demand does not sum to zero (sum={total[i]:.3e})")
        bslot = topo.on_boundary
        demand[bslot] -= (total / np.maximum(topo.n_boundary, 1))[topo.slot_group[bslot]]
        split = np.flatnonzero(~topo.connected)
        if split.size:
            raise GraphError(f"group {int(split[0])}: destination group subgraph is disconnected")
        flow = np.zeros(topo.tails.size)
        flow[topo.edges] = self.route(demand, delta)
        return flow

    def route(self, demand, delta):
        """Per-group electrical flows routing a boundary demand exactly.

        ``demand`` is indexed by slot and zero on interior slots.  In each
        group, ``phi_b = S^+ d_b`` (grounded at the first boundary vertex),
        ``phi_int = X phi_b`` and ``f = c B phi``; the residual is then
        repaired exactly on the group's BFS tree, and the duality gap must
        certify ``energy <= (1 + delta^2 / 4.5) * optimum`` as in
        ``electrical_flow``.  Returns the flow on the union edges, oriented
        as in the graph.
        """
        topo = self.topology
        phi = np.zeros(topo.slot_group.size)
        for cls, s, x in zip(topo.classes, self.schur, self.extension):
            if cls.nb < 2:
                continue
            bslots = cls.slots[:, :cls.nb]
            phi_b = np.zeros((cls.members.size, cls.nb))
            phi_b[:, 1:] = np.linalg.solve(s[:, 1:, 1:], demand[bslots][:, 1:, None])[..., 0]
            phi[bslots] = phi_b
            phi[cls.slots[:, cls.nb:]] = (x @ phi_b[..., None])[..., 0]
        c = self.conductance
        dphi = phi[topo.slot_tail] - phi[topo.slot_head]
        flow = c * dphi
        nslots = topo.slot_group.size
        q = demand - (np.bincount(topo.slot_tail, weights=flow, minlength=nslots)
                      - np.bincount(topo.slot_head, weights=flow, minlength=nslots))
        flow += topo.sign * topo.union.route_on_tree(q)

        k = topo.k
        e_flow = np.bincount(topo.edge_group, weights=flow * flow / c, minlength=k)
        quad = np.bincount(topo.edge_group, weights=c * dphi * dphi, minlength=k)
        lin = np.bincount(topo.slot_group, weights=demand * phi, minlength=k)
        loaded = np.bincount(topo.slot_group, weights=np.abs(demand), minlength=k) > 0
        lower = np.divide(lin * lin, quad, out=np.zeros(k), where=quad > 0)
        gap_target = max(delta * delta / 4.5, GAP_FLOOR)
        bad = np.flatnonzero(loaded & ~((lower > 0) & (e_flow <= (1.0 + gap_target) * lower)))
        if bad.size:
            i = bad[0]
            gap = e_flow[i] / max(lower[i], 1e-300) - 1.0
            raise SolverConvergenceError(
                f"group {i}: electrical flow gap {gap:.3e} above target {gap_target:.3e}",
                best_iterate=flow, achieved_residual=gap)
        return flow

    def extend(self, phi):
        """``phi`` (graph vertex ids) with every group interior set to the
        harmonic extension of the group's boundary values."""
        topo = self.topology
        phi = np.array(phi, dtype=float)
        for cls, x in zip(topo.classes, self.extension):
            if cls.n > cls.nb:
                verts = topo.slot_vertex[cls.slots]
                phi[verts[:, cls.nb:]] = (x @ phi[verts[:, :cls.nb]][..., None])[..., 0]
        return phi


def _group_max(values, owner, k):
    """Per-group maximum of ``values`` (0 for groups without entries); owner sorted."""
    out = np.zeros(k)
    if values.size:
        starts = np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1]]))
        out[owner[starts]] = np.maximum.reduceat(values, starts)
    return out


def _positive_definite(a):
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True
