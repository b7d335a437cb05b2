"""Core graph and Laplacian types, and vector forms of demands, congestions
and residuals.

An undirected graph is stored with a fixed arbitrary orientation per edge
(tail < head by vertex index; parallel edges keep insertion order), so flow
signs are deterministic and serializable.  The incidence convention is
+1 at the tail and -1 at the head, hence ``residual_of_vector(f, g) = B^T f``
and an s-t demand has +F at the source and -F at the sink.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from scipy.sparse.csgraph import breadth_first_order

from .errors import DisconnectedGraphError, GraphError


def _as_float_vector(x, m, name):
    v = np.asarray(x, dtype=float)
    if v.shape != (m,):
        raise GraphError(f"{name} must have one entry per edge ({m}), got shape {v.shape}")
    # a NaN fails both comparisons, since min and max propagate it
    if not (v.min(initial=np.inf) > 0 and v.max(initial=1.0) < np.inf):
        raise GraphError(f"{name} entries must be strictly positive and finite")
    return v


class WeightedGraph:
    """Undirected graph with per-edge capacity / weight / resistance vectors.

    Parameters
    ----------
    n : int
        Number of vertices, ids ``0..n-1``.
    edges : array-like of shape (m, 2)
        Endpoint pairs.  Orientation is canonicalized to tail < head.
    capacity, weight, resistance : array-like, optional
        Strictly positive per-edge vectors; missing ones default to 1
        (resistance stays ``None`` unless given).
    """

    def __init__(self, n, edges, capacity=None, weight=None, resistance=None):
        n = int(n)
        if n <= 0:
            raise GraphError("vertex count must be positive")
        e = np.asarray(edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array of endpoint pairs")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise GraphError("edge endpoint out of range")
        if np.any(e[:, 0] == e[:, 1]):
            bad = int(np.flatnonzero(e[:, 0] == e[:, 1])[0])
            raise GraphError(f"self-loop at edge {bad}")
        m = e.shape[0]

        # canonical orientation: tail < head, insertion order kept
        tails = np.minimum(e[:, 0], e[:, 1])
        heads = np.maximum(e[:, 0], e[:, 1])

        self.n = n
        self.m = m
        self.tails = tails
        self.heads = heads
        self.capacity = _as_float_vector(capacity, m, "capacity") if capacity is not None else np.ones(m)
        self.weight = _as_float_vector(weight, m, "weight") if weight is not None else np.ones(m)
        self.resistance = _as_float_vector(resistance, m, "resistance") if resistance is not None else None

        for arr in (self.tails, self.heads, self.capacity, self.weight):
            arr.setflags(write=False)
        if self.resistance is not None:
            self.resistance.setflags(write=False)

        # structure-only caches (adjacency, components, BFS tree, Laplacian
        # pattern); graphs made by ``reweighted`` share this dict
        self._structure = {}

    def reweighted(self, weight):
        """Same vertices, edges and capacities with a new weight vector.

        The copy shares this graph's structure caches, so its components, BFS
        tree and Laplacian pattern are computed at most once between them.
        """
        clone = object.__new__(WeightedGraph)
        clone.__dict__.update(self.__dict__)
        clone.weight = _as_float_vector(weight, self.m, "weight")
        clone.weight.setflags(write=False)
        return clone

    # -- structure ---------------------------------------------------------

    @property
    def edges(self):
        """(m, 2) array of oriented (tail, head) pairs."""
        return np.column_stack([self.tails, self.heads])

    def adjacency(self):
        """Symmetric CSR adjacency with sorted indices (lazily built).  Its
        data is edge id + 1, summed over parallel edges, which collapse into
        one entry: read it for its structure only."""
        if "adj" not in self._structure:
            rows = np.concatenate([self.tails, self.heads])
            cols = np.concatenate([self.heads, self.tails])
            eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
            self._structure["adj"] = sp.csr_matrix((eids + 1, (rows, cols)),
                                                   shape=(self.n, self.n))
        return self._structure["adj"]

    def components(self):
        """Vertex component labels (cached)."""
        if "components" not in self._structure:
            self._structure["components"] = sp.csgraph.connected_components(
                self.adjacency(), directed=False)
        return self._structure["components"]

    @property
    def is_connected(self):
        nc, _ = self.components()
        return nc == 1

    def require_connected(self, what="operation"):
        if not self.is_connected:
            raise DisconnectedGraphError(f"{what} requires a connected graph")

    # -- BFS tree (deterministic), used for exact residual repair ----------

    def bfs_tree(self):
        """Deterministic BFS forest: (parent, parent_edge, order).

        One search runs from a virtual vertex joined to the least vertex of
        each component, in ascending order: those vertices are the roots, and
        ``order`` is the search's level order without the virtual vertex.  It
        lists the roots, then every vertex a level further down, so each
        family (a vertex's children, or the roots) stands together, the
        families in their parents' order, across all components at once.
        Neighbors are visited in ascending (vertex, edge-id) order, so a
        vertex's parent edge is the least edge id between it and its parent.
        Roots have parent and parent edge -1.

        Computed by scipy's ``breadth_first_order`` on the sorted CSR
        ``adjacency()`` with the virtual vertex appended, and cached; the
        parent edges are found by one sorted lookup.
        """
        if "bfs" not in self._structure:
            n = self.n
            _, labels = self.components()
            adj = self.adjacency()
            root = np.sort(np.unique(labels, return_index=True)[1])  # least vertex per label
            aug = sp.csr_matrix((np.ones(adj.nnz + root.size), np.append(adj.indices, root),
                                 np.append(adj.indptr, adj.nnz + root.size)), shape=(n + 1, n + 1))
            order, pred = breadth_first_order(aug, n, directed=True, return_predecessors=True)
            parent = np.where(pred[:n] < n, pred[:n], -1).astype(np.int64)
            kids = np.flatnonzero(parent >= 0)
            # the least edge id of each (tail, head) pair: a stable sort by pair
            key = self.tails * n + self.heads
            by_key = np.argsort(key, kind="stable")
            lo, hi = np.minimum(kids, parent[kids]), np.maximum(kids, parent[kids])
            parent_edge = np.full(n, -1, dtype=np.int64)
            parent_edge[kids] = by_key[np.searchsorted(key[by_key], lo * n + hi)]
            self._structure["bfs"] = (parent, parent_edge, order[1:].astype(np.int64))
        return self._structure["bfs"]

    def route_on_tree(self, q):
        """Flow vector whose residual equals ``q`` exactly, supported on the BFS tree.

        ``q`` must sum to zero on every component (up to rounding); the
        leftover at each root is dropped.  A tree edge carries the sum of
        ``q`` over the subtree below it, which is one interval of the tree's
        DFS preorder, so one prefix sum over ``q`` in preorder routes every
        edge at once.
        """
        preorder, lo, hi, edge, sign = self._tree_intervals()
        prefix = np.zeros(self.n + 1)
        np.cumsum(np.asarray(q, dtype=float)[preorder], out=prefix[1:])
        f = np.zeros(self.m)
        f[edge] = sign * (prefix[hi] - prefix[lo])
        return f

    def _tree_intervals(self):
        """The BFS forest as DFS-preorder subtree intervals (cached).

        Returns ``(preorder, lo, hi, edge, sign)``: ``preorder`` lists the
        vertices in a DFS preorder of the forest (children in BFS order), and
        for every non-root vertex ``v`` its subtree occupies the preorder
        positions ``lo:hi``, ``edge`` is its parent edge and ``sign`` is +1
        where pushing from ``v`` toward its parent runs along the edge's
        tail -> head orientation.

        ``bfs_tree``'s level order lists each family together, so it gives
        every vertex's first child and next sibling as it stands.  The
        positions come from the forest's Euler tour (enter a vertex, its
        children's tours in BFS order, leave it), ranked by pointer jumping
        in O(log n) vectorized rounds, however deep the tree: a subtree's
        interval runs from the preorder position where the tour enters its
        root to the one where it leaves it.
        """
        if "tree_intervals" not in self._structure:
            parent, parent_edge, level = self.bfs_tree()
            n = self.n
            up = parent[level]
            sibling = up[1:] == up[:-1]
            first_child = np.full(n, -1, dtype=np.int64)
            heads = np.flatnonzero(np.append(True, ~sibling) & (up >= 0))
            first_child[up[heads]] = level[heads]
            next_sibling = np.full(n, -1, dtype=np.int64)
            next_sibling[level[:-1][sibling]] = level[1:][sibling]
            # Euler tour: event v enters v, event n + v leaves it, event 2n ends
            succ = np.empty(2 * n + 1, dtype=np.int64)
            succ[:n] = np.where(first_child >= 0, first_child, np.arange(n, 2 * n))
            succ[n:2 * n] = np.where(next_sibling >= 0, next_sibling,
                                     np.where(parent >= 0, n + parent, 2 * n))
            succ[2 * n] = 2 * n
            # list ranking by pointer jumping: steps from each event to the end
            left = np.ones(2 * n + 1, dtype=np.int64)
            left[2 * n] = 0
            while not (succ == 2 * n).all():
                left += left[succ]
                succ = succ[succ]
            tour = np.empty(2 * n, dtype=np.int64)
            tour[2 * n - left[:2 * n]] = np.arange(2 * n)
            entered = np.cumsum(tour < n)  # vertices entered up to each tour step
            start = entered[2 * n - left[:n]] - 1  # preorder position
            stop = entered[2 * n - left[n:2 * n]]  # end of the subtree's interval
            preorder = tour[tour < n]
            tree = level[up >= 0]
            edge = parent_edge[tree]
            sign = np.where(self.tails[edge] == tree, 1.0, -1.0)
            self._structure["tree_intervals"] = (preorder, start[tree], stop[tree], edge, sign)
        return self._structure["tree_intervals"]

    # -- Laplacian ---------------------------------------------------------

    def laplacian_pattern(self):
        """Cached (indptr, indices, map): the CSR Laplacian's read-only
        ``indptr`` and ``indices`` (sorted, no duplicates), and the CSR matrix
        with ``data = map @ conductance``."""
        if "laplacian" not in self._structure:
            n, m = self.n, self.m
            a, b = self.tails, self.heads
            rows = np.concatenate([a, b, a, b])
            cols = np.concatenate([a, b, b, a])
            sign = np.concatenate([np.ones(m), np.ones(m), -np.ones(m), -np.ones(m)])
            eids = np.concatenate([np.arange(m)] * 4)
            keys = rows * n + cols
            uniq, slot = np.unique(keys, return_inverse=True)
            mapper = sp.csr_matrix((sign, (slot, eids)), shape=(uniq.size, m))
            indices = (uniq % n).astype(np.int32)
            indptr = np.searchsorted(uniq // n, np.arange(n + 1)).astype(np.int32)
            indices.setflags(write=False)
            indptr.setflags(write=False)
            self._structure["laplacian"] = (indptr, indices, mapper)
        return self._structure["laplacian"]

    def laplacian_data(self, conductance):
        """The ``data`` of the CSR Laplacian for the given per-edge
        conductances, over the cached ``laplacian_pattern``."""
        _, indices, mapper = self.laplacian_pattern()
        return csr_matvec(mapper.indptr, mapper.indices, mapper.data, self.m,
                          np.asarray(conductance, dtype=float), np.empty(indices.size))

    def laplacian_csr(self, conductance):
        """CSR Laplacian for the given per-edge conductances.

        Every matrix shares the cached, read-only ``indices`` and ``indptr``
        (sorted, no duplicates), so only ``data`` is new; in-place structural
        changes such as ``eliminate_zeros`` raise instead of corrupting the
        pattern.
        """
        indptr, indices, _ = self.laplacian_pattern()
        return sp.csr_matrix((self.laplacian_data(conductance), indices, indptr),
                             shape=(self.n, self.n))


def csr_matvec(indptr, indices, data, ncols, x, out):
    """``out = A @ x`` for the CSR matrix ``A = (data, indices, indptr)`` with
    ``ncols`` columns, written into the float64 vector ``out`` and returned.

    The same kernel as ``A @ x`` in scipy, so the result is bitwise equal,
    without the per-call dispatch and allocation of the operator.  The CSR
    arrays must be consistent (as scipy or ``laplacian_pattern`` made them);
    the vectors' lengths are checked here, since the kernel reads ``x`` at
    the stored column indices unchecked.
    """
    if x.shape != (ncols,) or out.shape != (indptr.size - 1,):
        raise GraphError(f"a {indptr.size - 1} x {ncols} matrix cannot take a vector of shape"
                         f" {x.shape} into one of shape {out.shape}")
    out.fill(0.0)
    _sparsetools.csr_matvec(out.size, ncols, indptr, indices, data,
                            np.ascontiguousarray(x, dtype=float), out)
    return out


def zero_sum_demand(d, n=None, tol=1e-9):
    """Validate and return a demand vector; entries must sum to ~0."""
    d = np.asarray(d, dtype=float)
    if n is not None and d.shape != (n,):
        raise GraphError(f"demand must have {n} entries")
    scale = max(np.abs(d).max(initial=0.0), 1.0)
    if abs(d.sum()) > tol * scale * d.size:
        raise GraphError(f"demand does not sum to zero (sum={d.sum():.3e})")
    return d


def check_terminals(n, terminals):
    """Raise ``GraphError`` naming the first terminal that is not a vertex id in ``0..n-1``."""
    for v in terminals:
        if not 0 <= v < n:
            raise GraphError(f"terminal {v} is not a vertex id in 0..{n - 1}")


def st_demand(n, s, t, amount):
    """Demand vector routing ``amount`` units from s (+) to t (-); s and t
    must be distinct vertex ids in ``0..n-1``."""
    check_terminals(n, (s, t))
    if s == t:
        raise GraphError("source and sink coincide")
    d = np.zeros(n)
    d[s] = amount
    d[t] = -amount
    return d


# -- congestion and residuals ------------------------------------------------


def edge_congestions(flow, capacity):
    """Vector of |f(e)| / u(e)."""
    return np.abs(flow) / capacity


def group_ids(groups):
    """(ids, group of each id) of a list of id arrays, concatenated in order."""
    sizes = np.fromiter(map(len, groups), dtype=np.int64, count=len(groups))
    ids = (np.concatenate(groups, dtype=np.int64, casting="unsafe")
           if len(groups) else np.zeros(0, dtype=np.int64))
    return ids, np.repeat(np.arange(len(groups)), sizes)


def sorted_distinct(keys):
    """The sorted distinct entries of the 1-D array ``keys``, which is
    sorted in place: the array ``np.unique`` gives, by one sort and a mask.
    numpy's own ``np.unique`` takes a hash path for integers that costs
    several times more on arrays of a few thousand keys."""
    keys.sort()
    return keys[np.concatenate(([True], keys[1:] != keys[:-1]))] if keys.size else keys


def _is_id_array(groups):
    """True for each edge's group id (a 1-D integer array), False for a list
    of edge-id arrays."""
    return isinstance(groups, np.ndarray) and groups.ndim == 1 and groups.dtype.kind in "iu"


def edge_group_ids(groups, m):
    """Group id of each of ``m`` edges, from a list of edge-id arrays that
    lists every edge exactly once; such an id array is returned as it is.

    Raises ``GraphError`` for an edge id outside ``0..m-1``, an edge listed
    twice (the first repeated listing is named), an edge no group lists, or
    an id array of another length.
    """
    if _is_id_array(groups):
        if groups.shape != (m,):
            raise GraphError(f"need one group id per edge ({m}), got shape {groups.shape}")
        return groups
    edges, owner = group_ids(groups)
    bad = np.flatnonzero((edges < 0) | (edges >= m))
    if bad.size:
        p = bad[0]
        raise GraphError(f"edge id {int(edges[p])} in group {int(owner[p])} is out of range"
                         f" for {m} edges")
    gid = np.full(m, -1, dtype=np.int64)
    gid[edges] = owner
    if np.count_nonzero(gid >= 0) != edges.size:
        _, first, inverse = np.unique(edges, return_index=True, return_inverse=True)
        p = np.flatnonzero(first[inverse] != np.arange(edges.size))[0]
        raise GraphError(f"edge {int(edges[p])} in groups {int(owner[first[inverse[p]]])}"
                         f" and {int(owner[p])}")
    if edges.size != m:
        raise GraphError(f"edge {int(np.flatnonzero(gid < 0)[0])} belongs to no group;"
                         " groups must cover every edge")
    return gid


def group_congestions(flow, weight, groups):
    """Per-group sqrt(sum w f^2); ``groups`` is a list of edge-id arrays, or
    the group id of every edge (``edge_group_ids``)."""
    flow = np.asarray(flow, dtype=float)
    if _is_id_array(groups):
        return np.sqrt(np.bincount(groups, weights=weight * flow * flow))
    edges, owner = group_ids(groups)
    fe = flow[edges]
    return np.sqrt(np.bincount(owner, weights=weight[edges] * fe * fe, minlength=len(groups)))


def residual_of_vector(flow, g: WeightedGraph, edge_ids=None):
    """B^T f, the net outflow at each vertex, restricted to the given edge
    ids (all edges if None)."""
    flow = np.asarray(flow, dtype=float)
    if edge_ids is None:
        tails, heads, fe = g.tails, g.heads, flow
    else:
        idx = np.asarray(edge_ids, dtype=np.int64)
        tails, heads, fe = g.tails[idx], g.heads[idx], flow[idx]
    return (np.bincount(tails, weights=fe, minlength=g.n)
            - np.bincount(heads, weights=fe, minlength=g.n))


# -- sparse Laplacians -------------------------------------------------------


@dataclass
class SparseLaplacian:
    """Symmetric graph Laplacian in CSR form."""

    matrix: sp.csr_matrix
    _edge_cache: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = sp.csr_matrix(self.matrix)
        if self.matrix.shape[0] != self.matrix.shape[1]:
            raise GraphError("Laplacian must be square")

    @property
    def n(self):
        return self.matrix.shape[0]

    def edge_list(self):
        """Off-diagonal structure as (tails, heads, weights), weights = -L(u,v).

        Entries with weight <= 0 (exact zeros from clamping) are dropped.  The
        triple is cached; instances are treated as immutable.
        """
        if self._edge_cache is None:
            coo = sp.triu(self.matrix, k=1).tocoo()
            w = -coo.data
            keep = w > 0
            object.__setattr__(self, "_edge_cache", (coo.row[keep], coo.col[keep], w[keep]))
        return self._edge_cache

    def weights(self):
        _, _, w = self.edge_list()
        return w

    @property
    def num_edges(self):
        return self.edge_list()[0].size

    def dense(self):
        return self.matrix.toarray()

    def component_labels(self):
        nc, labels = sp.csgraph.connected_components(self.matrix, directed=False)
        return nc, labels

    def is_connected(self):
        nc, _ = self.component_labels()
        return nc == 1

    def validate(self, tol=1e-12):
        """Check symmetry, nonpositive off-diagonals and zero row sums."""
        mat = self.matrix.tocsr()
        asym = abs(mat - mat.T)
        scale = max(abs(mat).max(), 1e-300)
        if asym.nnz and asym.max() > tol * scale:
            raise GraphError("Laplacian is not symmetric")
        dense_diag = mat.diagonal()
        off_max = (mat - sp.diags(dense_diag)).max()
        if off_max > tol * scale:
            raise GraphError("Laplacian has positive off-diagonal entries")
        rowsum = np.asarray(mat.sum(axis=1)).ravel()
        if np.abs(rowsum).max(initial=0.0) > tol * max(dense_diag.max(initial=0.0), 1.0):
            raise GraphError("Laplacian row sums are not zero")
        return self

    @staticmethod
    def from_edges(n, tails, heads, conductance):
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        c = np.asarray(conductance, dtype=float)
        rows = np.concatenate([tails, heads, tails, heads])
        cols = np.concatenate([tails, heads, heads, tails])
        vals = np.concatenate([c, c, -c, -c])
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        mat.sum_duplicates()
        return SparseLaplacian(mat)
