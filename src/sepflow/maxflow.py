"""Exact maximum s-t flow on undirected graphs (test oracle and baseline).

Dinic's algorithm on the directed transform: each undirected edge becomes a
pair of opposite arcs that share capacity through the usual residual
bookkeeping.  Real capacities are handled with a small positive residual
threshold; phase count is finite regardless (level graphs strictly deepen).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import breadth_first_order, minimum_spanning_tree

from .errors import GraphError
from .graphs import WeightedGraph, check_terminals


@dataclass
class MaxFlowResult:
    value: float
    flow: np.ndarray  # signed flow per undirected edge (tail -> head positive)
    cut_side: np.ndarray  # vertex ids on the source side of a min cut
    cut_capacity: float


def exact_max_flow_oracle(g: WeightedGraph, s: int, t: int) -> MaxFlowResult:
    """Exact max-flow value and flow, with the min cut from the final residual."""
    check_terminals(g.n, (s, t))
    if s == t:
        raise GraphError("source equals sink")
    g.require_connected("max flow")
    n, m = g.n, g.m
    cap = np.empty(2 * m)
    cap[0::2] = g.capacity
    cap[1::2] = g.capacity
    to = np.empty(2 * m, dtype=np.int64)
    to[0::2] = g.heads
    to[1::2] = g.tails
    frm = np.empty(2 * m, dtype=np.int64)
    frm[0::2] = g.tails
    frm[1::2] = g.heads

    order = np.argsort(frm, kind="stable")
    indptr = np.searchsorted(frm[order], np.arange(n + 1))
    adj = order  # arc ids grouped by origin vertex

    tol = 1e-12 * float(g.capacity.max())
    level = np.empty(n, dtype=np.int64)
    it_ptr = np.empty(n, dtype=np.int64)

    def bfs():
        level.fill(-1)
        level[s] = 0
        dq = deque([s])
        while dq:
            v = dq.popleft()
            for j in range(indptr[v], indptr[v + 1]):
                a = adj[j]
                u = to[a]
                if level[u] < 0 and cap[a] > tol:
                    level[u] = level[v] + 1
                    dq.append(u)
        return level[t] >= 0

    def dfs_blocking():
        total = 0.0
        # one iterative DFS over the level graph: augment along every path
        # that reaches t, back up to the path's first saturated arc, and
        # prune dead ends, until s itself is one
        path = []
        v = s
        while True:
            if v == t:
                aug = min(cap[a] for a in path)
                for a in path:
                    cap[a] -= aug
                    cap[a ^ 1] += aug
                total += aug
                # backtrack to the first saturated arc
                keep = 0
                while keep < len(path) and cap[path[keep]] > tol:
                    keep += 1
                path = path[:keep]
                v = to[path[-1]] if path else s
                continue
            advanced = False
            while it_ptr[v] < indptr[v + 1]:
                a = adj[it_ptr[v]]
                u = to[a]
                if cap[a] > tol and level[u] == level[v] + 1:
                    path.append(a)
                    v = u
                    advanced = True
                    break
                it_ptr[v] += 1
            if not advanced:
                level[v] = -1  # dead end
                if not path:
                    return total
                a = path.pop()
                v = frm[a]

    value = 0.0
    while bfs():
        it_ptr[:] = indptr[:-1]
        value += dfs_blocking()

    reach = level >= 0  # final BFS failed to reach t; levels mark the cut side
    cut_side = np.flatnonzero(reach)
    crossing = reach[g.tails] != reach[g.heads]
    cut_capacity = float(g.capacity[crossing].sum())

    net = 0.5 * (cap[1::2] - cap[0::2])
    return MaxFlowResult(value=float(value), flow=net,
                         cut_side=cut_side, cut_capacity=cut_capacity)


def widest_path_bottleneck(g: WeightedGraph, s: int, t: int) -> float:
    """Bottleneck capacity of the widest s-t path (a max-flow lower bound).

    A widest path always runs along a maximum spanning tree (Hu, "The
    maximum capacity route problem", Oper. Res. 1961): an edge outside the
    tree is no wider than every tree edge on the cycle it closes.  So the
    answer is the least capacity on the tree path from s to t, exactly.  The
    forest is scipy's ``minimum_spanning_tree`` on capacity ranks (the
    widest capacity ranks 1), after parallel edges collapse to their widest
    copy, since a CSR matrix would sum them.  Raises ``GraphError`` when s
    equals t or no path joins them.
    """
    check_terminals(g.n, (s, t))
    if s == t:
        raise GraphError("source equals sink")
    n = g.n
    if g.m == 0:
        raise GraphError("no s-t path")
    # one entry per vertex pair, at its widest copy, in row-major order
    key = g.tails * n + g.heads
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, cap = key[first], np.maximum.reduceat(g.capacity[by_key], first)
    distinct, rank = np.unique(cap, return_inverse=True)
    rows, cols = np.divmod(key, n)
    forest = minimum_spanning_tree(sp.csr_matrix(
        ((distinct.size - rank).astype(float), cols, np.searchsorted(rows, np.arange(n + 1))),
        shape=(n, n)))
    reached, pred = breadth_first_order(forest, s, directed=False, return_predecessors=True)
    if pred[t] < 0:
        raise GraphError("no s-t path")
    # pointer jumping: width[v] is the least capacity on the tree path from v to jump[v]
    kids, up = reached[1:], pred[reached[1:]]
    width = np.full(n, np.inf)
    width[kids] = cap[np.searchsorted(key, np.minimum(kids, up) * n + np.maximum(kids, up))]
    jump = np.arange(n)
    jump[kids] = up
    while jump[t] != s:
        width = np.minimum(width, width[jump])
        jump = jump[jump]
    return float(width[t])
