"""Shared fixtures and independent oracles used by the test suite.

The oracles here deliberately avoid the library's own code paths: dense
pseudoinverses for electrical quantities, vertex-at-a-time partial Gaussian
elimination for Schur complements, and dense generalized eigensolves for
spectral sandwiches.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st

from sepflow import WeightedGraph


def dense_laplacian(n, tails, heads, conductance):
    """Dense Laplacian assembled entry by entry (independent of the library)."""
    a = np.zeros((n, n))
    for u, v, c in zip(tails, heads, conductance):
        a[u, u] += c
        a[v, v] += c
        a[u, v] -= c
        a[v, u] -= c
    return a


def dense_electrical(g, d, resistances=None):
    """Optimal flow/potentials/energy via dense pseudoinverse."""
    r = g.resistance if resistances is None else np.asarray(resistances, dtype=float)
    lap = dense_laplacian(g.n, g.tails, g.heads, 1.0 / r)
    phi = np.linalg.pinv(lap) @ d
    flow = (phi[g.tails] - phi[g.heads]) / r
    energy = float(d @ phi)
    return flow, phi, energy


def eliminate_one(a, v):
    """Single step of Gaussian elimination of vertex v from a dense Laplacian."""
    n = a.shape[0]
    keep = [i for i in range(n) if i != v]
    piv = a[v, v]
    out = a[np.ix_(keep, keep)] - np.outer(a[keep, v], a[v, keep]) / piv
    return out


def partial_elimination_schur(a, boundary):
    """Eliminate interior vertices one at a time (independent Schur oracle)."""
    n = a.shape[0]
    labels = list(range(n))
    work = a.copy()
    bset = set(int(b) for b in boundary)
    while True:
        interior = [i for i, lab in enumerate(labels) if lab not in bset]
        if not interior:
            break
        v = interior[0]
        work = eliminate_one(work, v)
        del labels[v]
    order = np.argsort(labels)
    return work[np.ix_(order, order)]


def gen_eig_range(a, b):
    """Extreme generalized eigenvalues of (a, b) on the complement of ones."""
    n = a.shape[0]
    basis = scipy.linalg.null_space(np.ones((1, n)))
    vals = scipy.linalg.eigh(basis.T @ a @ basis, basis.T @ b @ basis, eigvals_only=True)
    return float(vals.min()), float(vals.max())


def random_connected_graph(rng, n, extra_edges, weight_range=(0.5, 2.0)):
    """Random spanning tree plus extra edges; weights are the graph's w vector."""
    edges = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    while len(edges) < n - 1 + extra_edges:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u != v:
            edges.append((min(u, v), max(u, v)))
    w = rng.uniform(*weight_range, len(edges))
    return WeightedGraph(n, edges, weight=w, resistance=w,
                         capacity=rng.uniform(1.0, 10.0, len(edges)))


@st.composite
def multigraphs(draw, max_n=20):
    """Small multigraphs with parallel edges and tied capacities; sparse
    draws leave several components and isolated vertices."""
    n = draw(st.integers(1, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=2 * n)) if n > 1 else []
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))  # parallel copies
    capacity = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 100.0),
                             min_size=len(edges), max_size=len(edges)))
    return WeightedGraph(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                         capacity=capacity if edges else None)


def incidences(g):
    """Each vertex's (neighbor, edge id) pairs in ascending order, one pair
    per edge end, so parallel edges are listed apart."""
    adj = [[] for _ in range(g.n)]
    for e, (u, v) in enumerate(zip(g.tails.tolist(), g.heads.tolist())):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return [sorted(pairs) for pairs in adj]


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
