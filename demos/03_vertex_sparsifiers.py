"""Schur complements and spectral vertex sparsifiers.

Eliminating a group's interior yields its Schur complement on the boundary;
the sparsifiers keep it whole, within (1 +- eps) of it in the quadratic form,
and check its edge count against the budget C_s b ln(b) / eps^2 on b
boundary vertices.
"""

import numpy as np
import scipy.linalg

from sepflow import (GridSpec, SparseLaplacian, approx_schur, exact_schur, grid_graph,
                     one_step_vertex_sparsify, recursive_vertex_sparsify,
                     separator_tree_for_grid_block)


def eig_range(a, b):
    basis = scipy.linalg.null_space(np.ones((1, a.shape[0])))
    vals = scipy.linalg.eigh(basis.T @ a @ basis, basis.T @ b @ basis, eigvals_only=True)
    return vals.min(), vals.max()


# series resistors: eliminating the middle of a path halves the conductance
path = SparseLaplacian.from_edges(3, [0, 1], [1, 2], [1.0, 1.0])
print("path Schur on {0,2}:\n", exact_schur(path, [0, 2]).dense())

# star-to-triangle: the classic Y-Delta transform
star = SparseLaplacian.from_edges(4, [0, 0, 0], [1, 2, 3], np.ones(3))
print("star Schur on leaves:\n", exact_schur(star, [1, 2, 3]).dense().round(6))

# ApproxSchur: the same Schur complement by the dense elimination that the
# pipeline batches over groups, clamp-checked at eps
approx = approx_schur(path, [0, 2], eps=0.01)
print("approx Schur weight (exact 0.5):", -approx.dense()[0, 1])

# one-step sparsifier of an 8x8 grid block against its exact Schur complement
g = grid_graph(8, 8)
lap = SparseLaplacian(g.laplacian_csr(np.ones(g.m)))
perimeter = np.array([v for v in range(64) if v // 8 in (0, 7) or v % 8 in (0, 7)])
vs = one_step_vertex_sparsify(lap, perimeter, eps=0.25).validate()
exact = exact_schur(lap, perimeter)
lo, hi = eig_range(vs.laplacian.dense(), exact.dense())
print(f"one-step sandwich on the perimeter: [{lo:.4f}, {hi:.4f}] within [0.75, 1.25]")
print(f"one-step edges: {vs.laplacian.num_edges}, budget {vs.edge_budget():.0f}")

# recursive sparsifier guided by a separator tree
tree = separator_tree_for_grid_block(GridSpec(8, 8), np.arange(64), g=g)
rec = recursive_vertex_sparsify(lap, np.arange(8), tree, eps=0.3).validate()
lo, hi = eig_range(rec.laplacian.dense(), exact_schur(lap, np.arange(8)).dense())
print(f"recursive sandwich on one side:     [{lo:.4f}, {hi:.4f}] within [0.7, 1.3]")

