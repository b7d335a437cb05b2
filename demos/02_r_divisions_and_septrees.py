"""r-divisions and separator trees on grids, with validation and partition file I/O.

An r-division partitions the edges into groups of at most r edges whose
vertex boundaries have size O(sqrt r); separator trees recursively split each
group with balanced vertex separators (median grid lines here).
"""

import tempfile
from pathlib import Path

import numpy as np

from sepflow import (GridSpec, grid_graph, grid_r_division, load_partition, save_partition,
                     separator_tree_for_grid_block, validate_partition, validate_septree)

g = grid_graph(9, 9)
part = grid_r_division(9, 9, 1, 32, terminals=(0, 80), graph=g)
print(f"9x9 grid, r=32: {part.k} groups")
print("  group sizes:   ", [len(grp) for grp in part.groups])
print("  boundary sizes:", [len(b) for b in part.boundaries])
validate_partition(part, g)  # raises on any invariant breach

tree = separator_tree_for_grid_block(GridSpec(5, 5), np.arange(25), leaf_cutoff=4)
print("5x5 block root separator (middle column):", tree.root.separator)
print("tree depth:", tree.depth())

for i in range(part.k):
    verts = part.group_vertices(g, i)
    validate_septree(separator_tree_for_grid_block(GridSpec(9, 9), verts, g=g), g=g,
                     expected_root=verts)
print("all group trees validate")

with tempfile.TemporaryDirectory() as td:
    ppath = Path(td) / "nine.part"
    save_partition(part, ppath)
    reloaded = load_partition(ppath, g, terminals=(0, 80))
    print("partition round-trips:", all(
        np.array_equal(a, b) for a, b in zip(part.groups, reloaded.groups)))

