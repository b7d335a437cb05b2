"""Grid-family instance geometry shared by generators and benchmarks.

Vertices of an (layers x rows x cols) grid are numbered layer-major then
row-major; edges are emitted in a fixed scan order (east, south, up-layer per
vertex), which partition generators rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GraphError
from .graphs import WeightedGraph


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    layers: int = 1

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise GraphError("grid dimensions must be at least 2x2")
        if self.layers < 1:
            raise GraphError("layer count must be positive")

    @property
    def n(self):
        return self.rows * self.cols * self.layers

    def vertex(self, layer, row, col):
        return (layer * self.rows + row) * self.cols + col

    def coord_arrays(self, verts):
        verts = np.asarray(verts, dtype=np.int64)
        layer, rem = np.divmod(verts, self.rows * self.cols)
        row, col = np.divmod(rem, self.cols)
        return layer, row, col

    def edges(self):
        """(tail, head) pairs in canonical scan order."""
        shape = (self.layers, self.rows, self.cols)
        v = np.arange(self.n, dtype=np.int64).reshape(shape)
        layer, row, col = np.indices(shape)
        # per vertex, in scan order: east, south, up-layer; boolean indexing
        # of the (layers, rows, cols, 3) stack keeps that order
        heads = np.stack([v + 1, v + self.cols, v + self.rows * self.cols], axis=-1)
        valid = np.stack([col + 1 < self.cols, row + 1 < self.rows, layer + 1 < self.layers],
                         axis=-1)
        tails = np.broadcast_to(v[..., None], heads.shape)
        return np.column_stack([tails[valid], heads[valid]])

    @property
    def m(self):
        per_layer = self.rows * (self.cols - 1) + self.cols * (self.rows - 1)
        return self.layers * per_layer + (self.layers - 1) * self.rows * self.cols


def grid_graph(rows, cols, layers=1, capacity=None, weight=None, resistance=None) -> WeightedGraph:
    """Unit-capacity grid graph unless per-edge vectors are supplied."""
    spec = GridSpec(rows, cols, layers)
    return WeightedGraph(spec.n, spec.edges(), capacity=capacity, weight=weight,
                         resistance=resistance)


def random_capacity_grid(rows, cols, layers=1, seed=0, low=1.0, high=10.0) -> WeightedGraph:
    """Grid with capacities drawn uniformly from [low, high] (seeded)."""
    spec = GridSpec(rows, cols, layers)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(int(seed) & (2**63 - 1), 0xC2)))
    cap = rng.uniform(low, high, spec.m)
    return WeightedGraph(spec.n, spec.edges(), capacity=cap)
