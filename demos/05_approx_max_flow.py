"""End-to-end approximate maximum flow versus the exact oracle.

The pipeline: r-division -> grouped L2 flows -> outer flow-oracle loop with a
doubling + binary search over the flow amount.  The default route runs the
grouped flows on the graph itself.  The paper's two-level route runs them on
a quotient of per-group one-step spectral vertex sparsifiers and converts
each flow back; the quotient is an exact reformulation of the graph (no
sparsifier samples edges), so the routes agree.

Every phase also sweeps the potentials of its last electrical flow for an s-t
cut.  By weak duality the least such cut bounds the max flow from above, so
the search never probes an amount it cannot reach, and the run certifies its
own ratio, value / cut, without the exact oracle.
"""

import time

import numpy as np

from sepflow import (RunConfig, SparsifierPlan, approx_max_flow, edge_congestions,
                     exact_max_flow_oracle, grid_r_division, random_capacity_grid)

size, eps, seed = 16, 0.1, 7
g = random_capacity_grid(size, size, seed=seed)
part = grid_r_division(size, size, 1, 32, terminals=(0, g.n - 1), graph=g)
print(f"{size}x{size} grid with capacities in [1,10]: {part.k} groups of <= 32 edges")

exact = exact_max_flow_oracle(g, 0, g.n - 1)
print(f"exact max flow: {exact.value:.4f} (min cut {exact.cut_capacity:.4f})")

t0 = time.time()
res = approx_max_flow(g, part, None, 0, g.n - 1, eps, RunConfig(eps=eps, r=32, seed=seed))
print(f"direct route:   {res.value:.4f}  ratio {res.value / exact.value:.4f} "
      f"in {time.time() - t0:.1f}s")
print(f"least swept cut: {res.cut_upper_bound:.4f}  certified ratio "
      f"{res.certified_ratio:.4f} (at most the true ratio)")
print(f"max edge congestion of the returned flow: "
      f"{edge_congestions(res.flow, g.capacity).max():.6f} (feasible)")
print(f"probes {res.stats.probes}, outer iterations {res.stats.iterations_outer}, "
      f"inner iterations {res.stats.iterations_inner_total}")

# the same run through one-step sparsifiers on the quotient
t0 = time.time()
res1 = approx_max_flow(g, part, SparsifierPlan("one-step"), 0, g.n - 1, eps,
                       RunConfig(eps=eps, r=32, seed=seed))
print(f"one-step sparsifiers: {res1.value:.4f}  ratio {res1.value / exact.value:.4f} "
      f"in {time.time() - t0:.1f}s ({res1.stats.sparsifier_builds} sparsifier builds)")

