"""The grouped L2 flow solver: multiplicative weights around electrical flows.

A grouped flow routes a demand while keeping every group's energy norm small;
the solver either returns a flow with all group congestions <= 1 + 10 eps or
a fail certificate proving no congestion-1 grouped flow exists.
"""

import numpy as np

from sepflow import (GroupedFlowProblem, WeightedGraph, electrical_flow, grid_graph,
                     grid_r_division, group_congestions, grouped_flow, mwu_parameters,
                     st_demand)

rho, n_iter = mwu_parameters(k=1000, eps=0.1)
print(f"width rho = {rho:.2f}, full iteration budget N = {n_iter} (k=1000, eps=0.1)")

# plant a witness of congestion 0.8 on a 6x6 grid with 4 groups
g0 = grid_graph(6, 6)
part = grid_r_division(6, 6, 1, 16, terminals=(0, 35), graph=g0)
w = np.ones(g0.m)
g = WeightedGraph(g0.n, g0.edges, weight=w)
ef = electrical_flow(g, st_demand(36, 0, 35, 1.0), 1e-8, resistances=w)
witness_cong = group_congestions(ef.flow, w, part.groups).max()
d = st_demand(36, 0, 35, 0.8 / witness_cong)

res = grouped_flow(GroupedFlowProblem(g, part.groups, d, eps=0.1))
print(f"status: {res.status}")
print(f"max group congestion: {res.diagnostics.max_group_congestion:.4f} (<= 2.0)")
# the running average is checked from the first iteration on: here the first
# electrical flow already meets the contract, so the solver returns at once
print(f"iterations: {res.diagnostics.iterations}, accepted: {res.diagnostics.accepted},"
      f" early exit: {res.diagnostics.early_exit}")

# over-demand: the energy certificate fires on the first iteration
overloaded = GroupedFlowProblem(g, part.groups, d * 50, eps=0.1)
fail = grouped_flow(overloaded)
print(f"\nover-demand run: {fail.status} at iteration {fail.fail.iteration}"
      f" (energy {fail.fail.energy:.1f} > mu {fail.fail.mu:.1f})")
