"""Cut certificates: what comes back when the demand cannot be routed.

Each outer iteration of a fixed-flow run first sweeps the electrical
potentials of the graph grouped flow runs on (the graph itself by default;
on the two-level routes the quotient's, lifted into every group interior).
A swept cut below the request decides it at once (a swept-cut verdict): the
cut's indicator, scaled by 1 / cut, is a vertex potential vector phi with
sum_e u(e) |phi_u - phi_v| = 1 and d^T phi = F / cut > 1.  Otherwise a
grouped-flow run whose energy test fires yields potentials (on the two-level
routes, extended harmonically into every group interior); rescaling gives
phi with sum_e u(e) |phi_u - phi_v| <= 1 and d^T phi >= 1 - 10 eps (an
energy-test verdict).  Either certifies infeasibility, and comes with an
explicit cut.
"""

import numpy as np

from sepflow import (GroupedFlowFail, RunConfig, SweptCutFail, WeightedGraph, cut_certificate,
                     exact_max_flow_oracle, grid_graph, grid_r_division, route_fixed_flow)

eps = 0.05

# an 8x8 grid with a weak column of capacity 0.1 between columns 3 and 4
g0 = grid_graph(8, 8)
cap = np.ones(g0.m) * 5.0
for e, (u, v) in enumerate(zip(g0.tails, g0.heads)):
    if v == u + 1 and u % 8 == 3:
        cap[e] = 0.1
g = WeightedGraph(g0.n, g0.edges, capacity=cap)
part = grid_r_division(8, 8, 1, 32, terminals=(0, 63), graph=g)

exact = exact_max_flow_oracle(g, 0, 63)
print(f"exact max flow / min cut: {exact.value:.3f}")

amount = 50.0
result, fail_ctx = route_fixed_flow(g, part, None, 0, 63, amount, eps,
                                    RunConfig(eps=eps, seed=3))
assert fail_ctx is not None, "a 50-unit demand is far beyond the 0.8 bottleneck"
instance, fail, demand = fail_ctx
if isinstance(fail, SweptCutFail):
    print(f"swept-cut verdict after {instance.stats.iterations_outer} outer iteration(s): "
          f"cut {fail.cut_capacity:.3f} < requested {amount:g}")
else:
    assert isinstance(fail, GroupedFlowFail)
    print(f"energy-test verdict at inner iteration {fail.iteration}: "
          f"energy {fail.energy:.2f} > mu {fail.mu:.2f}")

cert = cut_certificate(instance, fail, eps)
print(f"certificate: sum u |grad phi| = {cert.gradient_capacity:.6f}  (<= 1)")
print(f"             d^T phi          = {cert.demand_value:.4f}  (>= {1 - 10 * eps})")
print(f"swept cut: {cert.cut_side.size} vertices on the source side, "
      f"capacity {cert.cut_capacity:.3f} (true min cut {exact.cut_capacity:.3f})")
