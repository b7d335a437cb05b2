"""Multiplicative-weights solver for grouped L2 flows, with a fail certificate.

Each iteration routes the demand electrically under resistances
``(w_grp(i) + (eps/k) mu) * w(e)``; if the electrical energy exceeds the
total group weight ``mu``, no grouped flow of congestion 1 exists and the
solver returns a fail certificate.  Otherwise iterates whose group
congestions stay below the width ``rho`` are averaged into the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GraphError, SolverConvergenceError, ValidationError
from .graphs import WeightedGraph, edge_group_ids, group_congestions, zero_sum_demand
from .solver import LaggedFactor, electrical_flow


def mwu_parameters(k: int, eps: float):
    """Width and iteration count: rho = 10 k^(1/3) eps^(-2/3), N = ceil(20 rho ln(k) eps^-2).

    N is floored at 1: a single-group problem reduces to one electrical flow.
    """
    if k < 1:
        raise GraphError("need at least one group")
    if not (0 < eps < 0.5):
        raise GraphError("grouped flow requires 0 < eps < 1/2")
    rho = 10.0 * k ** (1.0 / 3.0) * eps ** (-2.0 / 3.0)
    n_iter = max(int(math.ceil(20.0 * rho * math.log(k) * eps**-2)), 1)
    return rho, n_iter


@dataclass
class GroupedFlowProblem:
    """Grouped L2 flow instance: weights w, an edge partition, and a demand.

    ``group_of_edge`` is each edge's group id; it is derived from ``groups``
    (``edge_group_ids``) unless a caller that already holds it passes it in.
    """

    graph: WeightedGraph
    groups: list
    demand: np.ndarray
    eps: float
    group_of_edge: np.ndarray | None = None

    def __post_init__(self):
        g, k = self.graph, len(self.groups)
        if self.group_of_edge is None:
            self.groups = [np.asarray(grp, dtype=np.int64) for grp in self.groups]
            self.group_of_edge = edge_group_ids(self.groups, g.m)
        else:
            gid = self.group_of_edge
            if gid.shape != (g.m,) or gid.min(initial=0) < 0 or gid.max(initial=0) >= k:
                raise GraphError(f"group_of_edge must hold one group id in 0..{k - 1} per edge")
        sizes = np.bincount(self.group_of_edge, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if empty.size:
            raise GraphError(f"group {int(empty[0])} is empty")
        self.demand = zero_sum_demand(self.demand, g.n)
        if not (0 < self.eps < 0.5):
            raise GraphError("grouped flow requires 0 < eps < 1/2")

    @property
    def k(self):
        return len(self.groups)

    def with_graph(self, graph: WeightedGraph):
        """This problem on ``graph``, a reweighted copy of its graph: the
        groups, demand and eps were checked when the problem was made and
        depend on the graph's structure alone, which the copy shares, so
        nothing is checked again."""
        if graph._structure is not self.graph._structure:
            raise GraphError("a problem moves only to a reweighted copy of its graph")
        moved = object.__new__(GroupedFlowProblem)
        moved.__dict__.update(self.__dict__)
        moved.graph = graph
        return moved


@dataclass
class GroupedFlowFail:
    """Certificate data captured when the energy test fires."""

    iteration: int
    mu: float
    resistances: np.ndarray
    energy: float
    demand: np.ndarray


@dataclass
class GroupedFlowDiagnostics:
    iterations: int = 0
    accepted: int = 0
    early_exit: bool = False
    max_group_congestion: float = float("nan")


@dataclass
class GroupedFlowResult:
    status: str  # "ok" | "fail"
    flow: np.ndarray | None
    fail: GroupedFlowFail | None
    diagnostics: GroupedFlowDiagnostics
    potentials: np.ndarray | None = None  # of the last electrical flow, when "ok"

    @property
    def failed(self):
        return self.status == "fail"


def check_mwu_step(w_before, w_after, congestions, eps, rho, tol=1e-9):
    """Assert the multiplicative-weights step invariants; returns step diagnostics.

    Part 1 (mu growth <= exp(eps/rho)) and part 2 (weights non-decreasing)
    are asserted; the conditional energy-growth statement for over-width
    groups is recorded, not asserted.
    """
    mu_before = float(w_before.sum())
    mu_after = float(w_after.sum())
    if mu_after > math.exp(eps / rho) * mu_before * (1.0 + tol):
        raise ValidationError(
            f"mu grew by {mu_after / mu_before:.12f} > exp(eps/rho) = {math.exp(eps / rho):.12f}")
    if (w_after < w_before * (1.0 - tol)).any():
        raise ValidationError("a group weight decreased across an iteration")
    return {
        "mu_ratio": mu_after / mu_before,
        "over_width": bool((congestions >= rho).any()),
    }


def grouped_flow(problem: GroupedFlowProblem, *, strict=False, runtime_checks=True,
                 max_iterations=None, lag: LaggedFactor | None = None) -> GroupedFlowResult:
    """Multiplicative weights over groups around electrical flows.

    Returns a flow whose group congestions are at most ``1 + 10 eps``
    whenever a flow of congestion ``1 - eps`` exists, or a fail certificate.
    In strict mode the loop always runs the full iteration budget with the
    formula width; otherwise updates use the width-normalized step
    (the iterate's own max congestion, floored at 1), the loop returns as
    soon as the running average meets the output contract, from the first
    iteration on (flagged in diagnostics), and ``max_iterations`` caps the
    budget (exhausting the cap without meeting the contract raises
    ``SolverConvergenceError`` with the average and its max group
    congestion).  A loop thus ends on its contract, on its energy test or at
    its budget, and nowhere else; a cap only truncates the uncapped loop.

    ``lag`` supplies each iteration's electrical-flow solve and keeps its
    counters (``electrical_flow``); a run passes one through all its calls
    so a wide-band graph's factor carries across outer iterations.  Without
    one the call makes its own.
    """
    g = problem.graph
    g.require_connected("grouped flow")
    eps, k = problem.eps, problem.k
    d = problem.demand
    w = g.weight
    gid = problem.group_of_edge
    rho, n_iter = mwu_parameters(k, eps)
    delta_ef = eps**2 / (100.0 * rho)

    budget = n_iter if strict or max_iterations is None else min(n_iter, int(max_iterations))
    target = 1.0 + 10.0 * eps
    w_grp = np.ones(k)
    flow_sum = np.zeros(g.m)
    n_accepted = 0
    diag = GroupedFlowDiagnostics()
    # resistances drift slowly between iterations (and between the calls of
    # one run), so where the band is wide one LU factor preconditions them all
    lag = LaggedFactor() if lag is None else lag

    for t in range(1, budget + 1):
        mu = float(w_grp.sum())
        r = (w_grp[gid] + (eps / k) * mu) * w
        ef = electrical_flow(g, d, delta_ef, resistances=r, lag=lag)
        diag.iterations = t
        if ef.energy > mu:
            fail = GroupedFlowFail(iteration=t, mu=mu, resistances=r, energy=ef.energy,
                                   demand=d.copy())
            return GroupedFlowResult(status="fail", flow=None, fail=fail, diagnostics=diag)

        cong = group_congestions(ef.flow, w, gid)
        if runtime_checks:
            weighted = float(w_grp @ cong)
            if weighted > mu * (1.0 + 1e-9):
                raise ValidationError(
                    f"iteration {t}: sum of weighted congestions {weighted:.6e} exceeds mu {mu:.6e}")

        accepted = bool(cong.max(initial=0.0) <= rho)
        if accepted:
            flow_sum += ef.flow
            n_accepted += 1

        width = rho if strict else max(float(cong.max(initial=0.0)), 1.0)
        w_new = w_grp * (1.0 + (eps / width) * cong)
        if runtime_checks:
            check_mwu_step(w_grp, w_new, cong, eps, width)
        w_grp = w_new

        if not strict and accepted:  # the average moves only when an iterate is accepted
            diag.max_group_congestion = group_congestions(flow_sum / n_accepted, w, gid).max()
            if diag.max_group_congestion <= target:
                diag.early_exit = True
                break

    if n_accepted == 0:
        raise ValidationError("no iteration stayed under the width; cannot average")
    avg = flow_sum / n_accepted
    diag.accepted = n_accepted
    if strict:  # otherwise measured at the average's last change
        diag.max_group_congestion = float(group_congestions(avg, w, gid).max())
    if budget < n_iter and diag.max_group_congestion > target:
        raise SolverConvergenceError(
            f"grouped flow hit the iteration cap {budget} with max group congestion "
            f"{diag.max_group_congestion:.4f} > {target:.4f}",
            best_iterate=avg, achieved_residual=diag.max_group_congestion)
    return GroupedFlowResult(status="ok", flow=avg, fail=None, diagnostics=diag,
                             potentials=ef.potentials)

