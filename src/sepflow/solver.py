"""Laplacian linear solves and demand-exact approximate electrical flows.

A ``SolverHandle`` is the exact factor of the Laplacian of one connected
graph at given conductances, with vertex 0's row and column removed, and
solves with one application of itself (``apply``).  The kept vertices are
numbered in reverse Cuthill-McKee order, computed once per graph structure;
separable graphs have small separators, so that order gives a narrow band
(24 on a 24x24 grid, 47 on 16x16x3).  Up to a band of ``BAND_CUTOFF`` the factor is
a LAPACK banded Cholesky (``dpbtrf``) of a matrix scattered straight into
band storage; a wider band gets a sparse LU.

A ``LaggedFactor`` serves a whole sequence of nearby Laplacians on one graph
structure: a fresh banded factor for each where the band is narrow, since it
costs less than one PCG solve, and one carried sparse LU factor (lagged
preconditioning) where it is wide, refreshed when PCG starts to take long;
grouped flow serves every inner electrical flow of a run from one.  Its
conjugate gradients run on one right-hand side at a time, from zero, and
stop on the standard CG quadrature estimate of the A-norm error, so the
contract ``|x - A^+ b|_A <= delta * |A^+ b|_A`` is targeted directly rather
than through a 2-norm residual proxy.

Electrical flows refine the solve until a computable duality gap certifies
the energy bounds; the flow residual is then repaired exactly on a BFS
spanning tree, which makes the demand constraint unconditional.

An inner electrical flow costs its factor applications and a few vector
operations: a banded factor takes one ``bincount`` of the conductances and
one LAPACK call, and builds no scipy matrix; PCG on the carried factor takes
only the Laplacian's new values over the graph's cached pattern and
multiplies by the matrix into a preallocated vector through one CSR kernel
(``graphs.csr_matvec``); the tree repair is one prefix sum
(``route_on_tree``).  Each flow still checks what can change between flows:
its resistances and conductances are positive and finite (they drift, and
can overflow, as weights grow), its right-hand side is in the range, both
projections run and its gap is certified.  The structure these rest on
(layout, BFS tree, Laplacian pattern) is computed once per graph, by
compiled scipy and numpy calls.

A solve is its LAPACK call and a fixed number of vector operations.  One
right-hand side stays a vector: its sum serves both the range check (whose
bound is not computed for a sum of exactly zero, as an s-t demand has) and
the first projection, the banded factor is one gather, one
``dpbtrs`` and one scatter, and the second projection runs in place on the
factor's output; a matrix of right-hand sides takes the same steps
column-wise.  A graph factored only once, as a fixed-flow request's swept
cut is, also pays for its layout (``_layout``), of which the reverse
Cuthill-McKee order is about 40%.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import GraphError, SolverConvergenceError
from .graphs import WeightedGraph, _as_float_vector, csr_matvec, zero_sum_demand

_EPS = np.finfo(float).eps

# Below this relative duality gap, float64 roundoff dominates the certificate.
GAP_FLOOR = 5e-13

# Widest band factored by banded Cholesky; band storage grows as n * band.
BAND_CUTOFF = 64


@dataclass
class SolveStats:
    iterations: int = 0
    refinements: int = 0


@dataclass(frozen=True)
class _Layout:
    """How the Laplacian of one connected graph structure, grounded at
    vertex 0, is stored.

    ``order`` lists the vertices other than 0 in reverse Cuthill-McKee
    order, whose band is ``band``.  Up to a band of ``BAND_CUTOFF``,
    ``slot``, ``edge`` and ``sign`` scatter the conductances into LAPACK
    lower band storage, column-major ``(band + 1, order.size)``: entry ``i``
    adds ``sign[i] * c[edge[i]]`` at flat position ``slot[i]``.  Above it
    they are None.
    """

    order: np.ndarray
    band: int
    slot: np.ndarray | None
    edge: np.ndarray | None
    sign: np.ndarray | None

    @property
    def banded(self):
        return self.slot is not None


def _layout(g: WeightedGraph) -> _Layout:
    """The ``_Layout`` of ``g``'s structure, computed on first use and cached
    in ``g._structure``, which ``reweighted`` copies share.

    Built from the cached ``adjacency()`` in a fixed number of vector
    operations.  A graph with an isolated vertex raises ``GraphError``, a
    disconnected one ``DisconnectedGraphError``.  Every edge's head is above
    its tail, so no head is vertex 0, and an edge has both ends kept exactly
    when its tail is kept."""
    layout = g._structure.get("band_layout")
    if layout is not None:
        return layout
    n, m = g.n, g.m
    adj = g.adjacency()
    if not (adj.indptr[1:] > adj.indptr[:-1]).all():
        isolated = int(np.argmin(np.diff(adj.indptr)))
        raise GraphError(f"vertex {isolated} is isolated; every vertex needs an edge")
    g.require_connected("SolverHandle")
    perm = reverse_cuthill_mckee(adj, symmetric_mode=True)
    order = perm[perm != 0]
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    pos[0] = -1
    pt, ph = pos[g.tails], pos[g.heads]
    both = (pt >= 0).nonzero()[0]  # the edges with both ends kept
    pt_both, ph_both = pt[both], ph[both]
    width = np.abs(pt_both - ph_both)
    band = int(width.max(initial=0))
    slot = edge = sign = None
    if band <= BAND_CUTOFF:
        # column j of band storage holds A[j, j] at row 0 and A[j + r, j] at
        # row r: diagonal entries at kept tails, then at heads, then the
        # off-diagonal entry of every edge with both ends kept
        diagonal = both.size + m
        slot = np.concatenate([pt_both, ph, np.minimum(pt_both, ph_both)]) * (band + 1)
        slot[diagonal:] += width
        edge = np.concatenate([both, np.arange(m), both])
        sign = np.empty(slot.size)
        sign[:diagonal] = 1.0
        sign[diagonal:] = -1.0
    layout = _Layout(order, band, slot, edge, sign)
    g._structure["band_layout"] = layout
    return layout


class SolverHandle:
    """Exact factor of the Laplacian of one connected graph at fixed
    per-edge conductances, with vertex 0's row and column removed.

    ``SolverHandle(g, conductance)`` grounds ``g`` at vertex 0 (a
    disconnected ``g`` raises ``DisconnectedGraphError``) and factors on
    ``g``'s cached ``_Layout``: where the reverse Cuthill-McKee band is at
    most ``BAND_CUTOFF`` (``banded``), one ``bincount`` of the conductances
    into band storage and one ``dpbtrf``, with no matrix built; above it, a
    sparse LU of the grounded CSR matrix, which is symmetric positive
    definite, so it takes a symmetric fill-reducing ordering (minimum degree
    on ``A^T + A``) and pivots on the diagonal, which keeps L and U to one
    sparsity pattern.  ``apply`` is the factor's solve; ``solve`` applies it
    once between projections.

    Immutable after construction; each solve allocates private workspace, so
    concurrent solves against one handle are safe, and repeated solves of
    one right-hand side are bit-identical.
    """

    def __init__(self, g: WeightedGraph, conductance):
        c = _as_float_vector(conductance, g.m, "conductance")
        layout = _layout(g)
        self.n = g.n
        self.banded = layout.banded
        if self.banded:
            self._order = layout.order
            ab = np.bincount(layout.slot, weights=c[layout.edge] * layout.sign,
                             minlength=(layout.band + 1) * layout.order.size)
            self._band, info = dpbtrf(ab.reshape((layout.band + 1, -1), order="F"), lower=1,
                                      overwrite_ab=1)
            if info:
                raise GraphError("matrix is singular after grounding")
        else:
            try:
                self._lu = spla.splu(g.laplacian_csr(c)[1:, 1:].tocsc(),
                                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise GraphError("matrix is singular after grounding") from exc

    def apply(self, y, out=None):
        """The factor's solve of ``y``, written into ``out`` when given and
        returned; an ``out`` must hold zero at vertex 0, never written."""
        if out is None:
            out = np.zeros(y.shape)
        if self.banded:
            # the gathered copy is solved in place: one allocation per application
            x, _ = dpbtrs(self._band, y[self._order], lower=1, overwrite_b=1)
            out[self._order] = x
        else:
            out[1:] = self._lu.solve(y[1:])
        return out

    def _project(self, v, *, check_range=False, out=None):
        """``v`` (one vector, or one per column) minus its mean, the
        Laplacian's null space, written into ``out``: a new array when None,
        or ``v`` itself to project in place.

        With ``check_range``, a sum of ``v`` above ``1e-6 n`` times ``v``'s
        largest entry raises ``GraphError``, since ``v`` is then not in the
        Laplacian's range; a sum of exactly zero passes without that bound.
        The mean is the sum over ``n``, the bits ``mean`` gives."""
        out = np.array(v, dtype=float) if out is None else out
        total = out.sum(axis=0)
        if check_range and total.any():
            tol = 1e-6 * np.maximum(np.abs(v).max(axis=0), 1e-300) * self.n + 1e-300
            if (np.abs(total) > tol).any():
                raise GraphError("right-hand side is not orthogonal to the Laplacian null space")
        out -= total / self.n
        return out

    def solve(self, b):
        """The solution of ``A x = b`` with zero mean, for one right-hand
        side or a matrix of them (one per column)."""
        x = self.apply(self._project(np.asarray(b, dtype=float), check_range=True))
        return self._project(x, out=x)


SOLVER_COUNTERS = ("electrical_flows", "factorizations", "rebinds", "pcg_iterations")


class LaggedFactor:
    """The solves of a sequence of electrical flows on nearby Laplacians,
    with one sparse LU ``SolverHandle`` carried across them on a wide band.

    ``solver(g, conductance)`` gives the solve of the next flow on ``g``;
    ``electrical_flow`` asks for it, ``record``s the flow's stats and
    ``drop``s the factor when the flow fails.  Where ``g``'s band is at most
    ``BAND_CUTOFF`` the solve is a fresh banded factor every time, exact and
    cheaper than one PCG solve on a carried factor.  Above it, the solve is
    PCG at the new conductances (``_pcg``), preconditioned by the carried
    handle's ``apply`` (lagged preconditioning), and it is refreshed when the
    last flow's PCG took more than ``REFRESH_ITERATIONS`` iterations or when
    ``g`` no longer shares the structure the factor was built on (graphs
    made by ``reweighted`` share it; a rebuilt quotient pattern does not).
    PCG's iteration ``cap`` is computed once per carried factor, from the
    conductances it was built at.

    The counters cover every flow it served: ``electrical_flows``,
    ``factorizations`` (fresh factors), ``rebinds`` (flows solved by PCG on
    the carried factor) and ``pcg_iterations`` (their iterations).  One
    object lives for one run and is never cached on shared state, so
    same-seed reruns repeat exactly.
    """

    REFRESH_ITERATIONS = 10

    def __init__(self):
        self.handle = None  # the carried factor
        self.structure = None  # the ``_structure`` of the graph ``handle`` factors
        self.cap = None
        self.last_iterations = 0
        self.rebound = False
        self.electrical_flows = self.factorizations = self.rebinds = self.pcg_iterations = 0

    def solver(self, g: WeightedGraph, conductance):
        """The solve ``(b, delta) -> (x, iterations)`` of the next electrical
        flow on ``g`` at ``conductance``."""
        self.electrical_flows += 1
        self.rebound = (self.handle is not None and self.structure is g._structure
                        and self.last_iterations <= self.REFRESH_ITERATIONS)
        if self.rebound:
            self.rebinds += 1
            values = g.laplacian_data(_as_float_vector(conductance, g.m, "conductance"))
            return functools.partial(self._pcg, g, values)
        self.factorizations += 1
        self.handle = None  # free the old factor first: less heap to grow
        handle = SolverHandle(g, conductance)
        if not handle.banded:
            # int(20 sqrt(4 n^2 d_max / d_min) + 1000) for the weighted degrees d
            diag = np.bincount(g.tails, weights=conductance, minlength=g.n)
            diag += np.bincount(g.heads, weights=conductance, minlength=g.n)
            kappa_est = 4.0 * g.n ** 2 * diag.max() / diag.min()
            self.cap = int(20 * np.sqrt(kappa_est) + 1000)
            self.handle, self.structure = handle, g._structure
        return lambda b, delta: (handle.solve(b), 1)

    def record(self, stats: SolveStats):
        self.last_iterations = stats.iterations
        if self.rebound:
            self.pcg_iterations += stats.iterations

    def drop(self):
        self.handle = self.structure = None

    def counters(self):
        return {name: getattr(self, name) for name in SOLVER_COUNTERS}

    def _pcg(self, g: WeightedGraph, values, b, delta):
        """PCG from zero on one right-hand side, for the Laplacian whose
        ``values`` lie over ``g``'s cached pattern, preconditioned by the
        carried factor; returns ``(x, iterations)``.

        Stops when the CG quadrature estimate of the squared A-norm error,
        summed over the last ``window`` steps, falls below
        ``(delta / 2)^2 |x|_A^2`` (``|x|_A^2`` estimated from the steps so far),
        after two consecutive steps far below that target, or once the
        residual has sat at the float64 floor for a whole window.  Reaching
        ``cap`` iterations first raises SolverConvergenceError, carrying the
        best iterate.
        """
        handle, n = self.handle, g.n
        indptr, indices, _ = g.laplacian_pattern()
        b = handle._project(b, check_range=True)
        precondition = handle.apply
        # z is the preconditioned residual, rewritten in place every step
        ap, work, z = np.empty(n), np.empty(n), np.zeros(n)
        x = np.zeros(n)
        r = b.copy()
        precondition(r, z)
        p = z.copy()
        gamma = float(r @ z)
        bnorm = math.sqrt(float(b @ b))
        floor2 = (64.0 * _EPS * max(bnorm, 1e-300)) ** 2

        window = 8
        ring = [0.0] * window
        total = 0.0
        it = stagnant = tiny = 0
        while bnorm > 0:
            if it >= self.cap:
                raise SolverConvergenceError(
                    f"PCG hit iteration cap {self.cap}",
                    best_iterate=handle._project(x),
                    achieved_residual=math.sqrt(float(r @ r)) / max(bnorm, 1e-300),
                )
            csr_matvec(indptr, indices, values, n, p, ap)
            pap = float(p @ ap)
            alpha = gamma / pap if pap > 0 else 0.0
            x += np.multiply(p, alpha, out=work)
            r -= np.multiply(ap, alpha, out=work)
            precondition(r, z)
            gamma_new = float(r @ z)
            step = alpha * gamma
            total += step
            ring[it % window] = step
            it += 1

            target = 0.25 * delta * delta * max(total, 1e-300)
            # near-exact preconditioners collapse the error in a couple of
            # steps; two consecutive steps far below target end the solve
            tiny = tiny + 1 if abs(step) <= 1e-5 * target else 0
            stagnant = stagnant + 1 if float(r @ r) <= floor2 else 0
            if ((it >= window and sum(ring) <= target) or (it >= 2 and tiny >= 2)
                    or stagnant >= window):  # roundoff floor; as good as float64 gets
                break
            beta = gamma_new / gamma if gamma > 0 else 0.0
            p *= beta
            p += z
            gamma = gamma_new

        return handle._project(x, out=x), it


@dataclass
class ElectricalFlowResult:
    """Demand-exact approximate electrical flow with its potentials."""

    flow: np.ndarray
    potentials: np.ndarray
    energy: float
    optimum_estimate: float
    stats: SolveStats = field(default_factory=SolveStats)


def _resistances(g: WeightedGraph, resistances):
    """``resistances``, or the graph's own when None, as a checked vector."""
    r = g.resistance if resistances is None else resistances
    if r is None:
        raise GraphError("no resistances on graph and none supplied")
    return _as_float_vector(r, g.m, "resistance")


def electrical_flow(g: WeightedGraph, d, delta, resistances=None,
                    lag: LaggedFactor | None = None):
    """Route demand ``d`` electrically; the residual equals ``d`` exactly.

    The solve is refined until a computed duality gap certifies
    ``energy <= (1 + delta) * optimum``; the per-edge energy proximity bound
    also holds whenever ``delta**2 / 4.5`` stays above the float64 gap floor
    (delta >= ~2e-6).  Only PCG on a carried factor is refined; an exact
    solve that misses the gap raises at once.  The residual of the returned
    flow is repaired on a BFS spanning tree, so the demand constraint is
    unconditional.

    ``lag`` gives the solve and counts the flow; a flow that raises
    ``SolverConvergenceError`` drops its carried factor.  Without one the
    flow gets an exact factor of its own.
    """
    g.require_connected("electrical flow")
    d = zero_sum_demand(d, g.n)
    r = _resistances(g, resistances)
    delta = float(delta)
    if delta <= 0:
        raise GraphError("delta must be positive")

    cond = 1.0 / r
    lag = LaggedFactor() if lag is None else lag
    solve = lag.solver(g, cond)

    if not d.any():
        lag.record(SolveStats())
        return ElectricalFlowResult(np.zeros(g.m), np.zeros(g.n), 0.0, 0.0)

    gap_target = max(delta * delta / 4.5, GAP_FLOOR)
    delta_a = min(0.7 * np.sqrt(gap_target), 0.25)
    total_iters = 0
    e_flow, lower, flow = np.inf, 0.0, None
    # a fresh factor ignores delta_a: a second attempt would repeat its bits
    for attempt in range(8 if lag.rebound else 1):
        try:
            phi, iterations = solve(d, delta_a)
        except SolverConvergenceError:
            lag.drop()
            raise
        total_iters += iterations
        dphi = phi[g.tails] - phi[g.heads]
        f_pot = dphi * cond
        q = d - (np.bincount(g.tails, weights=f_pot, minlength=g.n)
                 - np.bincount(g.heads, weights=f_pot, minlength=g.n))
        flow = f_pot + g.route_on_tree(q)
        e_flow = float((r * flow * flow).sum())
        # edge by edge: phi @ (L phi) cancels away the gap when conductances span decades
        quad = float(dphi @ f_pot)
        lin = float(d @ phi)
        lower = lin * lin / quad if quad > 0 else 0.0
        if lower > 0 and e_flow <= (1.0 + gap_target) * lower:
            stats = SolveStats(iterations=total_iters, refinements=attempt)
            lag.record(stats)
            return ElectricalFlowResult(flow, phi - phi.mean(), e_flow, lower, stats)
        delta_a = max(delta_a / 8.0, 1e-9)
    lag.drop()
    raise SolverConvergenceError(
        f"electrical flow gap {e_flow / max(lower, 1e-300) - 1.0:.3e} above target {gap_target:.3e}",
        best_iterate=flow,
        achieved_residual=e_flow / max(lower, 1e-300) - 1.0,
    )


def optimum_energy(g: WeightedGraph, d, resistances=None):
    """d^T L^+ d via an exact solve."""
    g.require_connected("optimum energy")
    d = zero_sum_demand(d, g.n)
    return float(d @ SolverHandle(g, 1.0 / _resistances(g, resistances)).solve(d))
