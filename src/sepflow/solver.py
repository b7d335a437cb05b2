"""Laplacian linear solves and demand-exact approximate electrical flows.

A ``SolverHandle`` factors the Laplacian of one graph at given conductances
exactly, with each component's root row and column removed, so a fresh
handle meets the contract ``|x - A^+ b|_A <= delta * |A^+ b|_A`` with one
factor application.  The kept vertices are numbered in reverse
Cuthill-McKee order, computed once per graph structure; separable graphs
have small separators, so that order gives a narrow band (24 on a 24x24
grid, 47 on 16x16x3).  Up to a band of ``BAND_CUTOFF`` the factor is a
LAPACK banded Cholesky (``dpbtrf``) of a matrix scattered straight into
band storage; a wider band gets a sparse LU.  A handle rebound to new
conductances on the same graph keeps the old factor as the preconditioner
of conjugate gradients on one right-hand side at a time, whose stopping rule
is the standard CG quadrature estimate of the A-norm error, so the contract
is targeted directly rather than through a 2-norm residual proxy.

A ``LaggedFactor`` serves a whole sequence of nearby Laplacians on one graph
structure: a fresh banded factor for each where the band is narrow, since it
costs less than one PCG solve, and one carried sparse LU factor (lagged
preconditioning) where it is wide, refreshed when PCG starts to take long;
grouped flow serves every inner electrical flow of a run from one.

Electrical flows refine the solve until a computable duality gap certifies
the energy bounds; the flow residual is then repaired exactly on a BFS
spanning tree, which makes the demand constraint unconditional.

An inner electrical flow costs its factor applications and a few vector
operations: a banded factor takes one ``bincount`` of the conductances and
one LAPACK call, and builds no scipy matrix; a rebound handle takes only the
Laplacian's new values over the graph's cached pattern, PCG multiplies by
the matrix into a preallocated vector through one CSR kernel
(``graphs.csr_matvec``), and the tree repair is one prefix sum
(``route_on_tree``).  A fresh handle computes nothing that only PCG reads:
its iteration cap waits for the first ``rebind``.  Each flow still checks
what can change between flows: its conductances and resistances are
positive and finite (they drift, and can overflow, as weights grow), its
right-hand side is in the range, both projections run and its gap is
certified.  The structure these rest on (layout, BFS tree, Laplacian
pattern) is computed once per graph, by compiled scipy and numpy calls.
"""

from __future__ import annotations

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


def _as_slice(idx):
    """``idx`` (sorted, distinct) as a slice when it is one contiguous range."""
    if idx.size and idx[-1] - idx[0] == idx.size - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1)
    return idx


@dataclass(frozen=True)
class _Layout:
    """How the grounded Laplacian of one graph structure is stored.

    ``comp_index`` lists each component's vertices (a slice when
    contiguous); ``keep`` the vertices other than the component roots (the
    smallest id of each component), sorted; ``order`` the same vertices in
    reverse Cuthill-McKee order, whose band is ``band``.  Up to a band of
    ``BAND_CUTOFF``, ``slot``, ``edge`` and ``sign`` scatter the
    conductances into LAPACK lower band storage, column-major
    ``(band + 1, keep.size)``: entry ``i`` adds ``sign[i] * c[edge[i]]`` at
    flat position ``slot[i]``.  Above it they are None.
    """

    comp_index: list
    keep: np.ndarray | slice
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
    in ``g._structure``, which ``reweighted`` copies share."""
    layout = g._structure.get("band_layout")
    if layout is not None:
        return layout
    n = g.n
    degree = np.bincount(g.tails, minlength=n) + np.bincount(g.heads, minlength=n)
    if not degree.all():
        raise GraphError(f"vertex {int(np.argmin(degree))} is isolated; every vertex needs an edge")
    nc, labels = g.components()
    comp_index = [np.flatnonzero(labels == c) for c in range(nc)]
    root = np.zeros(n, dtype=bool)
    root[[idx[0] for idx in comp_index]] = True
    perm = reverse_cuthill_mckee(g.adjacency(), symmetric_mode=True)
    order = perm[~root[perm]]
    pos = np.full(n, -1, dtype=np.int64)
    pos[order] = np.arange(order.size)
    pt, ph = pos[g.tails], pos[g.heads]
    lo, width = np.minimum(pt, ph), np.abs(pt - ph)
    both = lo >= 0
    band = int(width[both].max(initial=0))
    slot = edge = sign = None
    if band <= BAND_CUTOFF:
        # column j of band storage holds A[j, j] at row 0 and A[j + r, j] at row r
        ld, eid = band + 1, np.arange(g.m)
        kt, kh = pt >= 0, ph >= 0
        slot = np.concatenate([pt[kt] * ld, ph[kh] * ld, lo[both] * ld + width[both]])
        edge = np.concatenate([eid[kt], eid[kh], eid[both]])
        sign = np.concatenate([np.ones(kt.sum() + kh.sum()), -np.ones(both.sum())])
    layout = _Layout([_as_slice(idx) for idx in comp_index], _as_slice(np.flatnonzero(~root)),
                     order, band, slot, edge, sign)
    g._structure["band_layout"] = layout
    return layout


class _Factor:
    """Exact factor of a Laplacian with each component's root row and column
    removed, on the graph's ``_Layout``: banded Cholesky in reverse
    Cuthill-McKee order up to a band of ``BAND_CUTOFF``, sparse LU above.
    Applies as zeros at the roots.

    The banded factor is one ``bincount`` of the conductances into band
    storage and one ``dpbtrf``; no matrix is built.  The LU factors the
    grounded CSR matrix (kept vertices that form one contiguous range are
    grounded by slicing), which is symmetric positive definite, so it takes
    a symmetric fill-reducing ordering (minimum degree on ``A^T + A``) and
    pivots on the diagonal, which keeps L and U to one sparsity pattern."""

    def __init__(self, g: WeightedGraph, conductance, layout: _Layout):
        self.banded = layout.banded
        if self.banded:
            self.order = layout.order
            ab = np.bincount(layout.slot, weights=conductance[layout.edge] * layout.sign,
                             minlength=(layout.band + 1) * layout.order.size)
            self._band, info = dpbtrf(ab.reshape((layout.band + 1, -1), order="F"), lower=1,
                                      overwrite_ab=1)
            if info:
                raise GraphError("matrix is singular after grounding")
        else:
            self.keep = keep = layout.keep
            try:
                self._lu = spla.splu(g.laplacian_csr(conductance)[keep][:, keep].tocsc(),
                                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                                     options={"SymmetricMode": True})
            except RuntimeError as exc:
                raise GraphError("matrix is singular after grounding") from exc

    def apply(self, y, out=None):
        """The factor's solve of ``y``, written into ``out`` when given; an
        ``out`` must hold zeros at the roots, which are never written."""
        if out is None:
            out = np.zeros_like(y)
        if self.banded:
            # the gathered copy is solved in place: one allocation per application
            x, _ = dpbtrs(self._band, y[self.order], lower=1, overwrite_b=1)
            out[self.order] = x
        else:
            out[self.keep] = self._lu.solve(y[self.keep])
        return out


class SolverHandle:
    """Shareable solver state for the Laplacian of one graph at fixed
    per-edge conductances.

    ``SolverHandle(g, conductance)`` grounds each of ``g.components()`` at
    its first vertex and factors the Laplacian on ``g``'s cached layout
    (``_Factor``): banded Cholesky where the reverse Cuthill-McKee band is
    at most ``BAND_CUTOFF``, sparse LU above.  A fresh handle solves
    exactly, with one application of that factor.  A handle made by
    ``rebind`` runs PCG on one right-hand side at a time, preconditioned by
    the factor of the handle it was rebound from; ``iteration_cap`` caps
    that PCG.  Its products with the matrix run on the CSR arrays of the
    graph's cached pattern directly (``matvec``), into preallocated vectors;
    a fresh handle computes its CSR data only when ``matvec`` first needs it.
    Likewise it computes its iteration cap, unless one is given, only when
    it is first read or the handle is first rebound: a fresh handle's exact
    solve never reads it, and every rebound handle gets the cap of the
    conductances the factor was built at.

    Immutable after construction, apart from that cached data; each solve
    allocates private workspace, so concurrent solves against one handle are
    safe.  Repeated solves with the same right-hand side and arguments are
    bit-identical.
    """

    def __init__(self, g: WeightedGraph, conductance, iteration_cap=None):
        c = _as_float_vector(conductance, g.m, "conductance")
        layout = _layout(g)
        self.n = g.n
        self._graph, self._conductance, self._data = g, c, None
        self._comp_index = layout.comp_index
        self._factor = _Factor(g, c, layout)
        self._exact_direct = True
        self._iteration_cap = iteration_cap

    @property
    def iteration_cap(self):
        """The PCG iteration cap: the one given, else
        ``int(20 sqrt(4 n^2 d_max / d_min) + 1000)`` for the weighted degrees
        ``d`` at the conductances the handle was built with, computed on
        first use (only PCG on a rebound handle reads it)."""
        if self._iteration_cap is None:
            g, c, n = self._graph, self._conductance, self.n
            diag = np.bincount(g.tails, weights=c, minlength=n)
            diag += np.bincount(g.heads, weights=c, minlength=n)
            kappa_est = 4.0 * n ** 2 * diag.max() / diag.min()
            self._iteration_cap = int(20 * np.sqrt(kappa_est) + 1000)
        return self._iteration_cap

    def _csr(self):
        """``(indptr, indices, data)`` of the Laplacian over the graph's
        cached pattern; a fresh handle computes ``data`` on first use."""
        indptr, indices, _ = self._graph.laplacian_pattern()
        if self._data is None:
            self._data = self._graph.laplacian_data(self._conductance)
        return indptr, indices, self._data

    def matvec(self, x, out=None):
        """``A @ x`` for a vector ``x``, written into ``out`` when given."""
        indptr, indices, data = self._csr()
        return csr_matvec(indptr, indices, data, self.n, np.asarray(x),
                          np.empty(self.n) if out is None else out)

    def rebind(self, values):
        """Handle for the same graph at new conductances whose solves run
        PCG, preconditioned by this handle's factor (lagged preconditioning).

        ``values`` is the new Laplacian's ``data`` over the graph's cached
        pattern, as ``WeightedGraph.laplacian_data`` gives it: a 1-D float64
        array, kept as it is, not copied, so it must not change afterwards.
        Rebinding a rebound handle keeps the original factor.
        """
        _, indices, _ = self._graph.laplacian_pattern()
        if not (isinstance(values, np.ndarray) and values.shape == indices.shape
                and values.dtype == np.float64):
            raise GraphError(f"rebound values must be {indices.size} float64 entries, "
                             "one per stored entry of the pattern")
        clone = object.__new__(SolverHandle)
        clone.__dict__.update(self.__dict__)
        clone._iteration_cap = self.iteration_cap  # computed once, on this handle
        clone._exact_direct = False
        clone._data = values
        return clone

    # -- helpers ---------------------------------------------------------------

    def _project(self, v):
        """Remove per-component constant part (Laplacian null space)."""
        out = np.array(v, dtype=float)
        for idx in self._comp_index:
            out[idx] -= out[idx].mean(axis=0)
        return out

    def _check_range(self, bmat):
        tol = 1e-6 * np.maximum(np.abs(bmat).max(axis=0), 1e-300) * self.n + 1e-300
        for idx in self._comp_index:
            if (np.abs(bmat[idx].sum(axis=0)) > tol).any():
                raise GraphError("right-hand side is not orthogonal to the Laplacian null space")

    # -- solves ------------------------------------------------------------------

    def solve(self, b, delta=1e-8, x0=None):
        """Solve A x = b with ``|x - A^+ b|_A <= delta * |A^+ b|_A``.

        A fresh handle solves exactly, for one right-hand side or a matrix of
        them (one per column), and ignores ``delta`` and ``x0``.  A rebound
        handle takes one right-hand side and raises SolverConvergenceError
        (carrying the best iterate) if PCG reaches the iteration cap first.
        """
        x, _ = self.solve_with_stats(b, delta=delta, x0=x0)
        return x

    def solve_with_stats(self, b, delta=1e-8, x0=None):
        b = np.asarray(b, dtype=float)
        if not self._exact_direct:
            if b.ndim != 1:
                raise GraphError("a rebound handle solves one right-hand side at a time")
            return self._pcg(b, float(delta), x0)
        bmat = b[:, None] if b.ndim == 1 else b
        self._check_range(bmat)
        x = self._project(self._factor.apply(self._project(bmat)))
        return (x[:, 0] if b.ndim == 1 else x), SolveStats(iterations=1)

    def _pcg(self, b, delta, x0):
        """Preconditioned CG on one right-hand side.

        Stops when the CG quadrature estimate of the squared A-norm error,
        summed over the last ``window`` steps, falls below
        ``(delta / 2)^2 |x|_A^2`` (``|x|_A^2`` estimated from the steps so far),
        after two consecutive steps far below that target, or once the
        residual has sat at the float64 floor for a whole window.
        """
        self._check_range(b)
        b = self._project(b)
        matvec, precondition = self.matvec, self._factor.apply
        # z is the preconditioned residual, rewritten in place every step
        ap, work, z = np.empty(self.n), np.empty(self.n), np.zeros(self.n)
        if x0 is None:
            x = np.zeros(self.n)
            r = b.copy()
            base = 0.0
        else:
            x = np.array(x0, dtype=float).reshape(b.shape)
            ax = matvec(x, ap)
            r = b - ax
            base = 2.0 * float(x @ b) - float(x @ ax)
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
            if it >= self.iteration_cap:
                raise SolverConvergenceError(
                    f"PCG hit iteration cap {self.iteration_cap}",
                    best_iterate=self._project(x),
                    achieved_residual=math.sqrt(float(r @ r)) / max(bnorm, 1e-300),
                )
            matvec(p, ap)
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

            target = 0.25 * delta * delta * max(total + base, 1e-300)
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

        return self._project(x), SolveStats(iterations=it)


SOLVER_COUNTERS = ("electrical_flows", "factorizations", "rebinds", "pcg_iterations")


class LaggedFactor:
    """The solver handles of a sequence of nearby solves, with one sparse LU
    factor carried across them where the band is wide.

    ``handle_for(g, conductance)`` gives the handle for the next electrical
    flow on ``g``.  Where ``g``'s band is at most ``BAND_CUTOFF`` that is a
    fresh banded factor every time, exact and cheaper than one PCG solve on
    a carried factor.  Above it, the carried LU factor is rebound to the new
    conductances (PCG preconditioned by the old factor) and refreshed when
    the last solve took more than ``REFRESH_ITERATIONS`` iterations, after
    ``MAX_AGE`` rebinds, or when ``g`` no longer shares the structure the
    factor was built on (graphs made by ``reweighted`` share it; a rebuilt
    quotient pattern does not).  ``record`` takes each solve's stats;
    ``drop`` forgets the factor after a failed solve.

    The counters cover every handle it gave: ``electrical_flows``,
    ``factorizations`` (fresh factors), ``rebinds`` and ``pcg_iterations``
    (iterations on rebound handles).  One object lives for one run and is
    never cached on shared state, so same-seed reruns repeat exactly.
    """

    REFRESH_ITERATIONS = 10
    MAX_AGE = 30

    def __init__(self):
        self.handle = None
        self.structure = None  # the ``_structure`` of the graph ``handle`` factors
        self.age = 0
        self.last_iterations = 0
        self.rebound = False
        self.electrical_flows = self.factorizations = self.rebinds = self.pcg_iterations = 0

    def handle_for(self, g: WeightedGraph, conductance):
        self.electrical_flows += 1
        self.rebound = (self.handle is not None and self.structure is g._structure
                        and self.last_iterations <= self.REFRESH_ITERATIONS
                        and self.age < self.MAX_AGE)
        if self.rebound:
            self.age += 1
            self.rebinds += 1
            return self.handle.rebind(g.laplacian_data(conductance))
        self.factorizations += 1
        self.handle = None  # free the old factor first: less heap to grow
        handle = SolverHandle(g, conductance)
        if not handle._factor.banded:
            self.handle, self.structure, self.age = handle, g._structure, 0
        return handle

    def record(self, stats: SolveStats):
        self.last_iterations = stats.iterations
        if self.rebound:
            self.pcg_iterations += stats.iterations

    def drop(self):
        self.handle = self.structure = None

    def counters(self):
        return {name: getattr(self, name) for name in SOLVER_COUNTERS}


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


def electrical_flow(g: WeightedGraph, d, delta, resistances=None, potentials_hint=None,
                    handle: SolverHandle | None = None):
    """Route demand ``d`` electrically; the residual equals ``d`` exactly.

    The solve is refined until a computed duality gap certifies
    ``energy <= (1 + delta) * optimum``; the per-edge energy proximity bound
    also holds whenever ``delta**2 / 4.5`` stays above the float64 gap floor
    (delta >= ~2e-6).  The residual of the returned flow is repaired on a BFS
    spanning tree, so the demand constraint is unconditional.
    """
    g.require_connected("electrical flow")
    d = zero_sum_demand(d, g.n)
    r = _resistances(g, resistances)
    delta = float(delta)
    if delta <= 0:
        raise GraphError("delta must be positive")

    cond = 1.0 / r
    if handle is None:
        handle = SolverHandle(g, cond)

    if not d.any():
        return ElectricalFlowResult(np.zeros(g.m), np.zeros(g.n), 0.0, 0.0)

    gap_target = max(delta * delta / 4.5, GAP_FLOOR)
    delta_a = min(0.7 * np.sqrt(gap_target), 0.25)
    phi = None if potentials_hint is None else np.asarray(potentials_hint, dtype=float)
    total_iters = 0
    e_flow, lower, flow = np.inf, 0.0, None
    for attempt in range(8):
        phi, st = handle.solve_with_stats(d, delta=delta_a, x0=phi)
        total_iters += st.iterations
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
            return ElectricalFlowResult(flow, phi - phi.mean(), e_flow, lower, stats)
        delta_a = max(delta_a / 8.0, 1e-9)
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
