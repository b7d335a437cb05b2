"""SDD / Laplacian linear solves and demand-exact approximate electrical flows.

A ``SolverHandle`` factors its matrix exactly, with each component's root
row and column removed (dense Cholesky up to ``DENSE_CUTOFF`` unknowns,
sparse LU above), so a fresh handle meets the contract
``|x - A^+ b|_A <= delta * |A^+ b|_A`` with one factor application.  A
handle rebound to a nearby matrix of the same structure keeps the old factor
as the preconditioner of conjugate gradients, whose stopping rule is the
standard CG quadrature estimate of the A-norm error, so the contract is
targeted directly rather than through a 2-norm residual proxy.

Electrical flows refine the solve until a computable duality gap certifies
the energy bounds; the flow residual is then repaired exactly on a BFS
spanning tree, which makes the demand constraint unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import GraphError, SolverConvergenceError
from .graphs import SparseLaplacian, WeightedGraph, laplacian_from_resistances, zero_sum_demand

_EPS = np.finfo(float).eps

# Below this relative duality gap, float64 roundoff dominates the certificate.
GAP_FLOOR = 5e-13

DENSE_CUTOFF = 64


@dataclass
class SolveStats:
    iterations: int = 0
    achieved_estimate: float = 0.0
    refinements: int = 0


class _Factor:
    """Exact factor of a matrix with each component's root row and column
    removed (none for a non-Laplacian): dense Cholesky up to ``DENSE_CUTOFF``
    unknowns, sparse LU above.  Applies as zeros at the roots."""

    def __init__(self, a, keep):
        try:
            if a.shape[0] <= DENSE_CUTOFF:
                self._chol = scipy.linalg.cho_factor(a.toarray()[np.ix_(keep, keep)], lower=True,
                                                     check_finite=False)
                self._lu = None
            else:
                self._lu = spla.splu(a[keep][:, keep].tocsc())
        except (scipy.linalg.LinAlgError, RuntimeError) as exc:
            raise GraphError("matrix is singular after grounding") from exc
        self.keep = keep

    def apply(self, y):
        out = np.zeros_like(y)
        if self._lu is None:
            out[self.keep] = scipy.linalg.cho_solve(self._chol, y[self.keep], check_finite=False)
        else:
            out[self.keep] = self._lu.solve(y[self.keep])
        return out


class SolverHandle:
    """Shareable solver state for one fixed symmetric diagonally dominant matrix.

    A fresh handle solves exactly, with one application of its factor.  A
    handle made by ``rebind`` runs PCG preconditioned by the factor of the
    matrix it was rebound from; ``iteration_cap`` caps that PCG.

    Immutable after construction; each solve allocates private workspace, so
    concurrent solves against one handle are safe.  Repeated solves with the
    same right-hand side and arguments are bit-identical.
    """

    def __init__(self, matrix, iteration_cap=None, _components=None):
        if isinstance(matrix, SparseLaplacian):
            matrix = matrix.matrix
        a = sp.csr_matrix(matrix).astype(float)
        if a.shape[0] != a.shape[1]:
            raise GraphError("matrix must be square")
        self.matrix = a
        self.n = n = a.shape[0]

        diag = a.diagonal()
        if np.any(diag <= 0):
            raise GraphError("matrix diagonal must be strictly positive")
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        if np.any(a.data[rows != a.indices] > 0):
            raise GraphError("matrix has positive off-diagonal entries; not SDD")

        rowsum = np.asarray(a.sum(axis=1)).ravel()
        no_excess = np.abs(rowsum) <= 1e-9 * max(diag.max(initial=1.0), 1.0)
        self.is_laplacian = bool(no_excess.all())
        if no_excess.any() and _components is None:
            _components = sp.csgraph.connected_components(a, directed=False)
        if self.is_laplacian:
            nc, labels = _components
            self._comp_index = [np.flatnonzero(labels == c) for c in range(nc)]
            keep = np.ones(n, dtype=bool)
            keep[[idx[0] for idx in self._comp_index]] = False
            keep = np.flatnonzero(keep)
        else:
            if no_excess.any():
                # an SDD component without diagonal excess is singular
                nc, labels = _components
                if np.any(np.bincount(labels[~no_excess], minlength=nc) == 0):
                    raise GraphError("matrix is singular: a component has no diagonal excess")
            self._comp_index = []
            keep = np.arange(n)
        self._factor = _Factor(a, keep)
        self._exact_direct = True

        kappa_est = 4.0 * n ** 2 * diag.max() / diag.min()
        self.iteration_cap = iteration_cap if iteration_cap is not None else int(20 * np.sqrt(kappa_est) + 1000)

    @classmethod
    def for_graph(cls, g: WeightedGraph, conductance):
        """Laplacian handle reusing the graph's cached components."""
        return cls(g.laplacian_csr(conductance), _components=g.components())

    def rebind(self, matrix):
        """Handle for a same-structure matrix whose solves run PCG,
        preconditioned by this handle's factor (lagged preconditioning)."""
        if isinstance(matrix, SparseLaplacian):
            matrix = matrix.matrix
        clone = object.__new__(SolverHandle)
        clone.__dict__.update(self.__dict__)
        clone.matrix = sp.csr_matrix(matrix).astype(float)
        clone._exact_direct = False
        return clone

    # -- helpers ---------------------------------------------------------------

    def _project(self, v):
        """Remove per-component constant part (Laplacian null space)."""
        if not self.is_laplacian:
            return v
        out = np.array(v, dtype=float)
        for idx in self._comp_index:
            if out.ndim == 2:
                out[idx] -= out[idx].mean(axis=0)
            else:
                out[idx] -= out[idx].mean()
        return out

    def _check_range(self, bmat):
        scale = np.abs(bmat).max(axis=0)
        for idx in self._comp_index:
            bad = np.abs(bmat[idx].sum(axis=0)) > 1e-6 * np.maximum(scale, 1e-300) * self.n + 1e-300
            if np.any(bad):
                raise GraphError("right-hand side is not orthogonal to the Laplacian null space")

    # -- solves ------------------------------------------------------------------

    def solve(self, b, delta=1e-8, x0=None, anorm2_floor=0.0):
        """Solve A x = b with ``|x - A^+ b|_A <= delta * |A^+ b|_A``.

        A fresh handle solves exactly and ignores ``delta``, ``x0`` and
        ``anorm2_floor``.  A rebound handle raises SolverConvergenceError
        (carrying the best iterate) if PCG reaches the iteration cap first.
        """
        x, _ = self.solve_with_stats(b, delta=delta, x0=x0, anorm2_floor=anorm2_floor)
        return x

    def solve_with_stats(self, b, delta=1e-8, x0=None, anorm2_floor=0.0):
        b = np.asarray(b, dtype=float)
        single = b.ndim == 1
        bmat = b[:, None] if single else b
        if self.is_laplacian:
            self._check_range(bmat)
            bmat = self._project(bmat)
        if self._exact_direct:
            x, stats = self._project(self._factor.apply(bmat)), SolveStats(iterations=1)
        else:
            x, stats = self._pcg(bmat, float(delta), x0, anorm2_floor, b.shape)
        return (x[:, 0] if single else x), stats

    def _pcg(self, bmat, delta, x0, anorm2_floor, shape):
        k = bmat.shape[1]
        if x0 is None:
            x = np.zeros_like(bmat)
            r = bmat.copy()
            base = np.zeros(k)
        else:
            x = np.array(x0, dtype=float).reshape(bmat.shape)
            r = bmat - self.matrix @ x
            base = 2.0 * np.einsum("ij,ij->j", x, bmat) - np.einsum("ij,ij->j", x, self.matrix @ x)
        z = self._factor.apply(r)
        p = z.copy()
        gamma = np.einsum("ij,ij->j", r, z)
        total = np.zeros(k)

        window = 8
        ring = np.zeros((window, k))
        bnorm = np.linalg.norm(bmat, axis=0)
        active = bnorm > 0
        it = 0
        stagnant = np.zeros(k, dtype=int)
        tiny = np.zeros(k, dtype=int)
        while active.any():
            if it >= self.iteration_cap:
                raise SolverConvergenceError(
                    f"PCG hit iteration cap {self.iteration_cap}",
                    best_iterate=self._project(x).reshape(shape),
                    achieved_residual=float(np.linalg.norm(r) / max(np.linalg.norm(bmat), 1e-300)),
                )
            ap = self.matrix @ p
            pap = np.einsum("ij,ij->j", p, ap)
            safe = active & (pap > 0)
            alpha = np.where(safe, gamma / np.where(pap > 0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            z = self._factor.apply(r)
            gamma_new = np.einsum("ij,ij->j", r, z)
            step = alpha * gamma
            total += step
            ring[it % window] = np.where(active, step, 0.0)
            it += 1

            denom = np.maximum(np.maximum(total + base, anorm2_floor), 1e-300)
            west = ring.sum(axis=0)
            target = 0.25 * delta * delta * denom
            done = (it >= window) & (west <= target)
            # near-exact preconditioners collapse the error in a couple of
            # steps; two consecutive steps far below target end the column
            tiny_now = np.abs(step) <= 1e-5 * target
            tiny = np.where(tiny_now, tiny + 1, 0)
            done |= (it >= 2) & (tiny >= 2)
            rnorm = np.linalg.norm(r, axis=0)
            stagnant = np.where(rnorm <= 64.0 * _EPS * np.maximum(bnorm, 1e-300), stagnant + 1, 0)
            done |= stagnant >= window  # roundoff floor; as good as float64 gets
            active &= ~done
            beta = np.where(gamma > 0, gamma_new / np.where(gamma > 0, gamma, 1.0), 0.0)
            p = z + beta * p
            gamma = gamma_new

        stats = SolveStats(iterations=it, achieved_estimate=float(np.sqrt(ring.sum(axis=0).max(initial=0.0))))
        return self._project(x), stats


def solve_sdd(a, b, delta, x0=None):
    """One-shot strictly-SDD / Laplacian solve meeting the A-norm contract."""
    handle = a if isinstance(a, SolverHandle) else SolverHandle(a)
    return handle.solve(b, delta=delta, x0=x0)


@dataclass
class ElectricalFlowResult:
    """Demand-exact approximate electrical flow with its potentials."""

    flow: np.ndarray
    potentials: np.ndarray
    energy: float
    optimum_estimate: float
    stats: SolveStats = field(default_factory=SolveStats)

    def recompute_energy(self, r):
        return float(np.sum(np.asarray(r) * self.flow * self.flow))


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
    r = g.resistance if resistances is None else np.asarray(resistances, dtype=float)
    if r is None:
        raise GraphError("no resistances on graph and none supplied")
    if np.any(r <= 0) or not np.all(np.isfinite(r)):
        raise GraphError("resistances must be strictly positive and finite")
    delta = float(delta)
    if delta <= 0:
        raise GraphError("delta must be positive")

    cond = 1.0 / r
    if handle is None:
        handle = SolverHandle.for_graph(g, cond)
    lap = handle.matrix

    if not np.any(d):
        return ElectricalFlowResult(np.zeros(g.m), np.zeros(g.n), 0.0, 0.0)

    gap_target = max(delta * delta / 4.5, GAP_FLOOR)
    delta_a = min(0.7 * np.sqrt(gap_target), 0.25)
    phi = None if potentials_hint is None else np.asarray(potentials_hint, dtype=float)
    total_iters = 0
    e_flow, lower, flow = np.inf, 0.0, None
    for attempt in range(8):
        phi, st = handle.solve_with_stats(d, delta=delta_a, x0=phi)
        total_iters += st.iterations
        f_pot = (phi[g.tails] - phi[g.heads]) * cond
        q = d - (np.bincount(g.tails, weights=f_pot, minlength=g.n)
                 - np.bincount(g.heads, weights=f_pot, minlength=g.n))
        flow = f_pot + g.route_on_tree(q)
        e_flow = float(np.sum(r * flow * flow))
        quad = float(phi @ (lap @ phi))
        lin = float(d @ phi)
        lower = lin * lin / quad if quad > 0 else 0.0
        if lower > 0 and e_flow <= (1.0 + gap_target) * lower:
            stats = SolveStats(iterations=total_iters, achieved_estimate=st.achieved_estimate,
                               refinements=attempt)
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
    lap = laplacian_from_resistances(g, resistances)
    x = solve_sdd(lap.matrix, d, delta=1e-10)
    return float(d @ x)
