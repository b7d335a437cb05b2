"""SDD / Laplacian linear solves and demand-exact approximate electrical flows.

The solver is preconditioned conjugate gradient with a composite
spanning-tree + Jacobi preconditioner; the tree system is applied through a
zero-fill sparse factorization in leaf-first elimination order.  Systems with
at most 64 unknowns short-circuit to an exact dense Cholesky solve, which
meets the same contract trivially.

Stopping is controlled by the standard CG quadrature estimate of the A-norm
error, so the contract ``|x - A^+ b|_A <= delta * |A^+ b|_A`` is targeted
directly rather than through a 2-norm residual proxy.

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


class _TreePreconditioner:
    """Spanning-tree SDD system applied via a zero-fill LU in leaf-first order."""

    def __init__(self, n, parent, depth, tree_weight, diag, jacobi_diag):
        nonroot = np.flatnonzero(parent >= 0)
        rows = np.concatenate([np.arange(n), nonroot, parent[nonroot]])
        cols = np.concatenate([np.arange(n), parent[nonroot], nonroot])
        vals = np.concatenate([diag, -tree_weight[nonroot], -tree_weight[nonroot]])
        mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
        perm = np.argsort(-depth, kind="stable")  # leaves first: no fill-in
        self.perm = perm
        mp = mat[perm][:, perm].tocsc()
        self.lu = spla.splu(mp, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
        self.jacobi = jacobi_diag

    def apply(self, y):
        perm = self.perm
        out = np.empty_like(y)
        out[perm] = self.lu.solve(y[perm])
        return 0.5 * (out + y / (self.jacobi[:, None] if y.ndim == 2 else self.jacobi))


class _DirectPreconditioner:
    """Sparse LU of the (grounded) matrix itself; near-exact, reusable after
    the matrix is rebound to a nearby one (lagged preconditioning)."""

    def __init__(self, matrix, roots, is_laplacian, diag):
        m = matrix.tocsc(copy=True)
        if is_laplacian:
            ground = sp.csr_matrix(
                (np.maximum(diag[roots], 1.0), (roots, roots)), shape=m.shape)
            m = (m + ground).tocsc()
        self.lu = spla.splu(m)

    def apply(self, y):
        return self.lu.solve(y)


class _DenseCholPreconditioner:
    """Dense Cholesky of the reduced matrix, used when a small handle is
    rebound to a perturbed matrix."""

    def __init__(self, factor, keep, n):
        self.factor = factor
        self.keep = keep
        self.n = n

    def apply(self, y):
        out = np.zeros_like(y)
        out[self.keep] = scipy.linalg.cho_solve(self.factor, y[self.keep], check_finite=False)
        return out


def _matrix_graph(mat):
    """Off-diagonal structure of a symmetric matrix as (tails, heads, weights)."""
    coo = sp.triu(mat, k=1).tocoo()
    keep = coo.data != 0
    return coo.row[keep], coo.col[keep], -coo.data[keep]


def _tree_cache(g: WeightedGraph, conductance):
    """(parent, depth, roots, parent-edge conductance, n_components, labels) of
    the graph's BFS forest, the tree the preconditioner is built on."""
    parent, parent_edge, _, depth = g.bfs_tree()
    tree_w = np.zeros(g.n)
    nonroot = parent_edge >= 0
    tree_w[nonroot] = conductance[parent_edge[nonroot]]
    nc, labels = g.components()
    return parent, depth, np.flatnonzero(parent < 0), tree_w, nc, labels


class SolverHandle:
    """Shareable solver state for one fixed symmetric diagonally dominant matrix.

    Immutable after construction; each solve allocates private workspace, so
    concurrent solves against one handle are safe.  Repeated solves with the
    same right-hand side and arguments are bit-identical.
    """

    def __init__(self, matrix, tolerance=1e-8, iteration_cap=None, seed=0,
                 preconditioner="tree", _graph_cache=None):
        if isinstance(matrix, SparseLaplacian):
            matrix = matrix.matrix
        a = sp.csr_matrix(matrix).astype(float)
        if a.shape[0] != a.shape[1]:
            raise GraphError("matrix must be square")
        self.matrix = a
        self.n = a.shape[0]
        self.tolerance = float(tolerance)
        self.seed = seed

        diag = a.diagonal()
        if np.any(diag <= 0):
            raise GraphError("matrix diagonal must be strictly positive")
        self.diag = diag

        rowsum = np.asarray(a.sum(axis=1)).ravel()
        self.is_laplacian = bool(np.abs(rowsum).max(initial=0.0) <= 1e-9 * max(diag.max(initial=1.0), 1.0))

        self._dense = None
        self._exact_direct = False
        if self.n <= DENSE_CUTOFF and iteration_cap is None:
            # dense exact path needs only the component structure for grounding
            if _graph_cache is None:
                if self.is_laplacian:
                    nc, labels = sp.csgraph.connected_components(a, directed=False)
                else:
                    nc, labels = 1, np.zeros(self.n, dtype=np.int64)
            else:
                _, _, _, _, nc, labels = _graph_cache
            self.n_components = int(nc)
            self.component = np.asarray(labels)
            self._comp_index = [np.flatnonzero(self.component == c) for c in range(self.n_components)]
            roots = np.array([idx[0] for idx in self._comp_index], dtype=np.int64)
            self._roots = roots
            dense = a.toarray()
            keep = np.setdiff1d(np.arange(self.n), roots) if self.is_laplacian else np.arange(self.n)
            self._dense_keep = keep
            try:
                self._dense = scipy.linalg.cho_factor(dense[np.ix_(keep, keep)], lower=True,
                                                      check_finite=False)
            except scipy.linalg.LinAlgError as exc:
                raise GraphError("matrix is not positive definite after grounding") from exc
            self._precond = _DenseCholPreconditioner(self._dense, keep, self.n)
            self._exact_direct = True
            self.iteration_cap = 1
            return

        if _graph_cache is None:
            tails, heads, weights = _matrix_graph(a)
            if np.any(weights < 0):
                raise GraphError("matrix has positive off-diagonal entries; not SDD")
            _graph_cache = _tree_cache(WeightedGraph(self.n, np.column_stack([tails, heads])),
                                       weights)
        parent, depth, roots, tree_w, nc, labels = _graph_cache
        self.n_components = int(nc)
        self.component = np.asarray(labels)
        self._comp_index = [np.flatnonzero(self.component == c) for c in range(self.n_components)]
        self._roots = roots

        if preconditioner == "direct":
            self._precond = _DirectPreconditioner(a, roots, self.is_laplacian, diag)
        else:
            tree_diag = np.maximum(rowsum, 0.0)  # diagonal excess of strictly SDD rows
            nonroot = np.flatnonzero(parent >= 0)
            np.add.at(tree_diag, nonroot, tree_w[nonroot])
            np.add.at(tree_diag, parent[nonroot], tree_w[nonroot])
            if self.is_laplacian:
                tree_diag[roots] += np.maximum(diag[roots], 1.0)  # ground each component root
            self._precond = _TreePreconditioner(self.n, parent, depth, tree_w, tree_diag, diag)

        u_diag = diag.max() / diag.min()
        kappa_est = 4.0 * self.n ** 2 * u_diag
        self.iteration_cap = iteration_cap if iteration_cap is not None else int(20 * np.sqrt(kappa_est) + 1000)

    @classmethod
    def for_graph(cls, g: WeightedGraph, conductance, tolerance=1e-8, iteration_cap=None,
                  preconditioner="tree"):
        """Laplacian handle reusing the graph's cached BFS tree and components."""
        conductance = np.asarray(conductance, dtype=float)
        return cls(g.laplacian_csr(conductance), tolerance=tolerance,
                   iteration_cap=iteration_cap, preconditioner=preconditioner,
                   _graph_cache=_tree_cache(g, conductance))

    def rebind(self, matrix):
        """Cheap handle for a same-structure matrix, reusing this handle's
        preconditioner (lagged preconditioning).  Solves run through PCG even
        below the dense cutoff, since the factorization is of the old matrix.
        """
        if isinstance(matrix, SparseLaplacian):
            matrix = matrix.matrix
        clone = object.__new__(SolverHandle)
        clone.__dict__.update(self.__dict__)
        clone.matrix = sp.csr_matrix(matrix).astype(float)
        clone.diag = clone.matrix.diagonal()
        clone._exact_direct = False
        if self._dense is not None:
            clone.iteration_cap = max(int(self.iteration_cap), 40 * self.n + 1000)
        return clone

    # -- helpers ---------------------------------------------------------------

    def _precondition(self, y):
        return self._precond.apply(y)

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

    def solve(self, b, delta=None, x0=None, anorm2_floor=0.0):
        """Solve A x = b with ``|x - A^+ b|_A <= delta * |A^+ b|_A``.

        Raises SolverConvergenceError (carrying the best iterate) if the
        iteration cap is reached first.
        """
        x, _ = self.solve_with_stats(b, delta=delta, x0=x0, anorm2_floor=anorm2_floor)
        return x

    def solve_with_stats(self, b, delta=None, x0=None, anorm2_floor=0.0):
        b = np.asarray(b, dtype=float)
        if self._exact_direct:
            return self._dense_solve(b)
        return self._pcg(b, delta, x0, anorm2_floor)

    def _dense_solve(self, b):
        single = b.ndim == 1
        bmat = b[:, None] if single else b
        if self.is_laplacian:
            self._check_range(bmat)
            bmat = self._project(bmat)
        keep = self._dense_keep
        x = np.zeros_like(bmat)
        x[keep] = scipy.linalg.cho_solve(self._dense, bmat[keep], check_finite=False)
        x = self._project(x)
        return (x[:, 0] if single else x), SolveStats(iterations=1)

    def _pcg(self, b, delta, x0, anorm2_floor):
        delta = self.tolerance if delta is None else float(delta)
        single = b.ndim == 1
        bmat = b[:, None] if single else b
        k = bmat.shape[1]
        if self.is_laplacian:
            self._check_range(bmat)
            bmat = self._project(bmat)

        if x0 is None:
            x = np.zeros_like(bmat)
            r = bmat.copy()
            base = np.zeros(k)
        else:
            x = np.array(x0, dtype=float).reshape(bmat.shape)
            r = bmat - self.matrix @ x
            base = 2.0 * np.einsum("ij,ij->j", x, bmat) - np.einsum("ij,ij->j", x, self.matrix @ x)
        z = self._precondition(r)
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
                    best_iterate=self._project(x[:, 0] if single else x),
                    achieved_residual=float(np.linalg.norm(r) / max(np.linalg.norm(bmat), 1e-300)),
                )
            ap = self.matrix @ p
            pap = np.einsum("ij,ij->j", p, ap)
            safe = active & (pap > 0)
            alpha = np.where(safe, gamma / np.where(pap > 0, pap, 1.0), 0.0)
            x += alpha * p
            r -= alpha * ap
            z = self._precondition(r)
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

        x = self._project(x)
        stats = SolveStats(iterations=it, achieved_estimate=float(np.sqrt(ring.sum(axis=0).max(initial=0.0))))
        return (x[:, 0] if single else x), stats


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
    """d^T L^+ d via a high-accuracy solve (delta = 1e-10)."""
    g.require_connected("optimum energy")
    d = zero_sum_demand(d, g.n)
    lap = laplacian_from_resistances(g, resistances)
    x = solve_sdd(lap.matrix, d, delta=1e-10)
    return float(d @ x)
