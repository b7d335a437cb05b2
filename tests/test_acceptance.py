"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 10 is a non-binding scaling smoke test: it reports a
log-log slope and asserts nothing beyond successful completion.
"""

import json
import math
import time

import numpy as np
import pytest

from sepflow import (GroupedFlowProblem, RunConfig, SparseLaplacian, SparsifierPlan,
                     WeightedGraph, approx_max_flow, approx_schur, build_sparsified_instance,
                     convert_flow, cut_certificate, edge_congestions, electrical_flow,
                     exact_max_flow_oracle, exact_schur, grid_graph, grid_r_division,
                     group_congestions, grouped_flow, mwu_parameters,
                     one_step_vertex_sparsify, oracle_edge_weights, partition_from_groups,
                     random_capacity_grid, recursive_vertex_sparsify, residual_of_vector,
                     route_fixed_flow, separator_tree_for_grid_block, st_demand)
from sepflow.grids import GridSpec

from conftest import (dense_electrical, gen_eig_range, partial_elimination_schur,
                      random_connected_graph)


def report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}{' - ' + extra if extra else ''}")
    assert ok, f"criterion {number} ({name}) failed: {extra}"


def test_criterion_01_approximation_guarantee():
    """Flow value >= (1 - eps) * exact max flow on 20 seeded instances."""
    eps = 0.1
    t_start = time.time()
    instances = []
    for i, size in enumerate([8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32]):
        instances.append((size, size, 1, 100 + i))
    for seed in (201, 202, 203):
        instances.append((12, 12, 2, seed))
    for size, seed in ((8, 301), (12, 302), (16, 303), (20, 304)):
        instances.append((size, size, 1, seed))
    assert len(instances) == 20

    worst = np.inf
    for rows, cols, layers, seed in instances:
        g = random_capacity_grid(rows, cols, layers, seed=seed)
        part = grid_r_division(rows, cols, layers, 32, terminals=(0, g.n - 1), graph=g)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        res = approx_max_flow(g, part, None, 0, g.n - 1, eps,
                              RunConfig(eps=eps, r=32, seed=seed))
        assert edge_congestions(res.flow, g.capacity).max() <= 1 + 1e-9
        ratio = res.value / exact
        worst = min(worst, ratio)
        assert res.value >= (1 - eps) * exact - 1e-6, (
            f"{rows}x{cols}x{layers} seed {seed}: {res.value:.4f} < 0.9 * {exact:.4f}")
    wall = time.time() - t_start
    report(1, "approximation guarantee", True,
           f"worst ratio {worst:.4f}, wall {wall:.0f}s")


def test_criterion_02_pivot_identity(rng):
    """d^T L^+ d == d_bdry^T L_schur^+ d_bdry for boundary-supported demands."""
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(5, 21))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        lap = SparseLaplacian(g.laplacian_csr(1.0 / g.weight))
        nb = int(rng.integers(2, n))
        bdry = np.sort(rng.choice(n, size=nb, replace=False))
        d = np.zeros(n)
        vals = rng.normal(size=nb)
        d[bdry] = vals - vals.mean()
        full = d @ (np.linalg.pinv(lap.dense()) @ d)
        schur = exact_schur(lap, bdry).dense()
        small = d[bdry] @ (np.linalg.pinv(schur) @ d[bdry])
        rel = abs(full - small) / max(abs(full), 1e-300)
        worst = max(worst, rel)
        assert rel <= 1e-7
    report(2, "pivot identity", True, f"worst relative error {worst:.2e}")


def test_criterion_03_schur_correctness(rng):
    """Exact Schur vs partial elimination; approx Schur spectral sandwich."""
    worst_entry, lo_w, hi_w = 0.0, 1.0, 1.0
    for _ in range(200):
        n = int(rng.integers(5, 16))
        g = random_connected_graph(rng, n, int(rng.integers(0, n)))
        lap = SparseLaplacian(g.laplacian_csr(1.0 / g.weight))
        nb = int(rng.integers(2, max(n - 1, 3)))
        bdry = np.sort(rng.choice(n, size=nb, replace=False))
        ours = exact_schur(lap, bdry).dense()
        ref = partial_elimination_schur(lap.dense(), bdry)
        scale = max(np.abs(ref).max(), 1e-300)
        worst_entry = max(worst_entry, np.abs(ours - ref).max() / scale)
        assert np.abs(ours - ref).max() <= 1e-9 * scale

        if n - nb >= 1:
            approx = approx_schur(lap, bdry, 0.1).dense()
            lo, hi = gen_eig_range(approx, ours)
            lo_w, hi_w = min(lo_w, lo), max(hi_w, hi)
            assert 0.9 - 1e-6 <= lo and hi <= 1.1 + 1e-6
    report(3, "Schur correctness", True,
           f"worst entry {worst_entry:.2e}, eigen range [{lo_w:.6f}, {hi_w:.6f}]")


def test_criterion_04_vertex_sparsifiers(rng):
    """One-step and recursive sparsifiers stay in the (1 +- eps) sandwich."""
    eps = 0.3
    ok_one, ok_rec = 0, 0
    total = 50
    for i in range(total):
        rows = int(rng.integers(3, 9))
        cols = int(rng.integers(3, 9))
        g = grid_graph(max(rows, 2), max(cols, 2))
        lap = SparseLaplacian(g.laplacian_csr(np.ones(g.m)))
        spec = GridSpec(max(rows, 2), max(cols, 2))
        nrows, ncols = spec.rows, spec.cols
        if rng.random() < 0.5:
            bdry = np.array([v for v in range(g.n)
                             if v // ncols in (0, nrows - 1) or v % ncols in (0, ncols - 1)])
        else:
            bdry = np.arange(ncols)  # one side
        tree = separator_tree_for_grid_block(spec, np.arange(g.n), g=g)
        exact = exact_schur(lap, bdry).dense()

        vs1 = one_step_vertex_sparsify(lap, bdry, eps, seed=1000 + i)
        vs1.validate()
        lo, hi = gen_eig_range(vs1.laplacian.dense(), exact)
        ok_one += bool(1 - eps <= lo and hi <= 1 + eps)
        assert vs1.laplacian.num_edges <= vs1.edge_budget()

        vs2 = recursive_vertex_sparsify(lap, bdry, tree, eps, seed=2000 + i)
        vs2.validate()
        lo, hi = gen_eig_range(vs2.laplacian.dense(), exact)
        ok_rec += bool(1 - eps <= lo and hi <= 1 + eps)
        assert vs2.laplacian.num_edges <= vs2.edge_budget()
    assert ok_one >= 0.9 * total and ok_rec >= 0.9 * total
    report(4, "vertex sparsifiers", True,
           f"one-step {ok_one}/{total}, recursive {ok_rec}/{total} in sandwich")


def test_criterion_05_electrical_flow_contract(rng):
    """Demand exactness, near-optimal energy, per-edge energy proximity."""
    delta = 1e-3
    worst_gap, worst_dev = 0.0, 0.0
    for _ in range(200):
        n = int(rng.integers(4, 31))
        g = random_connected_graph(rng, n, int(rng.integers(0, 2 * n)))
        d = rng.normal(size=n)
        d -= d.mean()
        res = electrical_flow(g, d, delta)
        fbar, _, eopt = dense_electrical(g, d)
        assert np.abs(residual_of_vector(res.flow, g) - d).max() <= 1e-9 * max(np.abs(d).max(), 1)
        assert res.energy <= (1 + delta) * eopt + 1e-12
        dev = np.abs(g.resistance * fbar**2 - g.resistance * res.flow**2).sum()
        assert dev <= delta * eopt + 1e-12
        worst_gap = max(worst_gap, res.energy / eopt - 1)
        worst_dev = max(worst_dev, dev / max(eopt, 1e-300))
    report(5, "electrical flow contract", True,
           f"worst energy gap {worst_gap:.2e}, worst deviation {worst_dev:.2e} (delta {delta})")


def planted_witness_instance(rows, cols, r, amount, seed):
    g0 = grid_graph(rows, cols)
    part = grid_r_division(rows, cols, 1, r, terminals=(0, g0.n - 1), graph=g0)
    w = np.ones(g0.m)
    g = WeightedGraph(g0.n, g0.edges, weight=w)
    ef = electrical_flow(g, st_demand(g.n, 0, g.n - 1, 1.0), 1e-8, resistances=w)
    cong = group_congestions(ef.flow, w, part.groups)
    d = st_demand(g.n, 0, g.n - 1, amount / cong.max())
    return g, part, w, d


def test_criterion_06_grouped_flow():
    """Planted-witness instances: output congestion <= 1 + 10 eps, invariants hold."""
    eps = 0.1
    for rows, cols, r, seed in ((4, 4, 8, 1), (6, 6, 12, 2), (8, 8, 16, 3)):
        g, part, w, d = planted_witness_instance(rows, cols, r, 0.8, seed)
        _, n_iter = mwu_parameters(part.k, eps)
        res = grouped_flow(GroupedFlowProblem(g, part.groups, d, eps), runtime_checks=True)
        assert res.status == "ok"
        assert res.diagnostics.max_group_congestion <= 1 + 10 * eps
        assert res.diagnostics.iterations <= n_iter

    # single strict run on the 4x4 instance: full budget, formula width
    g, part, w, d = planted_witness_instance(4, 4, 8, 0.8, 4)
    _, n_iter = mwu_parameters(part.k, eps)
    t0 = time.time()
    res = grouped_flow(GroupedFlowProblem(g, part.groups, d, eps), strict=True,
                       runtime_checks=True)
    wall = time.time() - t0
    assert res.status == "ok"
    assert not res.diagnostics.early_exit
    assert res.diagnostics.iterations == n_iter
    assert res.diagnostics.max_group_congestion <= 1 + 10 * eps
    report(6, "grouped flow", True,
           f"strict run {res.diagnostics.iterations} iterations in {wall:.0f}s, "
           f"final congestion {res.diagnostics.max_group_congestion:.4f}")


def test_criterion_07_conversion(rng):
    """Group congestion inflates by at most (1 + 3 eps) across conversion."""
    eps = 0.1
    worst = 0.0
    for i in range(50):
        rows = int(rng.integers(3, 6))
        cols = int(rng.integers(3, 6))
        g = grid_graph(rows, cols)
        w = rng.uniform(0.5, 2.0, g.m)
        gw = WeightedGraph(g.n, g.edges, weight=w)
        lap = SparseLaplacian(gw.laplacian_csr(1.0 / w))
        corners = np.array([0, cols - 1, (rows - 1) * cols, rows * cols - 1])
        vs = one_step_vertex_sparsify(lap, corners, eps, seed=3000 + i)
        t, h, c = vs.laplacian.edge_list()
        quotient = WeightedGraph(corners.size, np.column_stack([t, h]), weight=1.0 / c)
        vals = rng.normal(size=corners.size)
        vals -= vals.mean()
        f_src = electrical_flow(quotient, vals, 1e-8, resistances=quotient.weight).flow
        f_dst = convert_flow(quotient, [np.arange(quotient.m)], gw, [np.arange(g.m)],
                             f_src, eps, src_vertex_map=corners)
        c_src = group_congestions(f_src, quotient.weight, [np.arange(quotient.m)])[0]
        c_dst = group_congestions(f_dst, w, [np.arange(g.m)])[0]
        inflation = c_dst / max(c_src, 1e-300)
        worst = max(worst, inflation)
        assert inflation <= (1 + 3 * eps) + 1e-6
        # energy against the dense optimum on the destination side
        d_full = np.zeros(g.n)
        d_full[corners] = vals
        _, _, e_opt = dense_electrical(gw, d_full, resistances=w)
        assert c_dst**2 <= (1 + eps) * e_opt + 1e-9
    report(7, "conversion", True, f"worst inflation {worst:.4f} <= {1 + 3 * eps}")


def test_criterion_08_cut_certificate():
    """Certificates from 20 infeasible instances; weak duality via the sweep."""
    cases = []
    for i in range(8):  # paths of unit edges, demand 2x the unit bottleneck
        n = 3 + i
        g = WeightedGraph(n, [(j, j + 1) for j in range(n - 1)], capacity=np.ones(n - 1))
        part = partition_from_groups(g, [np.arange(g.m)], r=16, terminals=(0, n - 1))
        cases.append((g, part, 2.0, 0.05))
    for i in range(12):  # grids with demand far beyond the exact max flow
        size = 5 + (i % 4)
        g = random_capacity_grid(size, size, seed=400 + i)
        part = grid_r_division(size, size, 1, 16, terminals=(0, g.n - 1), graph=g)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        cases.append((g, part, 4.0 * exact, (0.1, 0.05, 0.02)[i % 3]))
    assert len(cases) == 20

    worst_grad, worst_dval = 0.0, np.inf
    for g, part, amount, eps in cases:
        res, fail_ctx = route_fixed_flow(g, part, None, 0, g.n - 1, amount, eps,
                                         RunConfig(eps=eps, seed=7))
        assert fail_ctx is not None, "expected the oracle to fail on an infeasible demand"
        inst, fail, d = fail_ctx
        cert = cut_certificate(inst, fail, eps)
        worst_grad = max(worst_grad, cert.gradient_capacity)
        worst_dval = min(worst_dval, cert.demand_value - (1 - 10 * eps))
        assert cert.gradient_capacity <= 1 + 1e-8
        assert cert.demand_value >= 1 - 10 * eps - 1e-8
        feas = approx_max_flow(g, part, None, 0, g.n - 1, 0.1, RunConfig(eps=0.1, seed=8))
        assert cert.cut_capacity >= feas.value - 1e-9  # weak duality
    report(8, "cut certificate", True,
           f"max gradient capacity {worst_grad:.6f}, min demand-value margin {worst_dval:.4f}")


def test_criterion_09_determinism(tmp_path, monkeypatch):
    """Identical JSON (timings aside) and flow vectors across thread settings."""
    from sepflow.cli import main

    outputs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("SEPFLOW_THREADS", threads)
        jpath = tmp_path / f"res{threads}.json"
        fpath = tmp_path / f"flow{threads}.csv"
        code = main(["maxflow", "--grid", "8x8", "--random-capacities", "--seed", "21",
                     "--r", "32", "--json", str(jpath), "--emit-flow", str(fpath)])
        assert code == 0
        payload = json.loads(jpath.read_text())
        payload.pop("timings")
        outputs.append((payload, fpath.read_bytes()))
    assert outputs[0] == outputs[1]
    report(9, "determinism", True, "identical JSON and flow vectors across SEPFLOW_THREADS")


def test_criterion_10_scaling_smoke():
    """Non-binding: wall time vs m on a grid sweep with a fixed probe budget."""
    config_kwargs = dict(max_outer_iterations=6, max_probes=4)
    sizes = [16, 32, 64, 128]
    rows = []
    for size in sizes:
        g = random_capacity_grid(size, size, seed=size)
        r = max(4, int(round(g.m ** 0.4)))
        part = grid_r_division(size, size, 1, r, terminals=(0, g.n - 1), graph=g)
        t0 = time.time()
        res = approx_max_flow(g, part, None, 0, g.n - 1, 0.1,
                              RunConfig(eps=0.1, r=r, seed=size, **config_kwargs))
        wall = time.time() - t0
        rows.append((size, g.m, r, wall, res.value))
        print(f"  smoke grid {size}x{size}: m={g.m} r={r} wall={wall:.2f}s value={res.value:.3f}")
    logm = np.log([m for _, m, _, _, _ in rows])
    logt = np.log([t for _, _, _, t, _ in rows])
    slope = float(np.polyfit(logm, logt, 1)[0])
    report(10, "scaling smoke (non-binding)", True,
           f"log-log wall-time slope {slope:.2f} over m in "
           f"{[m for _, m, _, _, _ in rows]} (m^1.2 trend would be 1.2)")
