"""Tests of the benchmark's own code on tiny instances: python -m pytest perfbench"""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sepflow
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY_MAXFLOW, TINY_OVERLOAD = workloads.WARM_UP


def _printed(text):
    """{name: unit} of the 'name = value unit' lines, and the final result line."""
    lines = text.strip().splitlines()
    shown = {}
    for line in lines[:-1]:
        if " = " in line and not line.startswith("#"):
            name, rest = line.split(" = ", 1)
            shown[name] = rest.split()[1]
    return shown, json.loads(lines[-1])


def _report(workload, trace, tmp_path):
    if trace:
        passes, metrics, tracer = run.run_traced(workload, seed=1)
    else:
        passes, metrics, tracer = run.run_untraced(workload, seed=1, seconds=0)
    out = io.StringIO()
    result = run.report(workload, 1, trace, passes, metrics, tracer, out=out, out_dir=tmp_path)
    return out.getvalue(), result


@pytest.mark.parametrize("workload", [TINY_MAXFLOW, TINY_OVERLOAD], ids=lambda w: w.name)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload, tmp_path):
    text, result = _report(workload, 0, tmp_path)
    shown, last = _printed(text)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: shown[k] for k in wanted} == wanted
    assert last == result
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert last["correct"] is True
    assert all(v["value"] > 0 for v in last["metrics"].values())


@pytest.mark.parametrize("workload", [TINY_MAXFLOW, TINY_OVERLOAD], ids=lambda w: w.name)
def test_every_per_layer_metric_is_printed_and_counts_repeat(workload, tmp_path):
    text, result = _report(workload, 1, tmp_path)
    shown, last = _printed(text)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: shown[k] for k in wanted} == wanted
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    assert last["correct"] is True
    assert abs(last["metrics"]["trace.coverage"]["value"] - 1.0) <= 0.05

    _, again = _report(workload, 1, tmp_path)
    counts = {k: v["value"] for k, v in last["metrics"].items() if v["unit"] == "count"}
    assert counts == {k: again["metrics"][k]["value"] for k in counts}


def test_tracing_restores_the_library():
    before = (sepflow.pipeline.grouped_flow, sepflow.groupedflow.electrical_flow,
              sepflow.solver.SolverHandle.__init__)
    with tracing.traced(tracing.Tracer()):
        assert sepflow.pipeline.grouped_flow is not before[0]
    assert (sepflow.pipeline.grouped_flow, sepflow.groupedflow.electrical_flow,
            sepflow.solver.SolverHandle.__init__) == before


def test_injected_wrong_flow_counts_as_failed(monkeypatch, tmp_path):
    real = sepflow.approx_max_flow

    def doubled(*args, **kwargs):
        res = real(*args, **kwargs)
        res.flow = 2.0 * res.flow  # breaks capacity and the net flow out of s
        return res

    monkeypatch.setattr(sepflow, "approx_max_flow", doubled)
    text, result = _report(TINY_MAXFLOW, 0, tmp_path)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert result["correct"] is True  # a failed operation is counted, not hidden
    assert result["metrics"]["ok_fraction"]["value"] == 0.0
    assert "congestion" in text and "net flow out of s" in text


def test_injected_partial_flow_counts_as_failed(monkeypatch, tmp_path):
    def partial(g, part, plan, s, t, flow_amount, eps, config=None, seed=None):
        res = sepflow.approx_max_flow(g, part, plan, s, t, eps, config)
        return res, None  # a flow where a verdict was due

    monkeypatch.setattr(sepflow, "route_fixed_flow", partial)
    text, result = _report(TINY_OVERLOAD, 0, tmp_path)
    assert result["failed"] == result["attempted"] == 1
    assert "in place of a verdict" in text


def test_convergence_error_counts_as_failed(monkeypatch, tmp_path):
    def give_up(*args, **kwargs):
        raise sepflow.SolverConvergenceError("cap")

    monkeypatch.setattr(sepflow, "route_fixed_flow", give_up)
    _, result = _report(TINY_OVERLOAD, 0, tmp_path)
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["flow_ratio_min"]["value"] == 0.0


def test_self_times_on_a_hand_built_tree():
    spans = [  # id, name, start, end, parent, op
        [0, "root", 0.0, 10.0, None, 0],
        [1, "a", 1.0, 4.0, 0, 0],
        [2, "b", 5.0, 9.0, 0, 0],
        [3, "c", 6.0, 7.0, 2, 0],
        [4, "a", 7.5, 8.0, 2, 0],
        [5, "other", 11.0, 12.0, None, 1],
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5, 5: 1.0}
    totals = tracing.span_totals(spans)
    assert totals["a"] == (2, 3.5, 3.5)
    assert totals["b"] == (1, 4.0, 2.5)
    assert tracing.tree_self_sum(spans, {"root"}) == 10.0


def test_tracer_nests_spans_and_tags_operations():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))
    tr.op = 7
    outer = tr.open("outer")
    tr.close(tr.open("inner"))
    tr.close(outer)
    assert tr.spans == [[0, "outer", 0.0, 3.0, None, 7], [1, "inner", 1.0, 2.0, 0, 7]]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    cmd = SPEC["command"] + ["--workload", "grid2d-small-groups", "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
