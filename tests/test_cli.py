import json

import numpy as np
import pytest

from sepflow import (SolverConvergenceError, cli, exact_max_flow_oracle, grid_r_division,
                     pipeline, random_capacity_grid, save_dimacs, save_partition)
from sepflow.cli import main


def run(argv):
    return main(argv)


class TestMaxflowCommand:
    def test_grid_run_emits_json(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run(["maxflow", "--grid", "6x6", "--random-capacities", "--eps", "0.1",
                    "--r", "16", "--seed", "7", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("flow_value", "eps", "iterations_outer", "iterations_inner_total",
                    "max_edge_congestion", "per_group_congestion_max", "timings", "seed"):
            assert key in payload
        assert payload["flow_value"] > 0
        assert payload["max_edge_congestion"] <= 1 + 1e-9
        counters = payload["counters"]
        for key in ("electrical_flows", "factorizations", "rebinds", "pcg_iterations"):
            assert key in counters
        assert counters["electrical_flows"] == counters["factorizations"] + counters["rebinds"]

    def test_dimacs_input(self, tmp_path):
        g = random_capacity_grid(5, 5, seed=2)
        gpath = tmp_path / "g.dimacs"
        save_dimacs(g, gpath, s=0, t=24)
        part = grid_r_division(5, 5, 1, 16, terminals=(0, 24), graph=g)
        ppath = tmp_path / "g.part"
        save_partition(part, ppath)
        out = tmp_path / "res.json"
        code = run(["maxflow", "--input", str(gpath), "--partition", str(ppath),
                    "--eps", "0.1", "--r", "16", "--json", str(out)])
        assert code == 0

    def test_bad_partition_exits_one(self, tmp_path, capsys):
        g = random_capacity_grid(5, 5, seed=2)
        gpath = tmp_path / "g.dimacs"
        save_dimacs(g, gpath, s=0, t=24)
        ppath = tmp_path / "bad.part"
        ppath.write_text("k 1 r 16\ng 0 0 1 2\n")  # misses most edges
        code = run(["maxflow", "--input", str(gpath), "--partition", str(ppath),
                    "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_out_of_range_dimacs_vertex_exits_one(self, tmp_path, capsys):
        gpath, ppath = tmp_path / "g.dimacs", tmp_path / "g.part"
        gpath.write_text("p max 2 1\nn 9 s\nn 2 t\na 1 2 3.0\n")
        ppath.write_text("k 1 r 16\ng 0 0\n")
        code = run(["maxflow", "--input", str(gpath), "--partition", str(ppath),
                    "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert "error: line 2" in capsys.readouterr().err

    def test_disconnected_fixed_flow_exits_one(self, tmp_path, capsys):
        # two triangles, s in one and t in the other, in one group
        gpath, ppath = tmp_path / "g.dimacs", tmp_path / "g.part"
        gpath.write_text("p max 6 6\nn 1 s\nn 6 t\na 1 2 1.0\na 2 3 1.0\na 1 3 1.0\n"
                         "a 4 5 1.0\na 5 6 1.0\na 4 6 1.0\n")
        ppath.write_text("k 1 r 16\ng 0 0 1 2 3 4 5\n")
        code = run(["maxflow", "--input", str(gpath), "--partition", str(ppath),
                    "--flow", "1", "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert "requires a connected graph" in capsys.readouterr().err

    def test_run_without_a_flow_exits_one(self, tmp_path, capsys, monkeypatch):
        def capped(*args, **kwargs):
            raise SolverConvergenceError("planted cap hit")

        monkeypatch.setattr(pipeline, "grouped_flow", capped)
        out = tmp_path / "res.json"
        code = run(["maxflow", "--grid", "6x6", "--random-capacities", "--r", "16",
                    "--json", str(out)])
        assert code == 1 and not out.exists()
        assert "no probe produced a flow" in capsys.readouterr().err

    def test_overdemand_fixed_flow_exits_two(self, tmp_path):
        out = tmp_path / "res.json"
        cut = tmp_path / "cut.txt"
        code = run(["maxflow", "--grid", "5x5", "--flow", "100", "--eps", "0.1",
                    "--seed", "1", "--json", str(out), "--emit-cut", str(cut)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert payload["status"] == "fail"
        assert payload["certificate"]["gradient_capacity"] <= 1 + 1e-8
        assert cut.exists() and cut.read_text().strip()

    def test_fixed_flow_status(self, tmp_path):
        # 12x12, capacity seed 12: at 1.02x the max flow no swept cut decides
        # the request and the phase ends short of it, which is not a success
        g = random_capacity_grid(12, 12, seed=12)
        exact = exact_max_flow_oracle(g, 0, g.n - 1).value
        for factor, code, status in ((1.02, 3, "partial"), (0.5, 0, "ok")):
            out = tmp_path / f"{status}.json"
            assert run(["maxflow", "--grid", "12x12", "--random-capacities", "--seed", "12",
                        "--r", "16", "--flow", repr(factor * exact),
                        "--json", str(out)]) == code
            payload = json.loads(out.read_text())
            assert payload["status"] == status
            assert payload["requested_flow"] == factor * exact
            if status == "partial":
                assert payload["flow_value"] < (1 - 0.1 / 3) * factor * exact

    def test_uncertified_run_exits_four(self, tmp_path):
        # 16x16 r=16: at capacity seed 4 the best flow stays below 1 - eps of
        # the least swept cut; at seed 3 it does not
        for seed, code, status in (("4", 4, "uncertified"), ("3", 0, "ok")):
            out = tmp_path / f"{status}.json"
            assert run(["maxflow", "--grid", "16x16", "--random-capacities", "--r", "16",
                        "--seed", seed, "--json", str(out)]) == code
            payload = json.loads(out.read_text())
            assert payload["status"] == status
            ratio = payload["certified_ratio"]
            assert ratio == payload["flow_value"] / payload["cut_upper_bound"]
            assert (ratio < 0.9) == (status == "uncertified")

    def test_emit_flow_and_trace(self, tmp_path, monkeypatch):
        results = []

        def recorded(fn):
            def call(*args, **kwargs):
                out = fn(*args, **kwargs)
                results.append(out[0] if isinstance(out, tuple) else out)
                return out
            return call

        monkeypatch.setattr(cli, "approx_max_flow", recorded(cli.approx_max_flow))
        monkeypatch.setattr(cli, "route_fixed_flow", recorded(cli.route_fixed_flow))
        for mode in ([], ["--flow", "1"]):
            out = tmp_path / "r.json"
            fpath = tmp_path / "flow.csv"
            tpath = tmp_path / "trace.csv"
            code = run(["maxflow", "--grid", "5x5", "--random-capacities", "--seed", "3",
                        "--r", "16", "--json", str(out), "--emit-flow", str(fpath),
                        "--trace", str(tpath)] + mode)
            assert code == 0
            flow = np.loadtxt(fpath, delimiter=",")
            assert flow.size == 40  # 5x5 grid edge count
            header, *lines = tpath.read_text().splitlines()
            assert header == "probe,outer_iteration,flow_target,best_value,max_edge_congestion"
            # one row per entry of the run's trace, every number as the run
            # holds it and an empty field for a value it does not have
            stats = results[-1].stats
            rows = [tuple(float(x) if x else None for x in line.split(",")) for line in lines]
            assert rows and rows == [tuple(None if x is None else float(x) for x in row)
                                     for row in stats.trace_rows]
            probes = {int(row[0]) for row in rows}
            assert probes <= set(range(1, stats.probes + 1))
            assert stats.probes == json.loads(out.read_text())["counters"]["probes"]
            if mode:
                assert probes == {1} and stats.probes == 1

    @pytest.mark.parametrize("mode, code", [([], 0), (["--flow", "1000"], 2)])
    def test_trace_has_a_row_per_outer_iteration(self, tmp_path, mode, code):
        # 16x16 r=16 capacity seed 3: max-flow probes end by fail certificates
        # and an inner failure, and 1000 is decided by a swept cut (exit 2)
        out, tpath = tmp_path / "r.json", tmp_path / "trace.csv"
        assert run(["maxflow", "--grid", "16x16", "--random-capacities", "--r", "16",
                    "--seed", "3", "--json", str(out), "--trace", str(tpath)] + mode) == code
        header, *lines = tpath.read_text().splitlines()
        assert header == "probe,outer_iteration,flow_target,best_value,max_edge_congestion"
        counters = json.loads(out.read_text())["counters"]
        assert len(lines) == counters["iterations_outer"]
        rows = [line.split(",") for line in lines]
        assert [int(r[0]) for r in rows] == sorted(int(r[0]) for r in rows)
        assert {int(r[0]) for r in rows} == set(range(1, counters["probes"] + 1))
        if mode:  # the swept cut ends the phase before its iterate exists
            assert rows[-1][3:] == ["", ""]

    @pytest.mark.parametrize("amount", ["-5", "0", "nan", "inf"])
    def test_unusable_flow_amount_exits_one(self, tmp_path, capsys, amount):
        out = tmp_path / "r.json"
        code = run(["maxflow", "--grid", "8x8", "--flow", amount, "--json", str(out)])
        assert code == 1 and not out.exists()
        assert "finite and positive" in capsys.readouterr().err

    def test_out_of_range_terminal_exits_one(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run(["maxflow", "--grid", "8x8", "--r", "16", "--source", "64", "--flow", "1",
                    "--json", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert "terminal 64 is not a vertex id in 0..63" in err and "Traceback" not in err

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        gpath = tmp_path / "bad.dimacs"
        gpath.write_text("p max x 1\n")
        code = run(["maxflow", "--input", str(gpath), "--json", str(tmp_path / "r.json")])
        assert code == 1
        assert "error: line 1" in capsys.readouterr().err


class TestDeterminism:
    def strip_timings(self, payload):
        payload = dict(payload)
        payload.pop("timings", None)
        return payload

    def test_same_seed_rerun_identical_json_and_flow(self, tmp_path):
        """A same-seed rerun gives identical JSON (timings aside) and flow bytes."""
        results = []
        for tag in ("a", "b"):
            out = tmp_path / f"{tag}.json"
            flow = tmp_path / f"{tag}.flow"
            code = run(["maxflow", "--grid", "6x6", "--random-capacities", "--seed", "11",
                        "--r", "16", "--json", str(out), "--emit-flow", str(flow)])
            assert code == 0
            results.append((self.strip_timings(json.loads(out.read_text())),
                            flow.read_bytes()))
        assert results[0][0] == results[1][0]
        assert results[0][1] == results[1][1]


class TestBenchCommand:
    def test_csv_shape_and_ratio(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = run(["bench", "--grids", "6,8", "--eps", "0.1", "--r", "16",
                    "--seed", "3", "--no-timing", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        header = ["instance", "n", "m", "r", "eps", "value", "exact", "ratio", "wall_time",
                  "inner_iterations", "factorizations", "pcg_iterations"]
        assert lines[0].split(",") == header
        assert len(lines) == 3
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            assert len(row) == len(header) and row["wall_time"] == "-"
            assert float(row["ratio"]) >= 1 - 0.1
            assert 0 < int(row["factorizations"]) <= int(row["inner_iterations"])
            assert int(row["pcg_iterations"]) >= 0

    def test_repeat_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert run(["bench", "--grids", "6", "--eps", "0.1", "--r", "16",
                        "--seed", "9", "--no-timing", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
