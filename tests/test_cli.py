"""CLI smoke and behaviour tests (everything runs in-process)."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.configs import FABRICS
from repro.experiments.sweep import ARMS
from repro.schedulers import SCHEDULERS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scheduler_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scheduler", "fifo"])

    def test_choices_equal_registry_keys(self):
        """Scheduler, fabric and arm names are declared once, in their
        registries; every parser offering them reads that registry."""
        parser = build_parser()
        (commands,) = (
            a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        expected = {
            ("topology", "kind"): FABRICS,
            ("simulate", "scheduler"): SCHEDULERS,
            ("optimize", "scheduler"): SCHEDULERS,
            ("sweep", "schedulers"): SCHEDULERS,
            ("sweep", "topologies"): FABRICS,
            ("sweep", "arms"): ARMS,
            ("chaos", "schedulers"): SCHEDULERS,
            ("chaos", "topologies"): FABRICS,
            ("online", "scheduler"): SCHEDULERS,
            ("online", "topology"): FABRICS,
        }
        for (command, dest), registry in expected.items():
            (action,) = (
                a for a in commands.choices[command]._actions
                if a.dest == dest
            )
            assert set(action.choices) == set(registry), (command, dest)


class TestTopologyCommand:
    @pytest.mark.parametrize("kind", ["tree", "fattree", "vl2", "bcube"])
    def test_builds_and_prints(self, kind, capsys):
        assert main(["topology", kind]) == 0
        out = capsys.readouterr().out
        assert "Topology(" in out
        assert "switches" in out

    def test_tree_parameters_respected(self, capsys):
        main(["topology", "tree", "--depth", "3", "--fanout", "2"])
        assert "servers=8" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_prints_table(self, capsys):
        assert main(["workload", "--jobs", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "shuffle" in out

    def test_saves_trace(self, tmp_path, capsys):
        path = tmp_path / "wl.jsonl"
        main(["workload", "--jobs", "3", "--output", str(path)])
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert {"job_id", "class", "num_maps"} <= set(record)

    def test_deterministic_across_invocations(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["workload", "--jobs", "4", "--seed", "9", "--output", str(a)])
        main(["workload", "--jobs", "4", "--seed", "9", "--output", str(b)])
        assert a.read_text() == b.read_text()


class TestOptimizeCommand:
    def test_runs_with_generated_jobs(self, capsys):
        assert main([
            "optimize", "--jobs", "3", "--scheduler", "capacity", "hit",
        ]) == 0
        out = capsys.readouterr().out
        assert "capacity" in out and "hit" in out

    def test_runs_from_trace(self, tmp_path, capsys):
        path = tmp_path / "wl.jsonl"
        main(["workload", "--jobs", "2", "--output", str(path)])
        capsys.readouterr()
        assert main([
            "optimize", "--jobs-trace", str(path), "--scheduler", "rackpack",
        ]) == 0
        assert "rackpack" in capsys.readouterr().out


class TestSimulateCommand:
    def test_runs_and_saves_trace(self, tmp_path, capsys):
        prefix = tmp_path / "run"
        assert main([
            "simulate", "--jobs", "3", "--scheduler", "capacity",
            "--save-trace", str(prefix),
        ]) == 0
        out = capsys.readouterr().out
        assert "mean JCT" in out
        trace_file = tmp_path / "run.capacity.jsonl"
        assert trace_file.exists()
        records = [json.loads(l) for l in trace_file.read_text().splitlines() if l]
        kinds = {r["kind"] for r in records}
        assert {"job_submit", "job_finish", "map_finish"} <= kinds


class TestTelemetryFlags:
    def test_timeline_export_and_reports(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        prefix = tmp_path / "perfetto"
        report = tmp_path / "report.html"
        assert main([
            "simulate", "--jobs", "2", "--scheduler", "capacity", "hit",
            "--timeline", "--critical-path",
            "--export-trace", str(prefix),
            "--html-report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "critical-path attribution" in out
        assert "| scheduler |" in out  # markdown table on stdout
        for name in ("capacity", "hit"):
            trace = json.loads((tmp_path / f"perfetto.{name}.json").read_text())
            assert validate_chrome_trace(trace) == []
            # --timeline was on, so counter samples must be present.
            assert any(e["ph"] == "C" for e in trace["traceEvents"])
        html = report.read_text()
        assert "capacity" in html and "hit" in html and "<svg" in html

    def test_export_without_timeline_has_no_counters(self, tmp_path, capsys):
        prefix = tmp_path / "bare"
        assert main([
            "simulate", "--jobs", "2", "--scheduler", "capacity",
            "--export-trace", str(prefix),
        ]) == 0
        capsys.readouterr()
        trace = json.loads((tmp_path / "bare.capacity.json").read_text())
        assert not any(e["ph"] == "C" for e in trace["traceEvents"])

    def test_env_var_enables_timeline(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TIMELINE_DT", "0.2")
        prefix = tmp_path / "env"
        assert main([
            "simulate", "--jobs", "2", "--scheduler", "capacity",
            "--export-trace", str(prefix),
        ]) == 0
        capsys.readouterr()
        trace = json.loads((tmp_path / "env.capacity.json").read_text())
        assert any(e["ph"] == "C" for e in trace["traceEvents"])


class TestTracerSinkLifecycle:
    """The --trace sink must be flushed/closed on every exit path."""

    def test_failing_run_still_yields_valid_jsonl(self, tmp_path, monkeypatch):
        from repro.simulator import MapReduceSimulator

        def boom(self):
            raise RuntimeError("mid-run crash")

        monkeypatch.setattr(MapReduceSimulator, "run", boom)
        trace = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="mid-run crash"):
            main([
                "simulate", "--jobs", "2", "--scheduler", "capacity",
                "--trace", str(trace),
            ])
        lines = [l for l in trace.read_text().splitlines() if l.strip()]
        records = [json.loads(l) for l in lines]  # every line parses
        assert records, "trace file empty after crash"
        assert records[-1]["ev"] == "summary"  # close() ran on the way out

    def test_optimize_failing_run_closes_trace(self, tmp_path, monkeypatch):
        import repro.experiments

        def boom(*args, **kwargs):
            raise RuntimeError("placement crash")

        monkeypatch.setattr(
            repro.experiments, "run_static_placement", boom
        )
        trace = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError, match="placement crash"):
            main([
                "optimize", "--jobs", "2", "--scheduler", "hit",
                "--trace", str(trace),
            ])
        records = [
            json.loads(l) for l in trace.read_text().splitlines() if l.strip()
        ]
        assert records and records[-1]["ev"] == "summary"


class TestExperimentCommand:
    def test_fig3(self, capsys):
        assert main(["experiment", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "112" in out and "64" in out
