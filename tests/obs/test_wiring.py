"""End-to-end wiring: hooks, CLI flags, and env-var activation.

The headline property: with a raise-mode checker installed, every scheduler
in the zoo completes a full simulation without tripping a single invariant.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.mapreduce import WorkloadGenerator
from repro.obs import InvariantChecker, Tracer, observe
from repro.obs.runtime import STATE, install, uninstall
from repro.schedulers import make_scheduler
from repro.simulator import SimulationConfig, run_simulation
from repro.topology import TreeConfig, build_tree

ZOO = (
    "capacity", "capacity-ecmp", "pna", "hit", "hit-online", "random",
    "rackpack",
)


def small_run(scheduler_name: str):
    topology = build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )
    jobs = WorkloadGenerator(
        seed=3, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(3, interarrival=0.5)
    return run_simulation(
        topology,
        make_scheduler(scheduler_name, seed=3),
        jobs,
        SimulationConfig(seed=3),
    )


@pytest.fixture(autouse=True)
def clean_state():
    """Never leak observability state between tests."""
    yield
    uninstall()


@pytest.mark.parametrize("scheduler_name", ZOO)
def test_full_run_holds_all_invariants(scheduler_name):
    checker = InvariantChecker(mode="raise")
    with observe(checker=checker):
        small_run(scheduler_name)
    assert checker.violations == []
    assert checker.checks_run > 0  # the hooks actually fired


def test_tracer_counters_cover_all_subsystems():
    tracer = Tracer()
    with observe(tracer=tracer):
        small_run("hit")
    counters = tracer.counters
    assert counters.get("alg1.optimal_path", 0) > 0
    assert counters.get("alg2.proposals", 0) > 0
    assert counters.get("alg2.match", 0) > 0
    assert any(name.startswith("sim.event.") for name in counters)
    assert tracer.timers["sim.dispatch"].calls > 0
    assert tracer.timers["alg1.optimal_path"].calls > 0


def test_disabled_state_runs_untracked():
    assert STATE.enabled is False
    metrics = small_run("hit")
    assert metrics.jobs  # ran fine with the hooks compiled out


def test_observe_restores_previous_state():
    outer = InvariantChecker(mode="collect")
    install(checker=outer)
    inner = InvariantChecker(mode="raise")
    with observe(checker=inner):
        assert STATE.checker is inner
    assert STATE.checker is outer
    uninstall()
    assert STATE.enabled is False


def test_tracer_only_scope_keeps_the_installed_checker():
    """A scope that names one slot leaves the other as installed (an
    environment checker keeps checking under a tracer-only scope), and
    both slots come back on exit; ``None`` empties a slot."""
    checker, tracer = InvariantChecker(mode="raise"), Tracer()
    install(checker=checker)
    inner = Tracer()
    with observe(tracer=inner):
        assert STATE.checker is checker and STATE.tracer is inner
        with observe(checker=None):
            assert STATE.checker is None and STATE.tracer is inner
        assert STATE.checker is checker and STATE.tracer is inner
    assert STATE.checker is checker and not STATE.tracer.enabled
    install(tracer=tracer)
    assert STATE.checker is checker and STATE.tracer is tracer
    with observe(checker=InvariantChecker(mode="collect"), tracer=None):
        assert not STATE.tracer.enabled
    assert STATE.checker is checker and STATE.tracer is tracer


def test_observation_does_not_change_results():
    baseline = small_run("hit").summary()
    with observe(checker=InvariantChecker(mode="raise"), tracer=Tracer()):
        observed = small_run("hit").summary()
    assert observed == baseline


class TestCli:
    def test_check_invariants_flag_reports_none(self, capsys):
        assert main([
            "simulate", "--jobs", "2", "--scheduler", "hit", "random",
            "--check-invariants",
        ]) == 0
        assert "invariant violations: none" in capsys.readouterr().out

    def test_optimize_check_invariants(self, capsys):
        assert main([
            "optimize", "--jobs", "2", "--scheduler", "hit",
            "--check-invariants",
        ]) == 0
        assert "invariant violations: none" in capsys.readouterr().out

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([
            "simulate", "--jobs", "2", "--scheduler", "hit",
            "--trace", str(trace),
        ]) == 0
        assert "trace written" in capsys.readouterr().out
        records = [
            json.loads(l) for l in trace.read_text().splitlines() if l.strip()
        ]
        kinds = {r["ev"] for r in records}
        assert {"event", "span", "summary"} <= kinds
        summary = [r for r in records if r["ev"] == "summary"][-1]
        assert summary["counters"].get("alg1.optimal_path", 0) > 0


def test_env_var_activation(tmp_path):
    """The env switches install at import AND survive the CLI's own
    ``observe()`` scope (the command must re-install, not shadow, them)."""
    trace = tmp_path / "env_trace.jsonl"
    code = (
        "from repro.obs.runtime import STATE\n"
        "assert STATE.enabled, 'checker not installed from env'\n"
        "assert STATE.checker is not None and STATE.checker.mode == 'raise'\n"
        "assert STATE.tracer.enabled, 'tracer not installed from env'\n"
        "from repro.cli import main\n"
        "raise SystemExit(main(['simulate', '--jobs', '2',"
        " '--scheduler', 'hit']))\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={
            "PYTHONPATH": str(src),
            "REPRO_CHECK_INVARIANTS": "1",
            "REPRO_TRACE": str(trace),
        },
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    records = [
        json.loads(l) for l in trace.read_text().splitlines() if l.strip()
    ]
    assert any(r["ev"] == "span" for r in records), records
    assert records[-1]["ev"] == "summary"
