"""Tests of the whole-run benchmark's tracing, checks and comparison.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  The simulations
here are tiny (fat-tree k=4, 3 jobs) and run in-process.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(HERE, "..", "..", "src"), HERE]

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.online import online_fingerprint  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.schedulers import make_scheduler  # noqa: E402
from repro.simulator import MapReduceSimulator, SimulationConfig  # noqa: E402
from repro.topology.fattree import FatTreeConfig, build_fattree  # noqa: E402

SCHEDULERS = ("hit", "capacity")


def tiny_sim(scheduler: str, seed: int = 0) -> MapReduceSimulator:
    jobs = workloads.table1_jobs(
        np.random.default_rng(seed), [0.0, 0.0, 0.5], (4.0, 8.0)
    )
    return MapReduceSimulator(
        build_fattree(FatTreeConfig(k=4)),
        make_scheduler(scheduler, seed=seed),
        jobs,
        SimulationConfig(seed=seed),
    )


def fingerprint(sim: MapReduceSimulator) -> str:
    return online_fingerprint(sim.metrics.summary(), {}, sim.events_processed)


def wrapped_attributes() -> dict[tuple[int, str], object]:
    """Identity of every attribute :func:`layers.traced` may replace."""
    out = {}
    owners = [o for entries in layers.LAYERS.values() for o in entries]
    for scheduler in SCHEDULERS:
        owners.append((type(make_scheduler(scheduler)), layers.SCHEDULER_METHODS))
    for owner, attrs in owners:
        for attr in attrs:
            out[(id(owner), attr)] = vars(owner).get(attr)
    return out


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_wrappers_restore_originals(scheduler: str) -> None:
    before = wrapped_attributes()
    sim = tiny_sim(scheduler)
    with layers.traced(sim):
        assert wrapped_attributes() != before
        sim.run()
    assert wrapped_attributes() == before


def test_wrappers_restored_after_error() -> None:
    before = wrapped_attributes()
    with pytest.raises(RuntimeError):
        with layers.traced(tiny_sim("hit")):
            raise RuntimeError("boom")
    assert wrapped_attributes() == before


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_traced_run_matches_untraced(scheduler: str) -> None:
    plain = tiny_sim(scheduler)
    plain.run()
    traced = tiny_sim(scheduler)
    with layers.traced(traced):
        traced.run()
    assert fingerprint(traced) == fingerprint(plain)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_self_times_sum_to_root(scheduler: str, tmp_path) -> None:
    sim = tiny_sim(scheduler)
    with layers.traced(sim) as recorder:
        sim.run()
    self_s = recorder.layer_self_s()
    assert all(v >= 0 for v in self_s.values())
    root = recorder.root_wall_s()
    assert root > 0
    assert abs(sum(self_s.values()) - root) <= 0.01 * root
    metrics = layers.layer_metrics(recorder, sim)
    assert set(metrics) | {"trace.overhead_frac"} == set(run.LAYER_UNITS)
    if scheduler == "capacity":
        assert metrics["matching.calls"] == metrics["preference.build_calls"] == 0
    else:
        assert metrics["matching.calls"] > 0
        assert 0 < metrics["matching.proposal_frac"] <= 1
    path = tmp_path / "trace.json"
    recorder.write_chrome_trace(str(path))
    trace = json.loads(path.read_text())
    assert validate_chrome_trace(trace) == []
    assert trace["traceEvents"][1]["name"] == "MapReduceSimulator.run"


def test_check_runs_flags_disagreement() -> None:
    ok = {
        "status": "ok",
        "submitted": 3,
        "completed": 3,
        "rejected": 0,
        "queued": 0,
        "unfinished": 0,
        "fingerprint": "a",
    }
    assert run.check_runs([ok, dict(ok)], None) == []
    failures = run.check_runs([ok, dict(ok, fingerprint="b")], None)
    assert failures == ["timed runs disagree: 2 fingerprints"]
    lost = dict(ok, completed=2, unfinished=1)
    assert "!= submitted 3" in run.check_runs([lost], None)[0]


def test_benchmark_json_matches_catalogue() -> None:
    with open(os.path.join(HERE, "..", "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        workloads.WORKLOADS.items()
    )
    for metric in spec["end_to_end"]:
        assert metric["name"] in run.HOST_METRICS
        unit, better, bound = run.END_TO_END[metric["name"]]
        assert (metric["unit"], metric["better"], metric["bound"]) == (unit, better, bound)
    assert {m["name"] for m in spec["per_layer"]} == set(run.LAYER_UNITS)
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.LAYER_UNITS[metric["name"]]


# ------------------------------------------------------------------ compare
def stat(value: float, spread: float = 0.02) -> dict[str, float]:
    half = value * spread / 2
    return {
        "value": value,
        "n": 5,
        "q1": value - half,
        "q3": value + half,
        "min": value - 2 * half,
        "max": value + 2 * half,
    }


def report(wall_s: float = 10.0, spread: float = 0.02) -> dict:
    metrics = {
        "wall_s": stat(wall_s, spread),
        "us_per_event": stat(wall_s * 100, spread),
        "setup_s": stat(0.25),
        "peak_rss_mb": stat(250.0),
        "sim_jct_p50": stat(1.5, 0.0),
        "sim_jct_p80": stat(3.2, 0.0),
        "sim_shuffle_cost": stat(1100.0, 0.0),
        "job_fail_frac": stat(0.0, 0.0),
    }
    return {"workloads": {"ft16-hit-batch": {"fingerprint": "f", "metrics": metrics}}}


def verdicts(rows: list[dict]) -> dict[str, str]:
    return {r["metric"]: r["verdict"] for r in rows}


def test_compare_identical_is_unchanged() -> None:
    rows, flags = compare.compare(report(), report())
    assert flags == []
    assert set(verdicts(rows).values()) == {"unchanged"}


def test_compare_flags_wall_regression_past_bound() -> None:
    bound = run.END_TO_END["wall_s"][2]
    rows, flags = compare.compare(report(10.0), report(10.0 * (1 + bound + 0.05)))
    assert verdicts(rows)["wall_s"] == "regressed"
    assert any("wall_s regressed" in f for f in flags)
    rows, flags = compare.compare(report(10.0), report(10.0 * (1 + bound - 0.05)))
    assert verdicts(rows)["wall_s"] == "unchanged"
    assert flags == []


def test_compare_wide_spread_is_unresolved() -> None:
    wide = run.END_TO_END["wall_s"][2] + 0.1
    rows, _ = compare.compare(report(10.0, spread=wide), report(12.0, spread=wide))
    assert verdicts(rows)["wall_s"] == "unresolved"
    # Every new run beats every base run: resolved despite the spread.
    rows, _ = compare.compare(report(10.0, spread=wide), report(4.0, spread=wide))
    assert verdicts(rows)["wall_s"] == "improved"


def test_compare_flags_fail_frac_rise_and_fingerprint() -> None:
    worse = report()
    entry = worse["workloads"]["ft16-hit-batch"]
    entry["fingerprint"] = "g"
    entry["metrics"]["job_fail_frac"] = stat(0.1, 0.0)
    rows, flags = compare.compare(report(), worse)
    assert verdicts(rows)["job_fail_frac"] == "regressed"
    assert any("fingerprint" in f for f in flags)
    assert any("job_fail_frac" in f for f in flags)
    assert compare.compare(report(), copy.deepcopy(report()))[1] == []
