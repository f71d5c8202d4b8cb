"""Chaos harness: the survivability contract over randomized campaigns.

The headline test is the acceptance gate: 52 seeded randomized timelines
(correlated domains, link faults and degradations, partition trials every
4th seed) across 2 topologies × 2 schedulers, each rerun for byte-identity,
with zero contract violations.
"""

import json

import pytest

from repro.experiments.configs import build_fabric
from repro.faults.chaos import (
    ChaosConfig,
    ChaosReport,
    ChaosTrialResult,
    run_chaos,
    run_chaos_trial,
    sample_chaos_timeline,
)
from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimTimeStall, SimulationConfig


class TestSurvivabilityCampaign:
    def test_52_trials_zero_violations(self):
        report = run_chaos(ChaosConfig(trials=52, seed=0))
        assert len(report.trials) == 52
        assert report.violations == [], [
            (t.trial, t.violations) for t in report.violations
        ]
        # The campaign must actually exercise the whole grid...
        grids = {(t.scheduler, t.topology) for t in report.trials}
        assert grids == {
            (s, t) for s in ("capacity", "hit") for t in ("small", "deep")
        }
        # ...and actual fault activity, including partition trials.
        assert sum(t.num_specs for t in report.trials) > 0
        assert any(t.allow_partition for t in report.trials)
        fired = set()
        for t in report.trials:
            fired.update(t.counters)
        assert "faults.link_fail" in fired or "faults.link_degrade" in fired
        assert "faults.domain_fail" in fired

    def test_multipath_fabrics_zero_violations(self):
        """Fat-tree and VL2 reroute around outages over many equal-cost
        paths, unlike the default redundancy-2 trees; the contract must
        hold there too."""
        report = run_chaos(
            ChaosConfig(trials=16, seed=0, topologies=("fattree", "fig8b-vl2"))
        )
        per_fabric = {}
        for t in report.trials:
            per_fabric[t.topology] = per_fabric.get(t.topology, 0) + 1
        assert per_fabric == {"fattree": 8, "fig8b-vl2": 8}
        assert report.violations == [], [
            (t.trial, t.violations) for t in report.violations
        ]

    def test_report_canonical_and_stable(self):
        a = run_chaos(ChaosConfig(trials=4, seed=7, rerun=False))
        b = run_chaos(ChaosConfig(trials=4, seed=7, rerun=False))
        assert a.canonical() == b.canonical()
        doc = json.loads(a.canonical())
        assert doc["summary"]["trials"] == 4
        assert len(doc["trials"]) == 4


class TestNoFaultByteIdentity:
    def test_chaos_engine_matches_plain_engine(self, small_tree):
        """The chaos harness's stall limit never trips on a fault-free run,
        so the run matches the default config: same metrics, same event
        count, byte for byte."""

        def run(config):
            jobs = WorkloadGenerator(
                seed=5, input_size_range=(2.0, 4.0)
            ).make_workload(3, interarrival=0.5)
            sim = MapReduceSimulator(
                small_tree, make_scheduler("hit", seed=5), jobs, config
            )
            metrics = sim.run()
            return metrics.summary(), sim.events_processed

        plain = run(SimulationConfig(seed=5))
        chaos = run(SimulationConfig(seed=5, stall_limit=20_000))
        assert plain == chaos


class TestWatchdogAndFailures:
    def test_watchdog_trips_on_stall(self, small_tree):
        """An absurdly low stall limit must trip on any real run — proving
        the engine's liveness check is live."""
        jobs = WorkloadGenerator(
            seed=5, input_size_range=(2.0, 4.0)
        ).make_workload(2, interarrival=0.5)
        sim = MapReduceSimulator(
            small_tree,
            make_scheduler("capacity", seed=5),
            jobs,
            SimulationConfig(seed=5, stall_limit=0),
        )
        with pytest.raises(SimTimeStall):
            sim.run()

    def test_retry_exhaustion_is_accounted_not_violation(self):
        """With a zero retry budget under heavy faults, the run aborts with
        the engine's explicit reason — an accounted failure, not a
        contract violation."""
        failures = 0
        for seed in range(10):
            trial = run_chaos_trial(
                0,
                scheduler="capacity",
                topology="small",
                seed=seed,
                max_task_retries=0,
                rerun=True,
            )
            assert trial.violations == ()
            if trial.status == "failed":
                failures += 1
                assert trial.reason.startswith("RetryBudgetExceeded: ")
        assert failures > 0, "some seed must exhaust a zero retry budget"


class TestTimelineSampling:
    def test_deterministic(self):
        topo = build_fabric("small")
        a = sample_chaos_timeline(topo, seed=12)
        b = sample_chaos_timeline(topo, seed=12)
        assert a == b

    def test_seeds_vary_fault_mix(self):
        topo = build_fabric("small")
        mixes = {
            frozenset(s.kind for s in sample_chaos_timeline(topo, seed=seed))
            for seed in range(12)
        }
        assert len(mixes) > 1


class TestConfigValidation:
    def test_rejects_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown chaos topologies"):
            ChaosConfig(topologies=("möbius",))

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError, match="trials"):
            ChaosConfig(trials=0)

    def test_report_summary_counts(self):
        report = ChaosReport(config=ChaosConfig())
        assert report.summary() == {
            "trials": 0,
            "ok": 0,
            "failed_accounted": 0,
            "violations": 0,
        }

    def test_failed_accounted_excludes_violating_failures(self):
        """A failed trial that carries violations is not an accounted
        failure — one definition for the campaign and the sweep cell."""

        def trial(i, status, violations=()):
            return ChaosTrialResult(
                trial=i,
                seed=i,
                scheduler="capacity",
                topology="small",
                allow_partition=False,
                num_specs=0,
                status=status,
                reason="" if status == "ok" else "Boom: x",
                fingerprint="",
                violations=violations,
            )

        report = ChaosReport(
            config=ChaosConfig(),
            trials=[
                trial(0, "ok"),
                trial(1, "failed"),
                trial(2, "failed", ("unaccounted failure: Boom: x",)),
            ],
        )
        assert report.summary() == {
            "trials": 3,
            "ok": 1,
            "failed_accounted": 1,
            "violations": 1,
        }
