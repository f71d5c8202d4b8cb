"""The decision-provenance plane's contract: auditing never perturbs.

A simulation with ``provenance`` set must be byte-identical to the same
simulation without it — same records in the same order, same event count,
same fingerprints — across seeds and the plain / faults /
faults+speculation / online arms.  Every hook is a pure read and consumes
no randomness, so any divergence here means an emission grew a side
effect (or a guard started changing control flow).
"""

import dataclasses

import pytest

from repro.experiments.configs import build_fabric
from repro.experiments.online import (
    build_arrival_plan,
    online_fingerprint,
    online_record,
)
from repro.faults import FaultKind, FaultSpec
from repro.mapreduce import WorkloadGenerator
from repro.obs import DECISION_KINDS, REASON_CODES, ProvenanceConfig
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.speculation import SpeculationConfig
from repro.topology import TreeConfig, build_tree
from repro.workload import AdmissionConfig, generate_arrivals


def _faults(topology):
    switch = topology.switch_ids[0]
    return (
        FaultSpec(0.4, FaultKind.SERVER_FAIL, 2),
        FaultSpec(0.6, FaultKind.TASK_SLOWDOWN, 5, factor=5.0, duration=1.5),
        FaultSpec(0.8, FaultKind.SWITCH_FAIL, switch),
        FaultSpec(1.3, FaultKind.SWITCH_RECOVER, switch),
        FaultSpec(1.4, FaultKind.SERVER_RECOVER, 2),
    )


def _scenario(name, topology):
    if name == "plain":
        return {}
    extra = {"faults": _faults(topology), "max_task_retries": 10}
    if name == "faults+speculation":
        extra["speculation"] = SpeculationConfig()
    return extra


SCENARIOS = ("plain", "faults", "faults+speculation")


def _run(seed, scheduler, scenario, provenance):
    topology = build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(4, interarrival=0.3)
    config = SimulationConfig(
        seed=seed,
        server_speed_spread=0.2,
        provenance=provenance,
        **_scenario(scenario, topology),
    )
    sim = MapReduceSimulator(
        topology, make_scheduler(scheduler, seed=seed), jobs, config
    )
    metrics = sim.run()
    return sim, metrics


def _astuples(records):
    return [dataclasses.astuple(r) for r in records]


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("scheduler", ["hit-online", "capacity-ecmp"])
def test_audited_run_byte_identical(scenario, seed, scheduler):
    bare_sim, bare = _run(seed, scheduler, scenario, provenance=None)
    aud_sim, aud = _run(
        seed, scheduler, scenario, provenance=ProvenanceConfig(ring_size=256)
    )

    assert bare_sim.provenance is None
    assert aud_sim.provenance is not None
    assert aud_sim.provenance.emitted > 0, "audit produced no records"

    assert _astuples(aud.jobs) == _astuples(bare.jobs)
    assert _astuples(aud.tasks) == _astuples(bare.tasks)
    assert _astuples(aud.flows) == _astuples(bare.flows)
    assert aud_sim.events_processed == bare_sim.events_processed
    assert aud.summary() == bare.summary()


@pytest.mark.parametrize("seed", [0, 3])
def test_audited_run_fingerprint_deterministic(seed):
    a, _ = _run(seed, "hit-online", "faults+speculation",
                provenance=ProvenanceConfig())
    b, _ = _run(seed, "hit-online", "faults+speculation",
                provenance=ProvenanceConfig())
    assert a.provenance.fingerprint() == b.provenance.fingerprint()
    assert a.provenance.counters() == b.provenance.counters()


def test_record_stream_well_formed():
    sim, _ = _run(0, "hit-online", "faults+speculation",
                  provenance=ProvenanceConfig(ring_size=100_000))
    records = sim.provenance.records()
    assert len(records) == sim.provenance.emitted
    assert [r.seq for r in records] == list(range(len(records)))
    times = [r.t for r in records]
    assert times == sorted(times), "decision times must follow the clock"
    for record in records:
        assert record.kind in DECISION_KINDS
        assert record.reason in REASON_CODES
        assert record.scheduler == "hit-online"
    kinds = {r.kind for r in records}
    assert {"admission", "placement", "route", "fault", "speculation"} <= kinds


def _online_run(provenance):
    seed = 1
    topology = build_fabric("small")
    plan = build_arrival_plan(
        topology, multiplier=1.5, tenants=2, profile="poisson", duration=2.0
    )
    jobs = generate_arrivals(plan, seed=seed)
    config = SimulationConfig(
        map_slots_per_job=16,
        seed=seed,
        admission=AdmissionConfig(policy="queue-bound", queue_bound=8),
        provenance=provenance,
    )
    sim = MapReduceSimulator(
        build_fabric("small"),
        make_scheduler("hit-online", seed=seed),
        jobs,
        config,
    )
    sim.run()
    summary, counters = online_record(sim)
    return sim, online_fingerprint(summary, counters, sim.events_processed)


def test_online_arm_byte_identical():
    bare_sim, bare_print = _online_run(None)
    aud_sim, aud_print = _online_run(ProvenanceConfig(ring_size=512))

    assert aud_sim.provenance is not None
    assert aud_print == bare_print
    assert aud_sim.events_processed == bare_sim.events_processed
    # Admission verdicts are audited with the arrival plane's reason codes.
    kinds = {r.kind for r in aud_sim.provenance.records()}
    assert "admission" in kinds
