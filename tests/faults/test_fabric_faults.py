"""Switch and link faults through the engine's one fabric-fault path.

Two checks on the transition handler: a flow cut by a switch and a link at
once stays parked until both are back, and faulty runs' decision logs and
run fingerprints stay pinned.
"""

from functools import partial

import pytest

from repro.experiments.configs import build_fabric
from repro.experiments.online import online_fingerprint
from repro.faults import FaultKind, FaultSpec, generate_timeline
from repro.mapreduce import WorkloadGenerator
from repro.obs import InvariantChecker, ProvenanceConfig, observe
from repro.obs.provenance import flow_label
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig

# Single-homed servers, so one access switch or one access link cuts every
# path of a flow: the 64-host testbed tree built without its duplicate
# switch positions, and the k=4 fat-tree.
OVERLAP_FABRICS = {
    "testbed": {"name": "testbed", "redundancy": 1},
    "fattree-k4": {"name": "fattree", "k": 4},
}


def _run(fabric, scheduler, seed, faults=()):
    workload = WorkloadGenerator(
        seed=seed, input_size_range=(2.0, 4.0)
    ).make_workload(3, interarrival=0.5)
    config = SimulationConfig(
        seed=seed,
        faults=tuple(faults),
        max_task_retries=10,
        provenance=ProvenanceConfig(ring_size=1 << 16),
    )
    sim = MapReduceSimulator(
        build_fabric(fabric), make_scheduler(scheduler, seed=seed), workload,
        config,
    )
    with observe(checker=InvariantChecker(mode="raise")):
        sim.run()
    return sim, workload


def _longest_networked_flow(sim):
    """The fault-free run's longest flow that crosses a switch, with the
    route record that placed it."""
    flow = max(
        (f for f in sim.metrics.flows if f.num_switches > 0),
        key=lambda f: (f.duration, -f.flow_id),
    )
    label = flow_label(flow.map_index, flow.reduce_index)
    route = [
        r for r in sim.provenance.records()
        if r.kind == "route" and r.job == flow.job_id and r.task == label
    ][-1]
    return flow, label, route.detail["path"]


def _flow_records(sim, job, label):
    return [
        r for r in sim.provenance.records()
        if r.kind == "park" and r.job == job and r.task == label
    ]


@pytest.mark.parametrize("scheduler", ["capacity", "hit"])
@pytest.mark.parametrize("switch_first", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fabric", sorted(OVERLAP_FABRICS))
def test_switch_and_link_on_one_path(fabric, seed, switch_first, scheduler):
    """The flow parks at the first fault, stays parked when only the first
    element comes back, and resumes with the bytes it had left once the
    second does."""
    spec = OVERLAP_FABRICS[fabric]
    bare, workload = _run(spec, scheduler, seed)
    flow, label, path = _longest_networked_flow(bare)
    switch, (u, v) = path[1], (path[-2], path[-1])
    span = flow.finish - flow.start
    t1, t2 = flow.start + 0.3 * span, flow.start + 0.6 * span
    t3, t4 = t2 + 0.5, t2 + 1.0
    switch_faults = (
        partial(FaultSpec, kind=FaultKind.SWITCH_FAIL, target=switch),
        partial(FaultSpec, kind=FaultKind.SWITCH_RECOVER, target=switch),
    )
    link_faults = (
        partial(FaultSpec, kind=FaultKind.LINK_FAIL, target=u, target2=v),
        partial(FaultSpec, kind=FaultKind.LINK_RECOVER, target=u, target2=v),
    )
    first, second = (
        (switch_faults, link_faults) if switch_first
        else (link_faults, switch_faults)
    )
    timeline = [first[0](t1), second[0](t2), first[1](t3), second[1](t4)]

    sim, _ = _run(spec, scheduler, seed, timeline)

    parked, resumed = [
        [r for r in _flow_records(sim, flow.job_id, label) if r.reason == reason]
        for reason in ("flow-parked", "flow-resumed")
    ]
    assert [r.t for r in parked] == [t1]
    assert [r.t for r in resumed] == [t4]
    remaining = parked[0].detail["remaining"]
    assert 0.0 < remaining < flow.size
    assert resumed[0].detail["remaining"] == remaining
    assert len(sim.metrics.jobs) == len(workload)
    assert sim.parked_flows == 0
    counters = sim.faults.counters
    assert counters["faults.switch_fail"] == counters["faults.link_fail"] == 1


# (decision-log fingerprint, run fingerprint) per (fabric, scheduler,
# degrade factor).  Any reordering of reroutes, parks or records, or a
# changed record field, breaks them.
PINNED = {
    ("testbed", "hit", 0.25): (
        "52cb4f6e3f7f44663adf0dd8ced89131056084afc65ced8e1abbd01822e35387",
        "870dba1b5fcc132906c14018a58b4e1a051b57f725f2148ecdeed6a193d0d1cc",
    ),
    ("testbed", "capacity", 0.25): (
        "6543f9163816cd33f5189f58908c15514ba927787493768c506d337c775ec35b",
        "49fb0d36851342fda66d90397f171440eb98fc6ebb46ba07511020753ab1ef66",
    ),
    ("fattree", "hit", 0.0): (
        "6a424fd639a184ad499d78dbc088d6c9a0f0081ec3d125c377b8b2e1c96f2bdc",
        "401ebc2ad30b4dca4f0df75df7f1104765545054040c7ecd24fc623f0a688e5c",
    ),
    ("fattree", "capacity", 0.0): (
        "d70ce8e838c24ff1b49f5a53273c806252baad92346607957c432349e2b37a78",
        "fd4f45106a55bc63ca1e8d8896960d0a63d46d77278b5ef8097dbbd2cf39963f",
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED), ids=str)
def test_faulty_run_digest_pinned(case):
    """Switch, link and degrade faults (factor 0.0 kills a link on the
    fat-tree); Capacity runs may partition the fabric, so flows park."""
    fabric, scheduler, factor = case
    seed = 3
    topology = build_fabric(
        {"name": "fattree", "k": 4} if fabric == "fattree" else fabric
    )
    faults = generate_timeline(
        topology,
        seed=seed,
        horizon=6.0,
        switch_mtbf=1.5,
        switch_mttr=0.5,
        max_concurrent_switch_failures=2,
        allow_partition=scheduler == "capacity",
        link_mtbf=3.0,
        link_mttr=0.5,
        link_degrade_mtbf=3.0,
        link_degrade_factor=factor,
    )
    workload = WorkloadGenerator(
        seed=seed, input_size_range=(2.0, 6.0)
    ).make_workload(6, interarrival=0.5)
    config = SimulationConfig(
        seed=seed,
        faults=faults,
        max_task_retries=10,
        provenance=ProvenanceConfig(ring_size=16),
    )
    sim = MapReduceSimulator(
        topology, make_scheduler(scheduler, seed=seed), workload, config
    )
    metrics = sim.run()
    counters = sim.faults.summary()
    assert counters["faults.flows_rerouted"] > 0
    run_print = online_fingerprint(
        metrics.summary(), counters, sim.events_processed
    )
    assert (sim.provenance.fingerprint(), run_print) == PINNED[case]
