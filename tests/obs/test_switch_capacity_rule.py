"""What Eq 4 binds when a planning instance's base load is over capacity.

Hit plans each job on a controller whose base load is the live fabric's
total load, exempt traffic included, so a switch can start over capacity.
Eq 4 binds the switches negotiated rate crosses (negotiated rate plus base
load must fit); a switch that carries none is not a breach.  The first
tests pin both halves of that rule on a hand-built controller; the last
runs Hit on the faulty testbed tree, where the old reading raised on every
seed.
"""

import pytest

from repro.core.policy import PolicyController
from repro.experiments import configs
from repro.faults.spec import generate_timeline
from repro.mapreduce import ShuffleFlow, WorkloadGenerator
from repro.obs import InvariantChecker, InvariantError, observe
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology import TreeConfig, build_tree


@pytest.fixture
def controller():
    tree = build_tree(TreeConfig(depth=2, fanout=4, redundancy=1))
    return PolicyController(tree)


def flow(fid, rate):
    return ShuffleFlow(fid, 0, 0, 0, 100, 101, rate, rate)


def assign_on_path(controller, fid, rate, capacitated):
    """Install ``rate`` on the shortest path 0 -> 15 under a raise-mode
    checker."""
    path = controller.topology.shortest_path(0, 15)
    policy = controller.make_policy(flow(fid, rate), path)
    with observe(checker=InvariantChecker(mode="raise")):
        controller.assign(flow(fid, rate), policy, capacitated=capacitated)


def first_switch(controller):
    path = controller.topology.shortest_path(0, 15)
    return next(n for n in path if controller.topology.is_switch(n))


def test_capacitated_overload_raises(controller):
    w = first_switch(controller)
    capacity = controller.topology.switch(w).capacity
    with pytest.raises(InvariantError, match=f"switch {w}: capacitated load"):
        assign_on_path(controller, 0, capacity + 1.0, capacitated=True)


def test_base_load_counts_where_negotiated_rate_crosses(controller):
    w = first_switch(controller)
    capacity = controller.topology.switch(w).capacity
    controller.set_base_load(w, capacity - 0.5)
    with pytest.raises(InvariantError, match=f"switch {w}: capacitated load"):
        assign_on_path(controller, 0, 1.0, capacitated=True)


def test_base_load_alone_over_capacity_binds_nothing(controller):
    w = first_switch(controller)
    capacity = controller.topology.switch(w).capacity
    controller.set_base_load(w, 2 * capacity)
    checker = InvariantChecker(mode="raise")
    assert checker.check_switch_capacity(controller) == []
    # Exempt traffic through the switch leaves it unbound...
    assign_on_path(controller, 0, 1.0, capacitated=False)
    assert checker.check_switch_capacity(controller) == []
    assert controller.negotiated_load(w) == 0.0
    # ...and the first negotiated flow on it is held to the full load.
    with pytest.raises(InvariantError, match=f"switch {w}: capacitated load"):
        assign_on_path(controller, 1, 0.1, capacitated=True)
    controller.release(1)
    assert controller.negotiated_load(w) == 0.0
    assert checker.check_switch_capacity(controller) == []


@pytest.mark.parametrize("seed", range(6))
def test_faulty_testbed_hit_runs_clean(seed):
    """Hit on the testbed tree with switch and link faults, at quick scale
    (30 jobs), under a raise-mode checker: every check passes, including
    the ones at switches whose imported base load exceeds capacity."""
    topology = configs.testbed_tree()
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 12.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(30, interarrival=0.5)
    faults = generate_timeline(
        topology,
        seed=seed,
        horizon=40.0,
        switch_mtbf=10.0,
        switch_mttr=0.5,
        link_mtbf=40.0,
        link_mttr=0.5,
        link_degrade_mtbf=40.0,
    )
    sim = MapReduceSimulator(
        topology,
        make_scheduler("hit", seed=seed),
        jobs,
        SimulationConfig(seed=seed, faults=faults, max_task_retries=10),
    )
    checker = InvariantChecker(mode="raise")
    with observe(checker=checker):
        metrics = sim.run()
    assert checker.violations == [] and checker.checks_run > 0
    assert len(metrics.jobs) == 30
