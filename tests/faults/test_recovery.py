"""Failure-recovery behaviour of the simulation engine.

Fault instants are derived from a fault-free dry run of the identical
workload, so every test targets a window where the victim work is provably
in flight — no timing guesswork against execution-model constants.
"""

import dataclasses

import pytest

from repro.experiments import configs
from repro.faults import FaultKind, FaultSpec, generate_timeline
from repro.obs import InvariantChecker, observe
from repro.schedulers import make_scheduler
from repro.simulator import (
    MapReduceSimulator,
    RetryBudgetExceeded,
    SimulationConfig,
    run_simulation,
)
from repro.topology import TreeConfig, build_tree

from ..conftest import make_job


@pytest.fixture
def topo():
    """4 servers in 2 racks, single-path (redundancy 1): failing the core
    switch severs all cross-rack traffic, which is what the parking tests
    need."""
    return build_tree(
        TreeConfig(depth=2, fanout=2, redundancy=1, server_resources=(2.0,))
    )


def jobs_one():
    # 6 containers at demand 1.0 against 4.0 per rack: the job cannot fit in
    # one rack, so the shuffle always crosses the core switch.
    return [make_job(num_maps=4, num_reduces=2, input_size=4.0)]


def run_with_faults(topo, faults, *, scheduler="capacity", seed=0, **overrides):
    config = dataclasses.replace(
        SimulationConfig(seed=seed, faults=tuple(faults)), **overrides
    )
    sim = MapReduceSimulator(
        topo, make_scheduler(scheduler, seed=seed), jobs_one(), config
    )
    with observe(checker=InvariantChecker(mode="raise")):
        metrics = sim.run()
    return sim, metrics


def map_window(metrics):
    starts = [t.start for t in metrics.tasks if t.kind == "map"]
    finishes = [t.finish for t in metrics.tasks if t.kind == "map"]
    return min(starts), min(finishes), max(finishes)


class TestServerFailure:
    def test_mid_map_failure_reexecutes_and_completes(self, topo):
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        first_start, first_finish, _ = map_window(baseline)
        t_fail = (first_start + first_finish) / 2
        # Fail 3 of 4 servers while every map is running: at most two maps
        # fit on the survivor, so at least two attempts must be killed.
        faults = [FaultSpec(t_fail, FaultKind.SERVER_FAIL, sid) for sid in (0, 1, 2)]
        faults += [
            FaultSpec(t_fail + 1.0, FaultKind.SERVER_RECOVER, sid) for sid in (0, 1, 2)
        ]
        sim, metrics = run_with_faults(topo, faults)
        assert len(metrics.jobs) == 1
        assert metrics.task_durations("map").size == 4
        assert metrics.task_durations("reduce").size == 2
        counters = sim.faults.summary()
        assert counters["faults.server_fail"] == 3
        assert counters["faults.server_recover"] == 3
        assert counters["retries.map"] >= 2
        # Degradation is real: the job finishes later than fault-free.
        assert metrics.summary()["makespan"] > baseline.summary()["makespan"]

    def test_lost_map_output_reruns_completed_map(self, topo):
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        _, _, all_maps_done = map_window(baseline)
        last_flow = max(f.finish for f in baseline.flows)
        assert all_maps_done < last_flow, "shuffle must outlive the map phase"
        t_fail = (all_maps_done + last_flow) / 2
        faults = [FaultSpec(t_fail, FaultKind.SERVER_FAIL, sid) for sid in (0, 1, 2)]
        faults += [
            FaultSpec(t_fail + 0.5, FaultKind.SERVER_RECOVER, sid) for sid in (0, 1, 2)
        ]
        sim, metrics = run_with_faults(topo, faults)
        assert len(metrics.jobs) == 1
        counters = sim.faults.summary()
        # Losing 3 of 4 servers mid-shuffle must cost at least one
        # re-execution (a completed map whose output was still needed, or a
        # reducer that had to restart and re-fetch).
        assert counters.get("retries.map", 0) + counters.get("retries.reduce", 0) >= 1
        # Every map is eventually recorded done at least once.
        assert metrics.task_durations("map").size >= 4

    @pytest.mark.parametrize("seed", [2, 3])
    def test_reducer_restart_does_not_kill_its_lost_maps_twice(self, seed):
        """A failing server hosts a reducer and completed maps it fetched
        from.  Restarting the reducer re-executes (and unplaces) those maps
        before the kill loop reaches them; the loop must skip them rather
        than unplace them again.  On these seeds the testbed timeline hits
        exactly that ordering."""
        topology = configs.testbed_tree()
        jobs = configs.testbed_workload(seed)
        faults = generate_timeline(
            topology, seed=seed, horizon=30, server_mtbf=8, server_mttr=0.5
        )
        config = SimulationConfig(seed=seed, faults=faults, max_task_retries=10)
        sim = MapReduceSimulator(
            topology, make_scheduler("hit", seed=seed), jobs, config
        )
        # Retries charged while each server failure is handled.
        per_failure: list[list[tuple[str, int, int]]] = []
        on_fail, charge = sim._on_server_fail, sim._charge_retry

        def on_server_fail(now, server_id):
            per_failure.append([])
            on_fail(now, server_id)

        def charge_retry(job, cid, kind):
            if per_failure:
                per_failure[-1].append((kind, job.spec.job_id, cid))
            charge(job, cid, kind)

        sim._on_server_fail, sim._charge_retry = on_server_fail, charge_retry
        metrics = sim.run()
        assert len(metrics.jobs) == len(jobs)
        assert sorted(j.job_id for j in metrics.jobs) == [j.job_id for j in jobs]
        for charges in per_failure:
            cids = [cid for _, _, cid in charges]
            assert len(cids) == len(set(cids)), charges
        # The ordering under test happened: one failure restarted a reducer
        # and re-executed a map of the same job.
        assert any(
            {job for kind, job, _ in charges if kind == "map"}
            & {job for kind, job, _ in charges if kind == "reduce"}
            for charges in per_failure
        )

    def test_retry_budget_exhaustion_aborts(self, topo):
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        first_start, first_finish, _ = map_window(baseline)
        t_fail = (first_start + first_finish) / 2
        faults = [FaultSpec(t_fail, FaultKind.SERVER_FAIL, sid) for sid in (0, 1, 2)]
        with pytest.raises(RetryBudgetExceeded, match="max_task_retries=0"):
            run_with_faults(topo, faults, max_task_retries=0)

    def test_slowdown_stretches_makespan(self, topo):
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        faults = [
            FaultSpec(0.0, FaultKind.TASK_SLOWDOWN, sid, factor=4.0)
            for sid in range(4)
        ]
        _, metrics = run_with_faults(topo, faults)
        assert len(metrics.jobs) == 1
        assert metrics.summary()["makespan"] > baseline.summary()["makespan"]

    def test_no_fault_timeline_is_bit_identical_to_baseline(self, topo):
        """faults=() must leave the execution model untouched."""
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        again = run_simulation(
            topo, make_scheduler("capacity"), jobs_one(), SimulationConfig(faults=())
        )
        assert [dataclasses.astuple(r) for r in baseline.tasks] == [
            dataclasses.astuple(r) for r in again.tasks
        ]
        assert baseline.summary() == again.summary()


class TestSwitchFailure:
    def test_core_outage_parks_and_resumes_flows(self, topo):
        baseline = run_simulation(topo, make_scheduler("capacity"), jobs_one())
        flow_start = min(f.start for f in baseline.flows)
        flow_end = max(f.finish for f in baseline.flows)
        core = max(topo.switch_ids)
        t_fail = flow_start + 0.25 * (flow_end - flow_start)
        # Recover only after the fault-free shuffle would have long finished,
        # so parked flows genuinely wait out the outage.
        faults = [
            FaultSpec(t_fail, FaultKind.SWITCH_FAIL, core),
            FaultSpec(flow_end + 1.0, FaultKind.SWITCH_RECOVER, core),
        ]
        sim, metrics = run_with_faults(topo, faults)
        assert len(metrics.jobs) == 1
        counters = sim.faults.summary()
        assert counters["faults.switch_fail"] == 1
        assert counters["faults.switch_recover"] == 1
        assert counters["faults.flows_parked"] >= 1
        assert counters["faults.flows_resumed"] >= 1
        # The job cannot finish before the partition heals.
        assert metrics.summary()["makespan"] > flow_end + 1.0

    @pytest.mark.parametrize("scheduler", ["capacity", "capacity-ecmp", "hit"])
    def test_redundant_fabric_reroutes_around_outage(self, small_tree, scheduler):
        """On a redundancy-2 tree a single switch loss is survivable without
        parking; the run completes with the guard asserting every installed
        path avoids the dead switch."""
        jobs = [make_job(num_maps=6, num_reduces=3, input_size=6.0)]
        baseline = run_simulation(small_tree, make_scheduler(scheduler, seed=0), jobs)
        flow_start = min(f.start for f in baseline.flows)
        flow_end = max(f.finish for f in baseline.flows)
        victim = small_tree.switch_ids[0]
        faults = (
            FaultSpec(
                flow_start + 0.25 * (flow_end - flow_start),
                FaultKind.SWITCH_FAIL,
                victim,
            ),
            FaultSpec(flow_end + 1.0, FaultKind.SWITCH_RECOVER, victim),
        )
        config = SimulationConfig(faults=faults)
        sim = MapReduceSimulator(
            small_tree, make_scheduler(scheduler, seed=0), jobs, config
        )
        with observe(checker=InvariantChecker(mode="raise")):
            metrics = sim.run()
        assert len(metrics.jobs) == 1
        assert sim.faults.summary()["faults.switch_fail"] == 1
