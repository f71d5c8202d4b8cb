"""Link-level faults: capacity scaling, routing masks, reroute/park/resume."""

import pytest

from repro.core.policy import NoFeasiblePathError, PolicyController
from repro.faults import FaultInjector, FaultKind, FaultSpec, generate_timeline
from repro.mapreduce import WorkloadGenerator
from repro.obs import InvariantChecker, observe
from repro.schedulers import make_scheduler
from repro.simulator import (
    FlowNetwork,
    MapReduceSimulator,
    RoutingViolation,
    SimulationConfig,
)


def run_link_timeline(topology, timeline, scheduler="hit", seed=7, jobs=3):
    workload = WorkloadGenerator(
        seed=seed, input_size_range=(2.0, 4.0)
    ).make_workload(jobs, interarrival=0.5)
    config = SimulationConfig(
        seed=seed, faults=tuple(timeline), max_task_retries=10
    )
    sim = MapReduceSimulator(
        topology, make_scheduler(scheduler, seed=seed), workload, config
    )
    with observe(checker=InvariantChecker(mode="raise")):
        metrics = sim.run()
    return sim, metrics, workload


class TestNetworkCapacityScaling:
    def test_scaling_halves_bottleneck(self, small_tree):
        net = FlowNetwork(small_tree)
        u, v = small_tree.links[0].key
        base = net.link_capacity_factor(u, v)
        assert base == 1.0
        net.set_link_capacity_factor(u, v, 0.5)
        assert net.link_capacity_factor(u, v) == 0.5
        net.set_link_capacity_factor(u, v, 1.0)
        assert net.link_capacity_factor(u, v) == 1.0

    def test_degraded_link_throttles_flow(self, flat_tree):
        net = FlowNetwork(flat_tree)
        path = flat_tree.shortest_path(0, 1)
        net.add_flow(0, path, 100.0)
        net.recompute_rates()
        full = net.active_flows[0].rate
        net.set_link_capacity_factor(path[0], path[1], 0.25)
        net.recompute_rates()
        assert net.active_flows[0].rate == pytest.approx(full * 0.25)
        net.set_link_capacity_factor(path[0], path[1], 1.0)
        net.recompute_rates()
        assert net.active_flows[0].rate == pytest.approx(full)

    def test_rejects_non_link(self, small_tree):
        net = FlowNetwork(small_tree)
        with pytest.raises(ValueError, match="is not a physical link"):
            net.set_link_capacity_factor(0, 1, 0.5)

    def test_rejects_bad_factor(self, small_tree):
        net = FlowNetwork(small_tree)
        u, v = small_tree.links[0].key
        with pytest.raises(ValueError, match="factor"):
            net.set_link_capacity_factor(u, v, 1.5)

    def test_describer_names_owner_in_errors(self, flat_tree):
        net = FlowNetwork(flat_tree)
        net.flow_describer = lambda fid: (
            "job 7 shuffle map 1 -> reduce 2" if fid == 5 else ""
        )
        path = flat_tree.shortest_path(0, 1)
        net.add_flow(5, path, 1.0)
        with pytest.raises(ValueError) as err:
            net.add_flow(5, path, 1.0)
        assert "job 7 shuffle map 1 -> reduce 2" in str(err.value)
        with pytest.raises(KeyError) as err:
            net.remove_flow(99)
        assert "job 7" not in str(err.value)  # unknown id has no owner

    def test_describer_exceptions_swallowed(self, flat_tree):
        net = FlowNetwork(flat_tree)

        def bomb(fid):
            raise RuntimeError("describer bug")

        net.flow_describer = bomb
        with pytest.raises(KeyError, match="unknown flow 3"):
            net.remove_flow(3)


class TestPolicyLinkMask:
    def test_failed_link_avoided(self, small_tree):
        controller = PolicyController(small_tree)
        path, _ = controller.optimal_path(0, 4, 1.0)
        u, v = path[0], path[1]
        controller.fail_link(u, v)
        assert controller.is_link_failed(u, v)
        path2, _ = controller.optimal_path(0, 4, 1.0)
        hops = list(zip(path2, path2[1:]))
        assert (u, v) not in hops and (v, u) not in hops
        controller.recover_link(u, v)
        assert not controller.failed_links

    def test_single_path_fabric_disconnects(self, flat_tree):
        controller = PolicyController(flat_tree)
        for switch in flat_tree.neighbors(0):
            controller.fail_link(0, switch)
        with pytest.raises(NoFeasiblePathError):
            controller.optimal_path(0, 1, 0.1)

    def test_rejects_non_link(self, small_tree):
        controller = PolicyController(small_tree)
        with pytest.raises(KeyError, match="no physical link"):
            controller.fail_link(0, 1)

    def test_sync_mirrors_link_state(self, small_tree):
        a = PolicyController(small_tree)
        b = PolicyController(small_tree)
        u, v = small_tree.links[0].key
        a.fail_link(u, v)
        b.sync_failures_from(a)
        assert b.is_link_failed(u, v)
        a.recover_link(u, v)
        b.sync_failures_from(a)
        assert not b.failed_links


class TestInjectorLinkState:
    def test_fail_recover_cycle(self, small_tree):
        injector = FaultInjector(small_tree, ())
        u, v = small_tree.links[0].key
        assert injector.mark_link_failed(u, v)
        assert (u, v) in injector.dead_links
        assert injector.link_capacity_factor(u, v) == 0.0
        assert not injector.mark_link_failed(u, v)  # idempotent
        assert injector.mark_link_recovered(u, v)
        assert not injector.dead_links
        assert injector.counters["faults.link_fail"] == 1
        assert injector.counters["faults.link_recover"] == 1

    def test_degrade_to_zero_is_dead(self, small_tree):
        injector = FaultInjector(small_tree, ())
        u, v = small_tree.links[0].key
        injector.mark_link_degraded(u, v, 0.25)
        assert injector.link_capacity_factor(u, v) == 0.25
        assert not injector.dead_links
        injector.mark_link_degraded(u, v, 0.0)
        assert (u, v) in injector.dead_links
        injector.mark_link_degraded(u, v, 1.0)
        assert injector.link_capacity_factor(u, v) == 1.0
        assert injector.counters["faults.link_restore"] == 1

    def test_assert_path_clear_flags_dead_link(self, small_tree):
        injector = FaultInjector(small_tree, ())
        u, v = small_tree.links[0].key
        injector.mark_link_failed(u, v)
        with pytest.raises(RoutingViolation, match="dead link"):
            injector.assert_path_clear((u, v))


class TestEngineLinkFaults:
    def scripted(self, topology, when=0.3, recover=2.0):
        u, v = topology.links[0].key
        return [
            FaultSpec(time=when, kind=FaultKind.LINK_FAIL, target=u, target2=v),
            FaultSpec(
                time=recover, kind=FaultKind.LINK_RECOVER, target=u, target2=v
            ),
        ]

    @pytest.mark.parametrize("scheduler", ["capacity", "hit"])
    def test_all_jobs_survive_link_outage(self, small_tree, scheduler):
        sim, metrics, workload = run_link_timeline(
            small_tree, self.scripted(small_tree), scheduler=scheduler
        )
        assert len(metrics.jobs) == len(workload)
        assert sim.faults.counters["faults.link_fail"] == 1
        assert sim.faults.counters["faults.link_recover"] == 1

    def test_single_path_fabric_parks_and_resumes(self, flat_tree):
        """On a redundancy-1 tree a dead access link strands its server's
        flows: they must park (not vanish) and resume on recovery."""
        sim, metrics, workload = run_link_timeline(
            flat_tree, self.scripted(flat_tree, when=0.05, recover=3.0),
            scheduler="capacity",
        )
        assert len(metrics.jobs) == len(workload)
        counters = sim.faults.counters
        assert counters["faults.flows_parked"] >= 1
        assert counters["faults.flows_resumed"] == counters["faults.flows_parked"]
        summary = sim.faults.summary()
        assert summary["faults.parked_dwell"] > 0.0
        assert not sim._parked

    def test_degrade_slows_but_completes(self, small_tree):
        u, v = small_tree.links[0].key
        timeline = [
            FaultSpec(
                time=0.2,
                kind=FaultKind.LINK_DEGRADE,
                target=u,
                target2=v,
                factor=0.1,
            ),
        ]
        sim, metrics, workload = run_link_timeline(small_tree, timeline)
        assert len(metrics.jobs) == len(workload)
        assert sim.faults.counters["faults.link_degrade"] == 1
        assert sim.network.link_capacity_factor(u, v) == pytest.approx(0.1)

    def test_gauges_track_link_state(self, small_tree):
        injector = FaultInjector(small_tree, ())
        u, v = small_tree.links[0].key
        injector.mark_link_failed(u, v)
        assert injector.gauges()["failed_links"] == 1
        injector.mark_link_recovered(u, v)
        assert injector.gauges()["failed_links"] == 0

    def test_sampled_link_timeline_deterministic(self, small_tree):
        timeline = generate_timeline(
            small_tree,
            seed=5,
            horizon=4.0,
            link_mtbf=6.0,
            link_mttr=0.5,
        )
        assert timeline, "seed must produce link activity"
        _, m1, _ = run_link_timeline(small_tree, timeline)
        _, m2, _ = run_link_timeline(small_tree, timeline)
        assert m1.summary() == m2.summary()
