"""Engine-wide conservation and cleanliness invariants."""

import pytest

from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology import TreeConfig, build_tree

from ..conftest import make_job


@pytest.fixture
def topo():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )


def run_sim(topo, scheduler_name, jobs, **config):
    sim = MapReduceSimulator(
        topo, make_scheduler(scheduler_name, seed=0), jobs,
        SimulationConfig(seed=0, **config),
    )
    metrics = sim.run()
    return sim, metrics


class TestConservation:
    @pytest.mark.parametrize("name", ["capacity", "hit", "hit-online"])
    def test_switch_loads_zero_after_run(self, topo, name):
        """Every flow's rate must be refunded when it completes."""
        jobs = WorkloadGenerator(seed=1, input_size_range=(2.0, 4.0)).make_workload(3)
        sim, _ = run_sim(topo, name, jobs)
        for w in topo.switch_ids:
            assert sim.controller.load(w) == pytest.approx(0.0, abs=1e-9)

    def test_network_empty_after_run(self, topo):
        jobs = WorkloadGenerator(seed=2, input_size_range=(2.0, 4.0)).make_workload(3)
        sim, _ = run_sim(topo, "hit", jobs)
        assert sim.network.active_flows == ()

    def test_flow_records_cover_all_partitions(self, topo):
        """#flow records == #non-empty shuffle-matrix entries per job."""
        jobs = [make_job(num_maps=3, num_reduces=2, input_size=3.0)]
        sim, metrics = run_sim(topo, "capacity", jobs)
        assert len(metrics.flows) == 3 * 2  # uniform matrix: all non-empty

    def test_every_flow_finishes_after_it_starts(self, topo):
        jobs = WorkloadGenerator(seed=3, input_size_range=(2.0, 4.0)).make_workload(4)
        _, metrics = run_sim(topo, "pna", jobs)
        for f in metrics.flows:
            assert f.finish >= f.start

    def test_task_time_ordering_within_job(self, topo):
        """No reduce finishes before the job's last map finishes."""
        jobs = [make_job(num_maps=4, num_reduces=2, input_size=4.0)]
        _, metrics = run_sim(topo, "capacity", jobs)
        last_map = max(t.finish for t in metrics.tasks if t.kind == "map")
        first_reduce = min(
            t.finish for t in metrics.tasks if t.kind == "reduce"
        )
        assert first_reduce >= last_map

    def test_jct_at_least_critical_path(self, topo):
        """JCT can never undercut map compute + reduce compute."""
        job = make_job(num_maps=2, num_reduces=1, input_size=2.0)
        _, metrics = run_sim(topo, "hit", [job])
        floor = job.map_duration + job.reduce_duration(job.shuffle_volume)
        assert metrics.jobs[0].completion_time >= floor - 1e-9


class TestWaveAccounting:
    def test_container_ids_never_reused(self, topo):
        jobs = [make_job(num_maps=9, num_reduces=2, input_size=4.5)]
        sim, metrics = run_sim(topo, "capacity", jobs, map_slots_per_job=3)
        # 3 waves x 3 maps + 2 reduces = 11 containers created in total.
        assert sim.cluster.num_containers == 11

    def test_map_records_once_per_task(self, topo):
        jobs = [make_job(num_maps=8, num_reduces=2, input_size=4.0)]
        _, metrics = run_sim(topo, "hit", jobs, map_slots_per_job=3)
        indices = sorted(t.index for t in metrics.tasks if t.kind == "map")
        assert indices == list(range(8))

    def test_wave_count_matches_plan(self, topo):
        jobs = [make_job(num_maps=10, num_reduces=1, input_size=5.0)]
        _, metrics = run_sim(topo, "capacity", jobs, map_slots_per_job=4)
        starts = sorted({round(t.start, 9) for t in metrics.tasks if t.kind == "map"})
        waves = -(-10 // 4)  # ceil(maps / slots)
        assert len(starts) >= waves  # barriers create >= 3 epochs
