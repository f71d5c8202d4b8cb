"""Cross-module integration scenarios."""

import numpy as np
import pytest

from repro.cluster import Container, Resources, TaskKind, TaskRef
from repro.core import HitConfig, HitOptimizer, TAAInstance
from repro.mapreduce import JobSpec, ShuffleClass, WorkloadGenerator, build_flows
from repro.schedulers import make_scheduler
from repro.simulator import (
    EventBudgetExceeded,
    SimulationConfig,
    UnfinishedJobs,
    run_simulation,
)
from repro.topology import TreeConfig, build_bcube, build_fattree, build_tree, build_vl2

from .conftest import make_job, make_taa


class TestOptimizerAcrossFabrics:
    """Hit's core loop must work unmodified on every fabric generator."""

    @pytest.mark.parametrize("factory", [
        lambda: build_tree(TreeConfig(depth=2, fanout=4, redundancy=2)),
        lambda: build_fattree(k=4),
        lambda: build_vl2(num_tor=4, servers_per_tor=4),
        lambda: build_bcube(n=4, k=1),
    ], ids=["tree", "fattree", "vl2", "bcube"])
    def test_optimize_and_verify(self, factory):
        topo = factory()
        taa, *_ = make_taa(topo)
        result = HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        assert result.final_cost <= result.initial_cost + 1e-9
        assert taa.verify_constraints() == []


class TestZeroShuffleJobs:
    def test_shuffle_free_job_simulates(self):
        """shuffle_ratio=0 means no flows at all; reduces finish on compute."""
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2,
                                     server_resources=(2.0,)))
        job = JobSpec(
            job_id=0, name="map-only", shuffle_class=ShuffleClass.LIGHT,
            num_maps=4, num_reduces=2, input_size=4.0, shuffle_ratio=0.0,
        )
        metrics = run_simulation(topo, make_scheduler("hit", seed=0), [job])
        assert len(metrics.jobs) == 1
        assert metrics.total_shuffle_volume() == 0.0
        assert metrics.flows == []

    def test_optimizer_handles_flowless_containers(self, small_tree):
        job = make_job(shuffle_ratio=0.0)
        # shuffle_ratio=0 -> build_flows drops everything.
        taa, *_ = make_taa(small_tree, job)
        assert taa.flows == ()
        result = HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        assert result.final_cost == 0.0
        assert taa.cluster.unplaced_containers() == []


class TestSkewedJobs:
    def test_skewed_shuffle_simulates(self):
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2,
                                     server_resources=(2.0,)))
        job = JobSpec(
            job_id=0, name="join", shuffle_class=ShuffleClass.HEAVY,
            num_maps=6, num_reduces=3, input_size=6.0, shuffle_ratio=1.1,
            skew=1.0,
        )
        metrics = run_simulation(topo, make_scheduler("hit", seed=0), [job])
        # Reduce with the heavy partition finishes last but all complete.
        assert metrics.task_durations("reduce").size == 3
        assert metrics.total_shuffle_volume() == pytest.approx(
            job.shuffle_volume, rel=1e-6
        )


class TestSimulatorVsStaticConsistency:
    def test_flow_route_lengths_match_static_policies(self):
        """For a single job with one wave, the DES's routed hop counts equal
        the static instance's policy lengths under the same scheduler."""
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2,
                                     server_resources=(4.0,)))
        job = make_job(num_maps=4, num_reduces=2)
        metrics = run_simulation(
            topo, make_scheduler("capacity"), [job],
            SimulationConfig(seed=0),
        )
        # Every networked flow's switch count must be a plausible static
        # shortest-path length on this fabric (1 or 3 switches).
        for f in metrics.flows:
            assert f.num_switches in (0, 1, 3)


class TestWorkloadPipeline:
    def test_generated_workload_runs_under_every_scheduler(self):
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2,
                                     server_resources=(2.0,)))
        jobs = WorkloadGenerator(
            seed=11, input_size_range=(2.0, 4.0)
        ).make_workload(4, interarrival=1.0)
        totals = {}
        for name in ("capacity", "pna", "hit", "random"):
            metrics = run_simulation(topo, make_scheduler(name, seed=11), jobs)
            totals[name] = metrics.total_shuffle_volume()
        # Volume conservation across schedulers: same bytes moved.
        values = list(totals.values())
        assert all(v == pytest.approx(values[0], rel=1e-6) for v in values)

    def test_same_seed_same_workload_same_blocks(self):
        """Determinism across the whole pipeline: two identical simulations
        produce identical JCT vectors and flow counts."""
        topo_factory = lambda: build_tree(
            TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
        )
        jobs = WorkloadGenerator(seed=5, input_size_range=(2.0, 4.0)).make_workload(3)
        runs = []
        for _ in range(2):
            metrics = run_simulation(
                topo_factory(), make_scheduler("pna", seed=5), jobs,
                SimulationConfig(seed=5),
            )
            runs.append((
                metrics.job_completion_times().tolist(),
                len(metrics.flows),
                metrics.total_shuffle_cost(),
            ))
        assert runs[0] == runs[1]


class TestFailureInjection:
    def test_unsatisfiable_job_is_surfaced(self):
        """A job whose reduce count exceeds cluster slots can never be
        admitted; the simulation refuses to end silently."""
        tiny = build_tree(TreeConfig(depth=1, fanout=2, server_resources=(1.0,)))
        job = make_job(num_maps=1, num_reduces=8)
        with pytest.raises(UnfinishedJobs, match="unadmitted|unfinished"):
            run_simulation(tiny, make_scheduler("capacity"), [job])

    def test_max_events_guard(self):
        topo = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2,
                                     server_resources=(2.0,)))
        jobs = [make_job(num_maps=4, num_reduces=2)]
        with pytest.raises(EventBudgetExceeded, match="max_events"):
            run_simulation(
                topo, make_scheduler("capacity"), jobs,
                SimulationConfig(max_events=3),
            )
