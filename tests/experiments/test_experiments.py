"""Experiment harnesses at miniature scale (the benchmarks run full scale)."""

import pytest

from repro.experiments import (
    build_static_workload,
    configs,
    fig1_traffic_volume,
    fig3_case_study,
    run_static_placement,
)
from repro.experiments.static import evaluate_policy_cost
from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.topology import TreeConfig, build_tree


@pytest.fixture(scope="module")
def mini_topo():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(3.0,))
    )


@pytest.fixture(scope="module")
def mini_jobs():
    return WorkloadGenerator(seed=0, input_size_range=(2.0, 4.0)).make_workload(3)


class TestStaticWorkload:
    def test_build_materialises_everything(self, mini_topo, mini_jobs):
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        total_tasks = sum(j.num_maps + j.num_reduces for j in mini_jobs)
        assert len(wl.containers) == total_tasks
        assert len(wl.job_containers) == 3
        assert wl.flows  # non-empty

    def test_flow_ids_unique(self, mini_topo, mini_jobs):
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        ids = [f.flow_id for f in wl.flows]
        assert len(ids) == len(set(ids))

    def test_repeatable_placement(self, mini_topo, mini_jobs):
        """The same workload can be placed by several schedulers without
        cross-contamination (fresh containers per run)."""
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        r1 = run_static_placement(wl, make_scheduler("capacity"), seed=0)
        r2 = run_static_placement(wl, make_scheduler("capacity"), seed=0)
        assert r1.shuffle_cost == pytest.approx(r2.shuffle_cost)
        # Original workload containers stay unplaced.
        assert all(c.server_id is None for c in wl.containers)

    def test_result_metrics_consistent(self, mini_topo, mini_jobs):
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        res = run_static_placement(wl, make_scheduler("capacity"), seed=0)
        assert res.total_shuffle_volume == pytest.approx(
            sum(f.size for f in wl.flows)
        )
        assert res.avg_route_hops >= 0
        assert res.policy_cost >= 0

    def test_hit_beats_capacity(self, mini_topo, mini_jobs):
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        cap = run_static_placement(wl, make_scheduler("capacity"), seed=0)
        hit = run_static_placement(wl, make_scheduler("hit", seed=0), seed=0)
        assert hit.shuffle_cost <= cap.shuffle_cost
        assert hit.cost_reduction_vs(cap) >= 0

    def test_evaluate_policy_cost_monotone_in_weight(self, mini_topo, mini_jobs):
        wl = build_static_workload(mini_topo, mini_jobs, seed=0)
        res = run_static_placement(wl, make_scheduler("capacity"), seed=0)
        low = evaluate_policy_cost(res.taa, congestion_weight=0.0)
        high = evaluate_policy_cost(res.taa, congestion_weight=2.0)
        assert high >= low


class TestFigureDrivers:
    def test_fig3_case_study_matches_paper_arithmetic(self):
        result = fig3_case_study()
        assert result.baseline_cost == pytest.approx(112.0)
        assert result.paper_optimised_cost == pytest.approx(64.0)
        assert result.hit_cost <= result.paper_optimised_cost + 1e-9
        assert result.improvement_vs_baseline >= 0.42  # the paper's 42%

    def test_fig1_shuffle_share_ordering(self):
        # jobs_per_class=4 fills the testbed enough to create the locality
        # misses (remote-Map traffic) the figure contrasts with shuffle.
        data = fig1_traffic_volume(jobs_per_class=4)
        share = {k: v["shuffle_share"] for k, v in data.items()}
        assert share["shuffle-heavy"] >= share["shuffle-medium"]
        assert share["shuffle-medium"] > share["shuffle-light"]
        assert data["shuffle-light"]["remote_map_volume"] > 0

    def test_configs_build(self):
        assert configs.testbed_tree().num_servers == 64
        assert configs.case_study_tree().num_servers == 4
        assert configs.large_tree(num_servers=64).num_servers == 64
        archs = configs.ARCHITECTURES_64
        assert set(archs) == {"tree", "fat-tree", "vl2", "bcube"}
        for fabric in archs.values():
            assert configs.build_fabric(fabric).num_servers >= 54

    def test_testbed_workload_table1_mix(self):
        jobs = configs.testbed_workload(seed=0, num_jobs=30)
        assert len(jobs) == 30
        classes = {j.shuffle_class.value for j in jobs}
        assert len(classes) >= 2

    def test_large_tree_rejects_other_sizes(self):
        with pytest.raises(ValueError):
            configs.large_tree(num_servers=100)
