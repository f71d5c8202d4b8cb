"""HitOptimizer: initial-wave and subsequent-wave strategies."""

import numpy as np
import pytest

from repro.cluster import Container, Resources, TaskKind, TaskRef
from repro.core import HitConfig, HitOptimizer, TAAInstance
from repro.core.policy import PolicyController
from repro.mapreduce import ShuffleFlow
from repro.topology import FatTreeConfig, build_fattree

from ..conftest import make_job, make_taa


class TestRandomInitialPlacement:
    def test_places_everything(self, small_tree):
        taa, *_ = make_taa(small_tree)
        HitOptimizer(taa).random_initial_placement()
        assert taa.cluster.unplaced_containers() == []
        taa.cluster.validate()

    def test_subset_only(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        HitOptimizer(taa).random_initial_placement(container_ids=map_ids)
        placed = {c.container_id for c in taa.cluster.containers() if c.is_placed}
        assert placed == set(map_ids)

    def test_seeded_determinism(self, small_tree):
        taa1, *_ = make_taa(small_tree)
        taa2, *_ = make_taa(small_tree)
        HitOptimizer(taa1, HitConfig(seed=3)).random_initial_placement()
        HitOptimizer(taa2, HitConfig(seed=3)).random_initial_placement()
        assert taa1.cluster.placement_snapshot() == taa2.cluster.placement_snapshot()

    def test_raises_when_cluster_full(self, flat_tree):
        # flat_tree: 4 servers x 2 slots = 8; demand 9 containers.
        job = make_job(num_maps=6, num_reduces=3)
        taa, *_ = make_taa(flat_tree, job)
        with pytest.raises(RuntimeError, match="no server"):
            HitOptimizer(taa).random_initial_placement()


class TestInitialWave:
    def test_improves_over_random(self, small_tree):
        taa, *_ = make_taa(small_tree)
        result = HitOptimizer(taa, HitConfig(seed=1)).optimize_initial_wave()
        assert result.final_cost <= result.initial_cost + 1e-9
        assert result.improvement >= 0.0

    def test_substantial_improvement_on_spreadable_job(self, small_tree):
        job = make_job(num_maps=4, num_reduces=1, input_size=4.0)
        taa, *_ = make_taa(small_tree, job)
        result = HitOptimizer(taa, HitConfig(seed=42)).optimize_initial_wave()
        assert result.improvement > 0.3  # co-location is available

    def test_feasible_after_optimization(self, small_tree):
        taa, *_ = make_taa(small_tree)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave()
        assert taa.verify_constraints() == []

    def test_cost_trace_monotone_at_best(self, small_tree):
        taa, *_ = make_taa(small_tree)
        result = HitOptimizer(taa, HitConfig(seed=5)).optimize_initial_wave()
        assert result.final_cost == min(result.cost_trace)

    def test_subset_restriction_leaves_others_alone(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        for i, cid in enumerate(map_ids):
            taa.cluster.place(cid, i)
        before = {cid: taa.cluster.container(cid).server_id for cid in map_ids}
        HitOptimizer(taa, HitConfig(seed=0)).optimize_initial_wave(
            container_ids=reduce_ids
        )
        after = {cid: taa.cluster.container(cid).server_id for cid in map_ids}
        assert before == after

    def test_deterministic(self, small_tree):
        taa1, *_ = make_taa(small_tree)
        taa2, *_ = make_taa(small_tree)
        r1 = HitOptimizer(taa1, HitConfig(seed=9)).optimize_initial_wave()
        r2 = HitOptimizer(taa2, HitConfig(seed=9)).optimize_initial_wave()
        assert r1.placement == r2.placement
        # The vectorised kernels are deterministic bit-for-bit, so the whole
        # trace (not just the final cost) must coincide.
        assert r1.cost_trace == r2.cost_trace
        assert r1.final_cost == pytest.approx(r2.final_cost)

    def test_deterministic_with_shared_pair_cache_reuse(self, small_tree):
        """Re-running waves on one optimizer (shared, version-invalidated
        pair-cost cache) matches a fresh optimizer per wave."""
        taa1, map_ids1, _ = make_taa(small_tree)
        opt1 = HitOptimizer(taa1, HitConfig(seed=9))
        opt1.optimize_initial_wave()
        r1 = opt1.optimize_subsequent_wave(map_ids1)

        taa2, map_ids2, _ = make_taa(small_tree)
        HitOptimizer(taa2, HitConfig(seed=9)).optimize_initial_wave()
        r2 = HitOptimizer(taa2, HitConfig(seed=9)).optimize_subsequent_wave(
            map_ids2
        )
        assert r1.placement == r2.placement
        assert r1.cost_trace == r2.cost_trace

    def test_max_rounds_bounds_sweeps(self, small_tree):
        taa, *_ = make_taa(small_tree)
        result = HitOptimizer(
            taa, HitConfig(seed=1, max_rounds=1)
        ).optimize_initial_wave()
        # 1 round = at most 2 sweeps (reduce side + map side) + final restore.
        assert len(result.matchings) <= 2


class TestSubsequentWave:
    def test_places_maps_near_fixed_reduces(self, small_tree):
        job = make_job(num_maps=4, num_reduces=2)
        taa, map_ids, reduce_ids = make_taa(small_tree, job)
        # Pin reduces on rack 3 (servers 12-15).
        taa.cluster.place(reduce_ids[0], 12)
        taa.cluster.place(reduce_ids[1], 13)
        result = HitOptimizer(taa, HitConfig(seed=0)).optimize_subsequent_wave(
            map_ids
        )
        # All maps should land on the reduces' rack (servers 12..15).
        for cid in map_ids:
            assert taa.cluster.container(cid).server_id in {12, 13, 14, 15}

    def test_heaviest_map_gets_best_server(self, small_tree):
        job = make_job(num_maps=2, num_reduces=1, input_size=4.0)
        taa, map_ids, reduce_ids = make_taa(small_tree, job)
        # Manually skew flow rates: map 0 heavy, map 1 light.
        flows = list(taa.flows)
        flows[0].rate = 10.0
        flows[1].rate = 0.1
        taa.cluster.place(reduce_ids[0], 12)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_subsequent_wave(map_ids)
        heavy_server = taa.cluster.container(map_ids[0]).server_id
        assert heavy_server == 12  # co-located with the reduce

    def test_respects_capacity(self, flat_tree):
        job = make_job(num_maps=4, num_reduces=2, input_size=4.0)
        taa, map_ids, reduce_ids = make_taa(flat_tree, job)
        taa.cluster.place(reduce_ids[0], 0)
        taa.cluster.place(reduce_ids[1], 0)  # server 0 now full (2 slots)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_subsequent_wave(map_ids)
        taa.cluster.validate()
        for cid in map_ids:
            assert taa.cluster.container(cid).server_id != 0

    def test_policies_installed_afterwards(self, small_tree):
        job = make_job(num_maps=2, num_reduces=1)
        taa, map_ids, reduce_ids = make_taa(small_tree, job)
        taa.cluster.place(reduce_ids[0], 5)
        HitOptimizer(taa, HitConfig(seed=0)).optimize_subsequent_wave(map_ids)
        routed = [f for f in taa.flows if taa.controller.policy_of(f.flow_id)]
        assert len(routed) == len(taa.flows)


def routing_state(controller: PolicyController) -> tuple:
    """Everything an install writes: policies, rates, capacitated flows,
    loads, capacitated loads, flow counts, prices and headroom."""
    policies = controller.policies()
    switches = controller.topology.switch_ids
    return (
        policies,
        {fid: controller.flow_rate(fid) for fid in policies},
        {fid for fid in policies if controller.is_capacitated(fid)},
        [controller.load(w) for w in switches],
        [controller.capacitated_load(w) for w in switches],
        dict(controller._flows_on),
        dict(controller._cap_flows_on),
        controller._cost_arr.tobytes(),
        controller._headroom.tobytes(),
    )


class TestBestRouteRestore:
    @pytest.mark.parametrize("seed", range(3))
    def test_restored_routes_equal_a_fresh_install(self, seed, monkeypatch):
        """A wave that ends on a worse placement puts the best one back
        with its routes restored, not re-routed; the result equals a fresh
        ``install_all_policies()`` on the final placement, and the restore
        bumps the load version."""
        restores = []
        original = PolicyController.restore_routes

        def restore(self, snapshot):
            version = self.load_version
            original(self, snapshot)
            restores.append(self.load_version > version)

        monkeypatch.setattr(PolicyController, "restore_routes", restore)
        topology = build_fattree(FatTreeConfig(k=4))
        job = make_job(num_maps=8, num_reduces=3, skew=0.5)
        taa, *_ = make_taa(topology, job, seed=seed)
        controller = taa.controller
        rng = np.random.default_rng(seed)
        for w in topology.switch_ids:
            capacity = topology.switch(w).capacity
            controller.set_base_load(w, capacity * float(rng.uniform(0.0, 0.6)))
        HitOptimizer(taa, HitConfig(seed=seed)).optimize_initial_wave()
        assert restores == [True]
        restored = routing_state(controller)
        taa.install_all_policies()
        assert routing_state(controller) == restored
