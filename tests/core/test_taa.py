"""TAAInstance: objective, constraint verification, policy installation."""

import pytest

from repro.cluster import Container, Resources, TaskKind, TaskRef
from repro.core import CostModel, TAAInstance
from repro.mapreduce import ShuffleFlow

from ..conftest import make_job, make_taa


class TestInstallPolicies:
    def test_optimal_policies_cover_placed_flows(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        for i, cid in enumerate(map_ids + reduce_ids):
            taa.cluster.place(cid, small_tree.server_ids[i % 8])
        taa.install_all_policies()
        for flow in taa.flows:
            assert taa.controller.policy_of(flow.flow_id) is not None

    def test_skips_unplaced_endpoints(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        taa.cluster.place(map_ids[0], 0)
        # reduces unplaced: no flows routable
        taa.install_all_policies()
        assert taa.controller.policies() == {}

    def test_colocated_flow_zero_cost(self):
        from repro.topology import TreeConfig, build_tree

        roomy = build_tree(
            TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(8.0,))
        )
        taa, map_ids, reduce_ids = make_taa(roomy)
        for cid in map_ids + reduce_ids:
            taa.cluster.place(cid, 0)
        taa.install_all_policies()
        assert taa.total_shuffle_cost() == 0.0

    def test_static_policies_follow_shortest_path(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        for i, cid in enumerate(map_ids):
            taa.cluster.place(cid, i % 4)
        for cid in reduce_ids:
            taa.cluster.place(cid, 14 + (cid % 2))
        taa.install_static_policies()
        for flow in taa.flows:
            policy = taa.controller.policy_of(flow.flow_id)
            src = taa.cluster.container(flow.src_container).server_id
            dst = taa.cluster.container(flow.dst_container).server_id
            assert policy.path == small_tree.shortest_path(src, dst)

    def test_optimal_cost_never_worse_than_static(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        for i, cid in enumerate(map_ids + reduce_ids):
            taa.cluster.place(cid, small_tree.server_ids[(i * 3) % 16])
        taa.install_static_policies()
        static_cost = taa.total_shuffle_cost()
        taa.install_all_policies()
        assert taa.total_shuffle_cost() <= static_cost + 1e-9

    def test_flows_of_container_indexing(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(small_tree)
        for mid in map_ids:
            incident = taa.flows_of_container(mid)
            assert all(f.src_container == mid for f in incident)
            assert len(incident) == len(reduce_ids)


class TestConstraints:
    def place_all(self, taa, tree):
        for i, c in enumerate(taa.cluster.containers()):
            taa.cluster.place(c.container_id, tree.server_ids[i % 8])

    def test_feasible_instance_passes(self, small_tree):
        taa, *_ = make_taa(small_tree)
        self.place_all(taa, small_tree)
        taa.install_all_policies()
        assert taa.verify_constraints() == []
        taa.assert_feasible()

    def test_unplaced_container_flagged(self, small_tree):
        taa, *_ = make_taa(small_tree)
        violations = taa.verify_constraints()
        assert any(v.constraint == "placement" for v in violations)

    def test_duplicate_task_flagged(self, small_tree):
        containers = [
            Container(0, Resources(1, 0), TaskRef(0, TaskKind.MAP, 0)),
            Container(1, Resources(1, 0), TaskRef(0, TaskKind.MAP, 0)),
        ]
        taa = TAAInstance(small_tree, containers, [])
        taa.cluster.place(0, 0)
        taa.cluster.place(1, 1)
        assert any(
            v.constraint == "task-hosting" for v in taa.verify_constraints()
        )

    def test_switch_overload_flagged(self, small_tree):
        taa, map_ids, reduce_ids = make_taa(
            small_tree, make_job(num_maps=1, num_reduces=1, input_size=1.0)
        )
        taa.cluster.place(map_ids[0], 0)
        taa.cluster.place(reduce_ids[0], 15)
        # Force a huge-rate flow through without capacity checking.
        taa.flows[0].rate = 1e6
        taa.install_all_policies(enforce_capacity=False)
        assert any(
            v.constraint == "switch-capacity" for v in taa.verify_constraints()
        )

    def test_assert_feasible_raises_with_summary(self, small_tree):
        taa, *_ = make_taa(small_tree)
        with pytest.raises(AssertionError, match="constraint violations"):
            taa.assert_feasible()

    def test_shared_cluster_wrapping(self, small_tree):
        """A planning instance over an existing cluster sees its containers."""
        taa1, map_ids, reduce_ids = make_taa(small_tree)
        self.place_all(taa1, small_tree)
        extra = Container(99, Resources(1, 0))
        planning = TAAInstance(
            small_tree, [extra], [], cluster=taa1.cluster
        )
        assert planning.cluster is taa1.cluster
        assert planning.cluster.container(99) is extra
        assert planning.num_containers == taa1.num_containers
