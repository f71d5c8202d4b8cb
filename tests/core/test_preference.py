"""Preference-matrix construction (Sections 5.2.1-5.2.2)."""

import numpy as np
import pytest

from repro.core import TAAInstance, build_preference_matrix
from repro.core.preference import PairCostCache
from repro.experiments.configs import build_fabric
from repro.topology.routing import attach_table, single_source_unit_costs

from ..conftest import make_job, make_taa


@pytest.fixture
def placed_taa(small_tree):
    taa, map_ids, reduce_ids = make_taa(small_tree)
    for i, cid in enumerate(map_ids):
        taa.cluster.place(cid, i)  # maps on servers 0..3
    for i, cid in enumerate(reduce_ids):
        taa.cluster.place(cid, 12 + i)  # reduces on the far rack
    taa.install_all_policies()
    return taa, map_ids, reduce_ids


class TestPairCostCache:
    def test_symmetry(self, placed_taa):
        taa, *_ = placed_taa
        cache = PairCostCache(taa)
        assert len(cache) == 0  # columns are priced lazily
        # Costs are mathematically symmetric; the two orientations are priced
        # by different single-source passes, so equality holds up to float
        # summation order.
        assert cache.unit_cost(0, 15) == pytest.approx(
            cache.unit_cost(15, 0), abs=0, rel=1e-12
        )
        assert len(cache) == 2  # exactly the two requested columns priced
        matrix = cache.matrix
        assert len(cache) == 16  # .matrix forces every column
        assert np.allclose(matrix, matrix.T, rtol=1e-12, atol=0)
        assert np.all(np.diag(matrix) == 0.0)

    def test_zero_for_same_server(self, placed_taa):
        taa, *_ = placed_taa
        assert PairCostCache(taa).unit_cost(3, 3) == 0.0

    def test_matches_controller_dp(self, placed_taa):
        taa, *_ = placed_taa
        cache = PairCostCache(taa)
        _, expected = taa.controller.optimal_path(0, 15, 1.0, enforce_capacity=False)
        assert cache.unit_cost(0, 15) == pytest.approx(expected)


@pytest.mark.parametrize("fabric", ["fattree", "vl2", "testbed", "bcube"])
def test_columns_equal_their_own_single_source_pass(fabric):
    """Every server's column, whether copied from its attach switch's pass
    (fat-tree, VL2) or priced on its own (the dual-homed testbed tree,
    BCube), equals the pass rooted at the server, bit for bit, under random
    loads and one failed switch."""
    topology = build_fabric(fabric)
    taa = TAAInstance(topology, [], [])
    controller = taa.controller
    rng = np.random.default_rng(len(fabric))
    for w in topology.switch_ids:
        capacity = topology.switch(w).capacity
        controller.set_base_load(w, capacity * float(rng.uniform(0.0, 0.9)))
    controller.fail_switch(int(rng.choice(topology.switch_ids)))
    cache = PairCostCache(taa)
    costs = controller.all_node_costs()
    servers = np.asarray(topology.server_ids)
    for s in topology.server_ids:
        expected = single_source_unit_costs(topology, s, costs)[servers]
        assert cache.column(s).tobytes() == expected.tobytes(), s
    shared = sum(attach_table(topology)[s] >= 0 for s in topology.server_ids)
    assert shared == (len(servers) if fabric in ("fattree", "vl2") else 0)


class TestMatrix:
    def test_shape_and_ids(self, placed_taa):
        taa, map_ids, reduce_ids = placed_taa
        pref = build_preference_matrix(taa)
        assert pref.cost.shape == (16, len(map_ids) + len(reduce_ids))
        assert pref.container_ids == tuple(map_ids + reduce_ids)

    def test_subset_columns(self, placed_taa):
        taa, map_ids, reduce_ids = placed_taa
        pref = build_preference_matrix(taa, container_ids=reduce_ids)
        assert pref.container_ids == tuple(reduce_ids)

    def test_current_cost_matches_column(self, placed_taa):
        taa, map_ids, _ = placed_taa
        pref = build_preference_matrix(taa)
        j = pref.container_ids.index(map_ids[0])
        current_server = taa.cluster.container(map_ids[0]).server_id
        i = pref.server_ids.index(current_server)
        assert pref.current_cost[j] == pytest.approx(pref.cost[i, j])

    def test_container_ranking_sorted_by_cost(self, placed_taa):
        taa, map_ids, _ = placed_taa
        pref = build_preference_matrix(taa)
        cid = map_ids[0]
        ranking = pref.container_ranking(cid)
        j = pref.container_ids.index(cid)
        costs = [pref.cost[pref.server_ids.index(s), j] for s in ranking]
        assert costs == sorted(costs)

    def test_best_server_for_reduce_is_near_maps(self, small_tree):
        # One map on server 0, one reduce far away: the reduce's cheapest
        # server must be server 0 itself (co-location).
        taa, map_ids, reduce_ids = make_taa(
            small_tree, make_job(num_maps=1, num_reduces=1)
        )
        taa.cluster.place(map_ids[0], 0)
        taa.cluster.place(reduce_ids[0], 15)
        taa.install_all_policies()
        pref = build_preference_matrix(taa, container_ids=reduce_ids)
        assert pref.container_ranking(reduce_ids[0])[0] == 0

    def test_utility_is_current_minus_target(self, placed_taa):
        taa, map_ids, _ = placed_taa
        pref = build_preference_matrix(taa)
        cid = map_ids[0]
        j = pref.container_ids.index(cid)
        for s in (0, 5, 15):
            i = pref.server_ids.index(s)
            assert pref.utility(s, cid) == pytest.approx(
                pref.current_cost[j] - pref.cost[i, j]
            )

    def test_grade_is_negated_cost(self, placed_taa):
        taa, map_ids, _ = placed_taa
        pref = build_preference_matrix(taa)
        cid = map_ids[0]
        j = pref.container_ids.index(cid)
        assert pref.grade(3, cid) == pytest.approx(-pref.cost[3, j])

    def test_server_ranking_by_utility(self, placed_taa):
        taa, *_ = placed_taa
        pref = build_preference_matrix(taa)
        s = pref.server_ids[0]
        ranking = pref.server_ranking(s)
        utilities = [pref.utility(s, c) for c in ranking]
        assert utilities == sorted(utilities, reverse=True)

    def test_server_rank_of_consistent(self, placed_taa):
        taa, *_ = placed_taa
        pref = build_preference_matrix(taa)
        s = pref.server_ids[0]
        rank = pref.server_rank_of(s)
        ranking = pref.server_ranking(s)
        assert [rank[c] for c in ranking] == list(range(len(ranking)))

    def test_flowless_containers_excluded_by_default(self, small_tree):
        from repro.cluster import Container, Resources
        from repro.core import TAAInstance

        taa, *_ = make_taa(small_tree)
        taa.cluster.add_container(Container(999, Resources(1, 0)))
        pref = build_preference_matrix(taa)
        assert 999 not in pref.container_ids
