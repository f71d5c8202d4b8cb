"""Equivalence of the vectorised hot-path kernels and the scalar originals.

The vectorised routing/preference kernels (stage-adjacency DP, batched
all-pairs unit-cost matrix, array-assembled preference columns) are required
to be *bit-compatible* with the scalar implementations they replaced: same
paths under the same deterministic tie-breaks, same costs, same matchings.
This suite checks that claim directly on randomized Tree / Fat-Tree / VL2 /
BCube instances across 72 seeds (18 per fabric family), plus targeted cases
for capacity pruning, failed switches and links on the switch-pair route
plans, same-switch pairs, container rankings and determinism of the new code
path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Container, Resources, TaskKind, TaskRef
from repro.core import HitConfig, HitOptimizer, TAAInstance, stable_match
from repro.core.policy import CostModel, NoFeasiblePathError
from repro.core.preference import PairCostCache, build_preference_matrix
from repro.core.scalar_ref import (
    ScalarPairCostCache,
    build_preference_matrix_scalar,
    dag_best_path_scalar,
    optimal_path_scalar,
)
from repro.mapreduce import ShuffleFlow
from repro.topology import (
    BCubeConfig,
    FatTreeConfig,
    TreeConfig,
    VL2Config,
    build_bcube,
    build_fattree,
    build_tree,
    build_vl2,
    enumerate_paths,
    plan_endpoints,
    route_plan,
)

TOPOLOGIES = ("tree", "fattree", "vl2", "bcube")
SEEDS_PER_TOPOLOGY = 18  # 4 x 18 = 72 randomized instances >= the 50 floor


def random_topology(kind: str, rng: np.random.Generator):
    if kind == "tree":
        return build_tree(
            TreeConfig(
                depth=2,
                fanout=int(rng.integers(2, 5)),
                redundancy=int(rng.integers(1, 3)),
                server_resources=(float(rng.integers(2, 4)),),
            )
        )
    if kind == "fattree":
        return build_fattree(FatTreeConfig(k=4))
    if kind == "bcube":
        # Multi-homed servers: every server pair keeps its own route plan.
        return build_bcube(
            BCubeConfig(
                n=int(rng.integers(2, 4)),
                k=int(rng.integers(1, 3)),
                server_resources=(float(rng.integers(2, 4)),),
            )
        )
    return build_vl2(
        VL2Config(
            num_intermediate=int(rng.integers(2, 4)),
            num_aggregation=int(rng.integers(2, 4)),
            num_tor=4,
            servers_per_tor=int(rng.integers(2, 4)),
        )
    )


def random_instance(kind: str, seed: int) -> TAAInstance:
    """Random topology + workload, some containers placed, policies routed."""
    rng = np.random.default_rng(seed)
    topo = random_topology(kind, rng)
    num_maps = int(rng.integers(2, 7))
    num_reduces = int(rng.integers(1, 4))
    containers, flows = [], []
    map_ids, reduce_ids = [], []
    cid = 0
    for i in range(num_maps):
        containers.append(
            Container(cid, Resources(1.0, 0.0), TaskRef(0, TaskKind.MAP, i))
        )
        map_ids.append(cid)
        cid += 1
    for i in range(num_reduces):
        containers.append(
            Container(cid, Resources(1.0, 0.0), TaskRef(0, TaskKind.REDUCE, i))
        )
        reduce_ids.append(cid)
        cid += 1
    fid = 0
    for m in map_ids:
        for r in reduce_ids:
            size = float(rng.uniform(0.1, 2.0))
            flows.append(ShuffleFlow(fid, 0, 0, 0, m, r, size, size))
            fid += 1
    taa = TAAInstance(topo, containers, flows)
    for container in taa.cluster.containers():
        if rng.random() < 0.3:
            continue  # leave some containers unplaced
        candidates = [
            s for s in taa.cluster.server_ids
            if taa.cluster.fits(container.container_id, s)
        ]
        if candidates:
            taa.cluster.place(container.container_id, int(rng.choice(candidates)))
    taa.install_all_policies()
    return taa


CASES = [
    (kind, seed)
    for kind in TOPOLOGIES
    for seed in range(SEEDS_PER_TOPOLOGY)
]


@pytest.mark.parametrize("kind,seed", CASES)
def test_kernels_match_scalar_reference(kind, seed):
    taa = random_instance(kind, seed)
    controller = taa.controller
    servers = taa.cluster.server_ids

    # 1. Routing: the vectorised stage DP must return the *identical* path
    #    (including tie-breaks) and cost as the scalar frontier DP, both with
    #    and without capacity enforcement.
    rng = np.random.default_rng(1000 + seed)
    pair_count = min(30, len(servers) * (len(servers) - 1))
    pairs = {
        (int(rng.choice(servers)), int(rng.choice(servers)))
        for _ in range(pair_count)
    }
    pairs.update([(servers[0], servers[-1]), (servers[0], servers[0])])
    for a, b in sorted(pairs):
        for enforce in (False, True):
            rate = float(rng.uniform(0.1, 3.0))
            scalar = optimal_path_scalar(controller, a, b, rate, enforce)
            vector = controller.optimal_path(a, b, rate, enforce)
            assert vector[0] == scalar[0], (kind, seed, a, b, enforce)
            assert vector[1] == scalar[1], (kind, seed, a, b, enforce)

    # 2. Pair costs: the all-pairs matrix equals the per-pair scalar DPs.
    cache = PairCostCache(taa)
    scalar_cache = ScalarPairCostCache(taa)
    for a in servers:
        for b in servers:
            assert cache.unit_cost(a, b) == pytest.approx(
                scalar_cache.unit_cost(a, b), abs=1e-9
            ), (kind, seed, a, b)

    # 3. Grading: vectorised and scalar preference matrices agree entry-wise
    #    (same infeasibility pattern, costs within 1e-9).
    vec = build_preference_matrix(taa)
    ref = build_preference_matrix_scalar(taa)
    assert vec.server_ids == ref.server_ids
    assert vec.container_ids == ref.container_ids
    assert np.array_equal(np.isfinite(vec.cost), np.isfinite(ref.cost))
    finite = np.isfinite(ref.cost)
    np.testing.assert_allclose(
        vec.cost[finite], ref.cost[finite], rtol=0, atol=1e-9
    )
    np.testing.assert_allclose(
        np.nan_to_num(vec.current_cost, posinf=-1.0),
        np.nan_to_num(ref.current_cost, posinf=-1.0),
        rtol=0,
        atol=1e-9,
    )

    # 4. Matching: both matrices induce the identical stable assignment.
    vec_match = stable_match(vec, taa.cluster)
    ref_match = stable_match(ref, taa.cluster)
    assert vec_match.assignment == ref_match.assignment, (kind, seed)
    assert vec_match.unmatched == ref_match.unmatched, (kind, seed)
    assert vec_match.proposals == ref_match.proposals, (kind, seed)


@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_capacity_pruning_matches_scalar(kind):
    """Saturate switches so the DP mask actually prunes, then compare."""
    taa = random_instance(kind, seed=7)
    controller = taa.controller
    servers = taa.cluster.server_ids
    # Drive some switches close to capacity as background load.
    rng = np.random.default_rng(77)
    for w in taa.topology.switch_ids:
        if rng.random() < 0.5:
            capacity = taa.topology.switch(w).capacity
            controller.set_base_load(w, capacity * float(rng.uniform(0.8, 1.0)))
    for a in servers[: min(6, len(servers))]:
        for b in servers[-min(6, len(servers)):]:
            rate = 5.0
            try:
                scalar = optimal_path_scalar(controller, a, b, rate, True)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    controller.optimal_path(a, b, rate, True)
                continue
            vector = controller.optimal_path(a, b, rate, True)
            assert vector == scalar, (kind, a, b)


def route_outcome(fn, *args):
    try:
        return fn(*args)
    except NoFeasiblePathError:
        return None


@pytest.mark.parametrize("kind", TOPOLOGIES)
@pytest.mark.parametrize("seed", range(3))
def test_failures_plus_saturation_match_scalar(kind, seed):
    """Failed switches and links on top of near-saturated switches: the
    shipped fallback (BFS prune, then the slack loop) and the scalar oracle
    agree on every pair, capacitated or not."""
    taa = random_instance(kind, seed=40 + seed)
    controller = taa.controller
    topology = taa.topology
    rng = np.random.default_rng(400 + seed)
    for w in topology.switch_ids:
        if rng.random() < 0.4:
            capacity = topology.switch(w).capacity
            controller.set_base_load(w, capacity * float(rng.uniform(0.9, 1.0)))
    servers = taa.cluster.server_ids
    # Saturate every switch next to the first server (the fallback on the
    # 64-host testbed tree looks like this) and fail one next to the last.
    for w in topology.neighbors(servers[0]):
        if topology.is_switch(w):
            controller.set_base_load(w, topology.switch(w).capacity)
    controller.fail_switch(
        next(w for w in topology.neighbors(servers[-1]) if topology.is_switch(w))
    )
    switches = topology.switch_ids
    for w in rng.choice(switches, size=max(1, len(switches) // 6), replace=False):
        controller.fail_switch(int(w))
    links = topology.links
    for i in rng.choice(len(links), size=max(1, len(links) // 10), replace=False):
        controller.fail_link(links[int(i)].u, links[int(i)].v)
    fallbacks = 0
    for a in servers:
        for b in servers:
            if a == b:
                continue
            for enforce in (False, True):
                for rate in (0.5, 5.0, 15.0):
                    scalar = route_outcome(
                        optimal_path_scalar, controller, a, b, rate, enforce
                    )
                    vector = route_outcome(
                        controller.optimal_path, a, b, rate, enforce
                    )
                    assert vector == scalar, (kind, a, b, rate, enforce)
                    fallbacks += dag_best_path_scalar(
                        controller, a, b, rate, enforce
                    ) is None
    assert fallbacks > 0


def test_uncapacitated_fallback_under_failures_matches_scalar():
    """A dead switch empties BCube's shortest-path DAG while a server-relayed
    detour survives: both implementations must take the detour even with
    capacity off."""
    topology = build_bcube(BCubeConfig(n=3, k=1))
    controller = TAAInstance(topology, [], []).controller
    # Servers 0 and 4 differ in both digits; their two shortest routes are
    # 0-9-1-13-4 and 0-12-3-10-4.  Killing 12 and 13 cuts both but leaves
    # each server one live switch, so a 6-hop relay survives.
    controller.fail_switch(12)
    controller.fail_switch(13)
    assert dag_best_path_scalar(controller, 0, 4, 1.0, False) is None
    scalar = optimal_path_scalar(controller, 0, 4, 1.0, False)
    assert len(scalar[0]) == 7
    assert controller.optimal_path(0, 4, 1.0, False) == scalar


@pytest.mark.parametrize("kind", TOPOLOGIES)
@pytest.mark.parametrize("seed", range(3))
def test_hit_optimizer_determinism_on_vector_path(kind, seed):
    """The end-to-end loop (vectorised kernels + shared pair cache) is
    deterministic: identical placements, cost traces and matchings across
    two fresh runs, and the result is feasible."""
    taa1 = random_instance(kind, 500 + seed)
    taa2 = random_instance(kind, 500 + seed)
    r1 = HitOptimizer(taa1, HitConfig(seed=seed)).optimize_initial_wave()
    r2 = HitOptimizer(taa2, HitConfig(seed=seed)).optimize_initial_wave()
    assert r1.placement == r2.placement
    assert r1.cost_trace == r2.cost_trace
    assert [m.assignment for m in r1.matchings] == [
        m.assignment for m in r2.matchings
    ]
    assert taa1.verify_constraints() == []


# ------------------------------------------- route plans keyed by switch pair
def single_homed_fabric(kind: str):
    """Fabrics whose servers hang off one access switch each, so cross-switch
    server pairs share their switch pair's route plan."""
    if kind == "tree":
        return build_tree(TreeConfig(depth=2, fanout=3, redundancy=1))
    if kind == "fattree":
        return build_fattree(FatTreeConfig(k=4))
    return build_vl2(
        VL2Config(num_intermediate=2, num_aggregation=3, num_tor=4, servers_per_tor=3)
    )


def loaded_controller(kind: str, seed: int, spread: bool):
    """A controller over a single-homed fabric.  ``spread`` loads switches
    unevenly as background load; without it every equal-length route ties,
    which exercises the lowest-id tie-break."""
    taa = TAAInstance(single_homed_fabric(kind), [], [])
    controller = taa.controller
    if spread:
        rng = np.random.default_rng(seed)
        for w in taa.topology.switch_ids:
            capacity = taa.topology.switch(w).capacity
            controller.set_base_load(w, capacity * float(rng.uniform(0.0, 0.95)))
    return controller


def access_switch(topology, server: int) -> int:
    (switch,) = topology.neighbors(server)
    return switch


def assert_dp_matches_scalar(controller, pairs, rates=(0.5, 5.0)) -> list:
    results = []
    for a, b in pairs:
        for enforce in (False, True):
            for rate in rates:
                vector = controller._dag_best_path(a, b, rate, enforce)
                scalar = dag_best_path_scalar(controller, a, b, rate, enforce)
                assert vector == scalar, (a, b, rate, enforce)
                results.append(vector)
    return results


def cross_switch_pairs(topology, anchor: int) -> list[tuple[int, int]]:
    servers = topology.server_ids
    pairs = [(anchor, s) for s in servers if s != anchor]
    pairs += [(s, anchor) for s in servers if s != anchor]
    return pairs


DP_KINDS = ("tree", "fattree", "vl2")


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("kind", DP_KINDS)
def test_dag_failed_attachment_switch_matches_scalar(kind, spread):
    controller = loaded_controller(kind, seed=11, spread=spread)
    topology = controller.topology
    anchor = topology.server_ids[0]
    pairs = cross_switch_pairs(topology, anchor)
    assert any(plan_endpoints(topology, a, b) != (a, b) for a, b in pairs)
    controller.fail_switch(access_switch(topology, anchor))
    results = assert_dp_matches_scalar(controller, pairs)
    assert all(path is None for path in results)
    # Pairs that avoid the dead switch still route.
    others = [s for s in topology.server_ids[1:]
              if access_switch(topology, s) != access_switch(topology, anchor)]
    results = assert_dp_matches_scalar(controller, [(others[0], others[-1])])
    assert all(path is not None for path in results)


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("kind", DP_KINDS)
def test_dag_failed_access_link_matches_scalar(kind, spread):
    controller = loaded_controller(kind, seed=12, spread=spread)
    topology = controller.topology
    anchor = topology.server_ids[-1]
    pairs = cross_switch_pairs(topology, anchor)
    controller.fail_link(anchor, access_switch(topology, anchor))
    results = assert_dp_matches_scalar(controller, pairs)
    assert all(path is None for path in results)
    # A failed fabric link is masked inside the shared switch-pair plan.
    fabric = next(
        link for link in topology.links
        if topology.is_switch(link.u) and topology.is_switch(link.v)
    )
    controller.fail_link(fabric.u, fabric.v)
    servers = topology.server_ids
    assert_dp_matches_scalar(
        controller, [(a, b) for a in servers[:4] for b in servers[-4:] if a != b]
    )


@pytest.mark.parametrize("kind", DP_KINDS)
def test_dag_capacity_pruning_on_switch_pair_plans_matches_scalar(kind):
    controller = loaded_controller(kind, seed=13, spread=True)
    topology = controller.topology
    servers = topology.server_ids
    pairs = [(a, b) for a in servers for b in servers if a != b]
    rates = (0.5, 5.0, 20.0, 60.0)
    results = assert_dp_matches_scalar(controller, pairs, rates)
    # Pruning actually bit: some routes are cut, some survive.
    assert any(p is None for p in results) and any(p is not None for p in results)


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("kind", DP_KINDS)
def test_dag_same_switch_pairs_match_scalar(kind, spread):
    controller = loaded_controller(kind, seed=14, spread=spread)
    topology = controller.topology
    by_switch: dict[int, list[int]] = {}
    for s in topology.server_ids:
        by_switch.setdefault(access_switch(topology, s), []).append(s)
    pairs = [
        (a, b)
        for group in by_switch.values()
        for a in group
        for b in group
        if a != b
    ]
    assert pairs and all(plan_endpoints(topology, a, b) == (a, b) for a, b in pairs)
    results = assert_dp_matches_scalar(controller, pairs)
    assert all(p is None or len(p) == 3 for p in results)


# ----------------------------------------------- single-path plans, headroom
def single_path_pairs(topology) -> list[tuple[int, int]]:
    """Server pairs whose route plan holds one path (one node per stage),
    which the DP walks without its stage loop."""
    pairs = []
    for a in topology.server_ids:
        for b in topology.server_ids:
            if a == b:
                continue
            plan = route_plan(topology, *plan_endpoints(topology, a, b))
            if plan.path is not None:
                pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("spread", [False, True])
@pytest.mark.parametrize("fault", ["switch", "link", "saturation"])
@pytest.mark.parametrize("kind", DP_KINDS)
def test_single_path_plans_match_scalar(kind, fault, spread):
    """Single-path plans (two servers on one switch; every pair on a tree
    without redundancy) under a failed switch, a failed link or a full
    switch on the longest such path: the walk equals the scalar DP on every
    single-path pair, and the fault cuts some routes but not all."""
    controller = loaded_controller(kind, seed=15, spread=spread)
    topology = controller.topology
    pairs = single_path_pairs(topology)
    assert pairs
    healthy = assert_dp_matches_scalar(controller, pairs)
    assert all(path is not None for path in healthy)
    path = max(healthy, key=len)
    switches = [n for n in path if topology.is_switch(n)]
    if fault == "switch":
        controller.fail_switch(switches[0])
    elif fault == "link":
        controller.fail_link(path[-3], path[-2])
    else:
        w = switches[-1]
        controller.set_base_load(w, topology.switch(w).capacity)
    results = assert_dp_matches_scalar(controller, pairs)
    assert any(p is None for p in results)
    assert any(p is not None for p in results)


@pytest.mark.parametrize("kind,seed", CASES[::6])
def test_optimal_path_cost_is_path_cost(kind, seed):
    """``optimal_path`` reports exactly ``path_cost(path, rate)``, bit for
    bit, whichever branch found the path."""
    taa = random_instance(kind, seed)
    controller = taa.controller
    servers = taa.cluster.server_ids
    rng = np.random.default_rng(2000 + seed)
    for w in taa.topology.switch_ids:
        if rng.random() < 0.3:
            capacity = taa.topology.switch(w).capacity
            controller.set_base_load(w, capacity * float(rng.uniform(0.7, 1.0)))
    routed = 0
    for a in servers:
        for b in servers:
            for enforce in (False, True):
                rate = float(rng.uniform(0.1, 5.0))
                try:
                    path, cost = controller.optimal_path(a, b, rate, enforce)
                except NoFeasiblePathError:
                    continue
                expected = controller.path_cost(path, rate)
                assert np.float64(cost).tobytes() == np.float64(expected).tobytes()
                routed += 1
    assert routed


def assert_prices_exact(controller) -> None:
    """Per node: headroom is ``capacity - load`` and the price is
    :meth:`CostModel.switch_cost` at the load, both exactly; servers have
    infinite headroom and price 0.0."""
    topology = controller.topology
    for w in topology.switch_ids:
        load = controller.load(w)
        assert controller._headroom[w] == topology.switch(w).capacity - load
        assert controller._cost_arr[w] == controller.cost_model.switch_cost(
            topology, w, load
        )
    for s in topology.server_ids:
        assert controller._headroom[s] == np.inf
        assert controller._cost_arr[s] == 0.0


@pytest.mark.parametrize("congestion", [0.25, 0.0])
@pytest.mark.parametrize("kind", TOPOLOGIES)
def test_headroom_tracks_loads_exactly(kind, congestion):
    """After every random assign, release, set_base_load, base_loads_from
    and clear, the headroom and price arrays equal a from-scratch pricing,
    with or without the congestion term (headroom is kept either way)."""
    topology = random_instance(kind, seed=60).topology
    cost_model = CostModel(congestion_weight=congestion)
    controller = TAAInstance(topology, [], [], cost_model=cost_model).controller
    other = TAAInstance(topology, [], []).controller
    rng = np.random.default_rng(60)
    servers = topology.server_ids
    switches = topology.switch_ids
    assert_prices_exact(controller)
    for step in range(300):
        op = rng.random()
        if op < 0.4:
            a, b = (int(v) for v in rng.choice(servers, size=2, replace=False))
            rate = float(rng.uniform(0.1, 8.0))
            flow = ShuffleFlow(1000 + step % 40, 0, 0, 0, 0, 1, rate, rate)
            paths = enumerate_paths(topology, a, b, slack=1, limit=16)
            path = paths[int(rng.integers(len(paths)))]
            controller.assign(
                flow,
                controller.make_policy(flow, path),
                capacitated=bool(rng.random() < 0.5),
            )
        elif op < 0.65:
            installed = sorted(controller.policies())
            if installed:
                controller.release(int(rng.choice(installed)))
        elif op < 0.85:
            w = int(rng.choice(switches))
            controller.set_base_load(
                w, topology.switch(w).capacity * float(rng.uniform(0.0, 1.2))
            )
        elif op < 0.97:
            w = int(rng.choice(switches))
            other.set_base_load(w, float(rng.uniform(0.0, 30.0)))
            controller.base_loads_from(other)
        else:
            controller.clear()
        assert_prices_exact(controller)


# ------------------------------------------------------- container rankings
@pytest.mark.parametrize("kind,seed", [(k, s) for k in TOPOLOGIES for s in range(4)])
def test_container_ranking_matches_comprehension(kind, seed):
    """The array ranking equals the original per-element comprehension,
    including failed servers' ``inf`` rows (dropped from every ranking)."""
    taa = random_instance(kind, 900 + seed)
    cluster = taa.cluster
    servers = cluster.server_ids
    rng = np.random.default_rng(seed)
    for sid in rng.choice(servers, size=max(1, len(servers) // 4), replace=False):
        cluster.fail_server(int(sid))
    matrix = build_preference_matrix(taa)
    assert not np.isfinite(matrix.cost).all()
    for j, cid in enumerate(matrix.container_ids):
        column = matrix.cost[:, j]
        order = np.argsort(column, kind="stable")
        expected = [matrix.server_ids[i] for i in order if np.isfinite(column[i])]
        ranking = matrix.container_ranking(cid)
        assert ranking == expected
        assert all(type(s) is int for s in ranking)
