"""Routing utilities: stage DAGs, path enumeration and their consistency."""

import gc
import weakref
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.configs import FABRICS, build_fabric
from repro.topology import (
    UNREACHABLE,
    BCubeConfig,
    FatTreeConfig,
    Link,
    Server,
    Switch,
    Tier,
    Topology,
    TreeConfig,
    VL2Config,
    bfs_layers,
    build_bcube,
    build_fattree,
    build_tree,
    build_vl2,
    count_shortest_paths,
    enumerate_paths,
    path_is_valid,
    plan_endpoints,
    route_plan,
    shortest_path_stages,
    single_source_unit_costs,
)
from repro.topology import routing
from repro.topology.routing import _parent_table, _stage_order


@pytest.fixture(scope="module")
def tree():
    return build_tree(depth=2, fanout=4, redundancy=2)


class TestStages:
    def test_endpoints_are_singleton_stages(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        assert stages[0] == (0,)
        assert stages[-1] == (15,)

    def test_stage_count_matches_distance(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        assert len(stages) == tree.hop_distance(0, 15) + 1

    def test_same_node(self, tree):
        assert shortest_path_stages(tree, 3, 3) == [(3,)]

    def test_consecutive_stages_connected(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        for a_stage, b_stage in zip(stages, stages[1:]):
            assert any(
                tree.has_link(a, b) for a in a_stage for b in b_stage
            )

    def test_stage_nodes_lie_on_shortest_paths(self, tree):
        stages = shortest_path_stages(tree, 0, 15)
        total = tree.hop_distance(0, 15)
        for j, stage in enumerate(stages):
            for node in stage:
                assert tree.hop_distance(0, node) == j
                assert tree.hop_distance(node, 15) == total - j

    def test_redundant_switches_appear(self, tree):
        # Within-rack stage should offer both access replicas.
        stages = shortest_path_stages(tree, 0, 1)
        assert len(stages[1]) == 2

    def test_cached_identity(self, tree):
        assert shortest_path_stages(tree, 0, 15) is shortest_path_stages(tree, 0, 15)


class TestStageAdjacency:
    """The flat route plan: stages plus per-node parent tables."""

    def test_matches_has_link(self, tree):
        plan = route_plan(tree, 0, 15)
        ids, bounds = tuple(plan.nodes.tolist()), plan.bounds
        stages = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        assert stages == shortest_path_stages(tree, 0, 15)
        pad = len(plan.nodes)
        for k, table in enumerate(plan.parents, start=1):
            expected = [
                [a for a in stages[k - 1] if tree.has_link(a, child)]
                for child in stages[k]
            ]
            listed = [[ids[p] for p in row if p != pad] for row in table]
            assert listed == expected
            # Trimmed to the stage's largest in-degree.
            assert table.shape[1] == max(len(row) for row in expected)

    def test_cached_identity(self, tree):
        assert route_plan(tree, 0, 15) is route_plan(tree, 0, 15)

    def test_identical_stages_share_one_table(self):
        """Every pair of a fat-tree: parent tables with the same shape and
        contents are one read-only array, and a pod-crossing edge-switch
        pair reuses another pair's tables stage for stage."""
        ft = build_fattree(k=4)
        plans = [
            route_plan(ft, a, b)
            for a in range(ft.num_nodes)
            for b in range(ft.num_nodes)
        ]
        by_content: dict[tuple, set[int]] = {}
        for plan in plans:
            for table in plan.parents:
                assert not table.flags.writeable
                key = (table.shape, table.tobytes())
                by_content.setdefault(key, set()).add(id(table))
        assert all(len(ids) == 1 for ids in by_content.values())
        assert len(by_content) < sum(len(p.parents) for p in plans) // 100
        edges = ft.switches_of_tier(Tier.ACCESS)
        first = route_plan(ft, edges[0], edges[-1])
        second = route_plan(ft, edges[1], edges[-2])
        assert not np.array_equal(first.nodes, second.nodes)
        assert len(first.parents) == len(second.parents) > 0
        assert all(a is b for a, b in zip(first.parents, second.parents))

    def test_tables_not_shared_across_topologies(self):
        one, two = build_fattree(k=4), build_fattree(k=4)
        edges = one.switches_of_tier(Tier.ACCESS)
        a = route_plan(one, edges[0], edges[-1])
        b = route_plan(two, edges[0], edges[-1])
        assert np.array_equal(a.nodes, b.nodes)
        for x, y in zip(a.parents, b.parents):
            assert np.array_equal(x, y) and x is not y
        # The interning memo goes away with its topology.
        assert one in routing._TABLE_CACHE
        topology_ref, table_ref = weakref.ref(one), weakref.ref(a.parents[0])
        del one, a
        gc.collect()
        assert topology_ref() is None and table_ref() is None

    def test_node_ids_share_the_topology_ints(self):
        """A plan with one node per stage keeps that path as node-id ints;
        ids above CPython's small-int cache (256) are the same objects in
        every plan of a topology.  A multi-path plan keeps no path."""
        ft = build_fattree(k=12)
        shared = routing.node_ints(ft)
        servers = ft.server_ids
        # Two servers on one edge switch: server, edge switch, server.
        single = route_plan(ft, servers[-2], servers[-1])
        assert len(single.path) == 3 and min(single.path) > 256
        assert all(n is shared[n] for n in single.path)
        assert single.path == tuple(single.nodes.tolist())
        edges = ft.switches_of_tier(Tier.ACCESS)
        assert route_plan(ft, edges[0], edges[-1]).path is None

    def test_neighbor_table_symmetric(self, tree):
        table = tree.neighbor_table()
        pad = tree.num_nodes
        rows = [tuple(int(v) for v in row if v != pad) for row in table]
        assert rows == [tree.neighbors(u) for u in range(tree.num_nodes)]
        assert all(u in rows[v] for u in range(pad) for v in rows[u])
        assert sum(map(len, rows)) == 2 * len(tree.links)

    def test_single_homed_servers_plan_between_switches(self):
        ft = build_fattree(k=4)
        edge_of = {s: ft.neighbors(s)[0] for s in ft.server_ids}
        assert plan_endpoints(ft, 0, 8) == (edge_of[0], edge_of[8])
        # Same access switch, or a switch endpoint: planned over itself.
        same = next(s for s in ft.server_ids[1:] if edge_of[s] == edge_of[0])
        assert plan_endpoints(ft, 0, same) == (0, same)
        assert plan_endpoints(ft, 0, edge_of[8]) == (0, edge_of[8])

    def test_multi_homed_servers_plan_over_themselves(self, tree):
        bcube = build_bcube(n=4, k=1)
        assert plan_endpoints(bcube, 0, 15) == (0, 15)
        # Redundancy-2 tree servers hang off two access switches.
        assert plan_endpoints(tree, 0, 15) == (0, 15)


def per_stage_plan(topology, src, dst):
    """The per-stage route-plan builder the one-pass build replaced, kept
    verbatim: one neighbour gather and one compaction per stage."""
    nodes, bounds = _stage_order(topology, src, dst)
    nodes.setflags(write=False)
    index = np.full(topology.num_nodes + 1, -1, dtype=np.intp)
    index[nodes] = np.arange(nodes.size)
    table = topology.neighbor_table()
    parents = []
    for k in range(1, len(bounds) - 1):
        flat = index[table[nodes[bounds[k] : bounds[k + 1]]]]
        member = (flat >= bounds[k - 1]) & (flat < bounds[k])
        parents.append(_parent_table(flat, member, nodes.size))
    return nodes, bounds, parents


@pytest.mark.parametrize("fabric", sorted(FABRICS))
def test_route_plan_matches_per_stage_builder(fabric):
    """Random node pairs (servers and switches, plus a few self pairs) on
    every registered fabric: the one-pass plan equals the per-stage build
    array for array, including padding, dtypes and read-only flags."""
    topology = build_fabric(fabric)
    rng = np.random.default_rng(len(fabric))
    n = topology.num_nodes
    pairs = {tuple(int(v) for v in rng.integers(n, size=2)) for _ in range(60)}
    servers = topology.server_ids
    pairs |= {(int(a), int(b)) for a, b in rng.choice(servers, size=(20, 2))}
    pairs |= {(0, 0), (servers[0], servers[-1])}
    for src, dst in sorted(pairs):
        plan = route_plan(topology, src, dst)
        nodes, bounds, parents = per_stage_plan(topology, src, dst)
        assert np.array_equal(plan.nodes, nodes)
        single = len(nodes) == len(bounds) - 1
        assert plan.path == (tuple(nodes.tolist()) if single else None)
        assert plan.bounds == bounds
        assert len(plan.parents) == len(parents)
        for got, want in zip(plan.parents, parents):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert not got.flags.writeable
        assert not plan.nodes.flags.writeable


class TestSingleSourceUnitCosts:
    def test_layers_partition_reachable_nodes(self, tree):
        layers, parents = bfs_layers(tree, 0)
        seen = np.concatenate(layers)
        assert len(seen) == len(set(seen.tolist())) == tree.num_nodes
        dist = tree.hop_distances_from(0)
        for d, layer in enumerate(layers):
            assert all(dist[n] == d for n in layer)
        assert len(parents) == len(layers) - 1
        for d, table in enumerate(parents):
            for child, row in zip(layers[d + 1], table):
                listed = [int(p) for p in row if p != tree.num_nodes]
                assert listed == [
                    int(p) for p in layers[d] if tree.has_link(int(p), int(child))
                ]

    def test_unit_hop_costs_equal_switch_count(self, tree):
        """With unit node costs on switches, the solver returns the number
        of switches on a shortest path — the paper's default cost model."""
        costs = np.zeros(tree.num_nodes)
        for w in tree.switch_ids:
            costs[w] = 1.0
        best = single_source_unit_costs(tree, 0, costs)
        for dst in tree.server_ids:
            if dst == 0:
                assert best[dst] == 0.0
                continue
            path = tree.shortest_path(0, dst)
            assert best[dst] == len(tree.switches_on_path(path))

    def test_minimises_over_equal_length_paths(self, tree):
        """Skewed per-switch costs: the solver must pick the cheapest of the
        equal-length alternatives, matching brute-force enumeration."""
        rng = np.random.default_rng(3)
        costs = np.zeros(tree.num_nodes)
        for w in tree.switch_ids:
            costs[w] = float(rng.uniform(0.5, 2.0))
        best = single_source_unit_costs(tree, 0, costs)
        for dst in (1, 5, 15):
            brute = min(
                sum(costs[n] for n in path if tree.is_switch(n))
                for path in enumerate_paths(tree, 0, dst, slack=0)
            )
            assert best[dst] == pytest.approx(brute)


class TestEnumeration:
    def test_slack0_paths_all_shortest(self, tree):
        d = tree.hop_distance(0, 15)
        for path in enumerate_paths(tree, 0, 15, slack=0):
            assert len(path) == d + 1
            assert path_is_valid(tree, path)

    def test_count_matches_dp(self, tree):
        paths = enumerate_paths(tree, 0, 15, slack=0)
        assert len(paths) == count_shortest_paths(tree, 0, 15)

    def test_count_matches_dp_fattree(self):
        ft = build_fattree(k=4)
        assert len(enumerate_paths(ft, 0, 8, slack=0)) == count_shortest_paths(
            ft, 0, 8
        )

    def test_slack_extends_path_set(self, tree):
        shortest = enumerate_paths(tree, 0, 15, slack=0)
        extended = enumerate_paths(tree, 0, 15, slack=2)
        assert set(shortest) <= set(extended)
        assert len(extended) > len(shortest)

    def test_paths_are_simple(self, tree):
        for path in enumerate_paths(tree, 0, 15, slack=2):
            assert len(path) == len(set(path))

    def test_limit_respected(self, tree):
        assert len(enumerate_paths(tree, 0, 15, slack=2, limit=3)) == 3

    def test_negative_slack_rejected(self, tree):
        with pytest.raises(ValueError):
            enumerate_paths(tree, 0, 15, slack=-1)

    def test_same_node(self, tree):
        assert enumerate_paths(tree, 2, 2) == [(2,)]

    def test_deterministic_order(self, tree):
        assert enumerate_paths(tree, 0, 15, slack=1) == enumerate_paths(
            tree, 0, 15, slack=1
        )


class TestPathValidity:
    def test_valid_path(self, tree):
        assert path_is_valid(tree, tree.shortest_path(0, 15))

    def test_rejects_repeats(self, tree):
        p = tree.shortest_path(0, 15)
        assert not path_is_valid(tree, p + (p[-2],))

    def test_rejects_non_adjacent(self, tree):
        assert not path_is_valid(tree, (0, 15))


@settings(max_examples=30, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
)
def test_property_stage_dag_counts_all_enumerated_paths(src, dst):
    """For every server pair, DP path counting equals brute enumeration."""
    tree = build_tree(depth=2, fanout=4, redundancy=2)
    assert count_shortest_paths(tree, src, dst) == len(
        enumerate_paths(tree, src, dst, slack=0)
    )


@settings(max_examples=20, deadline=None)
@given(
    src=st.integers(min_value=0, max_value=15),
    dst=st.integers(min_value=0, max_value=15),
)
def test_property_bcube_paths_valid(src, dst):
    """BCube enumeration returns simple, physically connected paths."""
    topo = build_bcube(n=4, k=1)
    for path in enumerate_paths(topo, src, dst, slack=0, limit=64):
        assert path_is_valid(topo, path)
        assert path[0] == src and path[-1] == dst


# --------------------------------------------------------------- exactness
GENERATED = {
    "tree-d2f4r1": lambda: build_tree(TreeConfig(depth=2, fanout=4, redundancy=1)),
    "tree-d3f4r2": lambda: build_tree(TreeConfig(depth=3, fanout=4, redundancy=2)),
    "fattree-k4": lambda: build_fattree(FatTreeConfig(k=4)),
    "fattree-k8": lambda: build_fattree(FatTreeConfig(k=8)),
    "vl2": lambda: build_vl2(
        VL2Config(num_intermediate=3, num_aggregation=4, num_tor=6, servers_per_tor=3)
    ),
    "bcube-n4k1": lambda: build_bcube(BCubeConfig(n=4, k=1)),
    "bcube-n3k2": lambda: build_bcube(BCubeConfig(n=3, k=2)),
}


def deque_bfs(topology, source):
    """Reference hop distances: the node-at-a-time queue BFS."""
    dist = np.full(topology.num_nodes, UNREACHABLE, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neigh in topology.neighbors(node):
            if dist[neigh] == UNREACHABLE:
                dist[neigh] = dist[node] + 1
                queue.append(neigh)
    return dist


def dense_unit_costs(topology, source, node_costs):
    """Reference pricing: the layered min-plus pass over dense boolean
    adjacency matrices between consecutive BFS layers."""
    n = topology.num_nodes
    adjacency = np.zeros((n, n), dtype=bool)
    for link in topology.links:
        adjacency[link.u, link.v] = adjacency[link.v, link.u] = True
    dist = deque_bfs(topology, source)
    layers = [np.flatnonzero(dist == d) for d in range(int(dist.max()) + 1)]
    best = np.full(n, np.inf, dtype=np.float64)
    current = np.asarray([node_costs[source]], dtype=np.float64)
    best[source] = current[0]
    for prev, nodes in zip(layers, layers[1:]):
        mat = adjacency[np.ix_(prev, nodes)]
        current = np.where(mat, current[:, None], np.inf).min(axis=0) + node_costs[nodes]
        best[nodes] = current
    return best


def assert_narrowest_distance_dtype(dist, num_nodes):
    """Signed, holds ``2 * num_nodes``, and the next narrower signed dtype
    would not."""
    info = np.iinfo(dist.dtype)
    assert dist.dtype.kind == "i" and info.max >= 2 * num_nodes
    if info.bits > 8:
        assert np.iinfo(f"int{info.bits // 2}").max < 2 * num_nodes


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_hop_distances_match_queue_bfs(name):
    topology = GENERATED[name]()
    for source in range(topology.num_nodes):
        dist = topology.hop_distances_from(source)
        assert_narrowest_distance_dtype(dist, topology.num_nodes)
        assert np.array_equal(dist, deque_bfs(topology, source)), (name, source)


@pytest.mark.parametrize("k", [8, 16])
def test_bench_fat_tree_distances_are_int16(k):
    topology = build_fattree(FatTreeConfig(k=k))
    for source in (0, topology.num_servers - 1, topology.num_nodes - 1):
        dist = topology.hop_distances_from(source)
        assert dist.dtype == np.int16
        assert np.array_equal(dist, deque_bfs(topology, source))


def line_topology(num_nodes):
    """Two servers joined by a chain of ``num_nodes - 2`` switches: the
    longest shortest path a fabric of that size can have."""
    switches = range(2, num_nodes)
    chain = [0, *switches, 1]
    return Topology(
        [Server(0, "s0"), Server(1, "s1")],
        [Switch(w, f"w{w}", Tier.ACCESS, 1.0) for w in switches],
        [Link(a, b, 1.0) for a, b in zip(chain, chain[1:])],
    )


@pytest.mark.parametrize("num_nodes", [63, 64])
def test_narrow_distances_hold_the_longest_stage_sums(num_nodes):
    """At the widest int8 fabric (63 nodes) and the first int16 one, the
    end-to-end distance sums of ``_stage_order`` do not overflow: every
    node is its own stage, in chain order."""
    line = line_topology(num_nodes)
    dist = line.hop_distances_from(0)
    assert dist.dtype == (np.int8 if num_nodes == 63 else np.int16)
    assert int(dist[1]) == num_nodes - 1
    nodes, bounds = _stage_order(line, 0, 1)
    assert nodes.tolist() == [0, *range(2, num_nodes), 1]
    assert bounds == tuple(range(num_nodes + 1))
    assert line.shortest_path(0, 1) == tuple(nodes.tolist())
    assert enumerate_paths(line, 0, 1, slack=2) == [tuple(nodes.tolist())]


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_unit_costs_bytes_match_dense_reference(name):
    """Skewed switch costs with some switches priced ``inf`` (failed): the
    parent-table pass must reproduce the dense pass byte for byte."""
    topology = GENERATED[name]()
    rng = np.random.default_rng(len(name))
    costs = np.zeros(topology.num_nodes)
    for w in topology.switch_ids:
        costs[w] = float(rng.uniform(0.5, 2.0))
    dead = rng.choice(topology.switch_ids, size=max(1, topology.num_switches // 8))
    costs[dead] = np.inf
    for source in topology.server_ids:
        best = single_source_unit_costs(topology, source, costs)
        assert best.tobytes() == dense_unit_costs(topology, source, costs).tobytes()
