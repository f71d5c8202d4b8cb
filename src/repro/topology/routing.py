"""Routing utilities: equal-cost path structure for policy optimisation.

A network *policy* in the paper (Section 3.1) is an ordered list of typed
switches a shuffle flow must traverse.  Optimising a policy (Algorithm 1)
means replacing individual switches with same-type alternatives that have
residual capacity (Eq 4).  On a hierarchical fabric the alternatives at each
position are exactly the nodes that lie at the same depth on *some*
equal-length route — the stages of the shortest-path DAG between the two
endpoints.  This module computes that structure:

* :func:`shortest_path_stages` — for a node pair, the list of candidate node
  sets per hop index (the layered graph Algorithm 1's DP runs over);
* :func:`route_plan` / :func:`plan_endpoints` — the same DAG flattened into
  one node array with per-node parent-index tables, the form the policy DP
  runs on;
* :func:`bfs_layers` / :func:`single_source_unit_costs` — one source's BFS
  layers with parent tables, and the batched min-plus pricing over them;
* :func:`enumerate_paths` — explicit enumeration of equal-cost (optionally
  slack-extended) paths, used by the exact solver and by tests as ground
  truth.

Every structure here depends only on the topology graph, which is immutable
after construction, so each is memoised per topology and never goes stale;
failures are masked by the consumers when they gather costs.
"""

from __future__ import annotations

import weakref
from typing import NamedTuple, Sequence

import numpy as np

from .base import Topology, UNREACHABLE

# Per-topology memos, keyed weakly by the topology object (entries vanish
# with their topology).  A plain id(topology)-keyed dict would be wrong: once
# a topology is garbage-collected a *new* topology can reuse the same id()
# and silently inherit the old one's structures, making the policy DP walk a
# graph that no longer exists (surfaced by the randomized property suite,
# which builds hundreds of short-lived topologies).

#: (src, dst) -> stage tuples of :func:`shortest_path_stages`.
_STAGE_CACHE: "weakref.WeakKeyDictionary[Topology, dict[tuple[int, int], list[tuple[int, ...]]]]" = (
    weakref.WeakKeyDictionary()
)
#: (src, dst) -> :class:`RoutePlan`.
_PLAN_CACHE: "weakref.WeakKeyDictionary[Topology, dict[tuple[int, int], RoutePlan]]" = (
    weakref.WeakKeyDictionary()
)
#: (shape, bytes) -> the one read-only parent table every structurally
#: identical plan stage shares.  A fabric has a handful of stage shapes, so
#: this stays small however many pairs are routed.
_TABLE_CACHE: "weakref.WeakKeyDictionary[Topology, dict[tuple[tuple[int, ...], bytes], np.ndarray]]" = (
    weakref.WeakKeyDictionary()
)
#: ``tuple(range(num_nodes))`` of :func:`node_ints`.
_NODE_IDS: "weakref.WeakKeyDictionary[Topology, tuple[int, ...]]" = (
    weakref.WeakKeyDictionary()
)
#: Per node: the one switch a single-homed server hangs off, else -1.
_ATTACH_CACHE: "weakref.WeakKeyDictionary[Topology, tuple[int, ...]]" = (
    weakref.WeakKeyDictionary()
)
#: src -> (layers, parent tables) of :func:`bfs_layers`.
_LAYER_CACHE: "weakref.WeakKeyDictionary[Topology, dict[int, tuple[list[np.ndarray], list[np.ndarray]]]]" = (
    weakref.WeakKeyDictionary()
)

__all__ = [
    "RoutePlan",
    "shortest_path_stages",
    "route_plan",
    "route_plans",
    "plan_endpoints",
    "node_ints",
    "attach_table",
    "bfs_layers",
    "single_source_unit_costs",
    "enumerate_paths",
    "count_shortest_paths",
]


def _per_topology(cache: weakref.WeakKeyDictionary, topology: Topology) -> dict:
    entry = cache.get(topology)
    if entry is None:
        entry = cache[topology] = {}
    return entry


def _parent_table(values: np.ndarray, member: np.ndarray, pad: int) -> np.ndarray:
    """Compact each row's ``member`` entries of ``values`` to its front.

    Members keep their order; the table is as wide as the row with the most
    members and the rest is filled with ``pad``.  Returned read-only.
    """
    rows, cols = np.nonzero(member)
    # A member's slot is the number of members before it in its row.
    slots = np.cumsum(member, axis=1)[rows, cols] - 1
    table = np.full((member.shape[0], int(slots.max()) + 1), pad, dtype=np.intp)
    table[rows, slots] = values[rows, cols]
    table.setflags(write=False)
    return table


class RoutePlan(NamedTuple):
    """The shortest-path stage DAG between two nodes, flattened for the DP.

    Stage ``k`` (the nodes at hop ``k`` of some shortest path, ascending
    ids) is ``nodes[bounds[k]:bounds[k + 1]]``; stage 0 is the source alone
    and the last stage the destination alone.  ``parents[k - 1]`` has one
    row per stage-``k`` node listing the flat indices of its stage-``k-1``
    neighbours in ascending order, padded with ``len(nodes)`` to the stage's
    largest in-degree.  Parent tables are shared, read-only, between every
    plan of the topology whose stage has the same table.  ``path`` is the
    plan's one path as node-id ints when every stage holds one node, else
    ``None``: a multi-path plan keeps its nodes only as the array the DP
    gathers through.
    """

    nodes: np.ndarray
    bounds: tuple[int, ...]
    parents: tuple[np.ndarray, ...]
    path: tuple[int, ...] | None


def _stage_order(
    topology: Topology, src: int, dst: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Shortest-path stage nodes between ``src`` and ``dst``, flattened:
    stage ``k`` is ``nodes[bounds[k]:bounds[k + 1]]`` (ascending ids).

    Raises ``ValueError`` when the endpoints are disconnected.
    """
    dist_src = topology.hop_distances_from(src)
    dist_dst = topology.hop_distances_from(dst)
    total = int(dist_src[dst])
    if total == UNREACHABLE:
        raise ValueError(f"no path between {src} and {dst}")
    # Nodes on some shortest path satisfy d(src, n) + d(n, dst) == total;
    # a stable sort by depth groups them into stages of ascending ids.
    on_path = np.flatnonzero(dist_src + dist_dst == total)
    depth = dist_src[on_path]
    order = np.argsort(depth, kind="stable")
    bounds = np.searchsorted(depth[order], np.arange(total + 2))
    return on_path[order], tuple(bounds.tolist())


def route_plans(topology: Topology) -> dict[tuple[int, int], RoutePlan]:
    """The memo of :func:`route_plan` for one topology, ``(src, dst) ->
    plan``.  The dict lives as long as the topology; a caller that routes
    many flows may hold it and call :func:`route_plan` only on a miss."""
    return _per_topology(_PLAN_CACHE, topology)


def route_plan(topology: Topology, src: int, dst: int) -> RoutePlan:
    """The :class:`RoutePlan` between ``src`` and ``dst``, memoised.

    Every stage's parent table comes out of one pass over the plan's
    non-source rows: each row keeps the neighbours that lie in its own
    previous stage, compacted to the front in ascending order, and each
    stage is cut to its widest row.  Each stage's table is interned per
    topology, so the memo grows with the fabric's distinct stage shapes,
    not with the pairs routed.

    Raises ``ValueError`` when the endpoints are disconnected.
    """
    plans = route_plans(topology)
    plan = plans.get((src, dst))
    if plan is not None:
        return plan
    nodes, bounds = _stage_order(topology, src, dst)
    nodes.setflags(write=False)
    parents: list[np.ndarray] = []
    if nodes.size > 1:
        index = np.full(topology.num_nodes + 1, -1, dtype=np.intp)
        index[nodes] = np.arange(nodes.size)
        edges = np.asarray(bounds)
        # Per non-source row: the flat bounds of the stage before its own.
        sizes = np.diff(edges)[1:]
        lo = np.repeat(edges[:-2], sizes)[:, None]
        hi = np.repeat(edges[1:-1], sizes)[:, None]
        flat = index[topology.neighbor_table()[nodes[1:]]]
        member = (flat >= lo) & (flat < hi)
        rows, cols = np.nonzero(member)
        # A member's slot is the number of members before it in its row.
        slots = np.cumsum(member, axis=1)[rows, cols] - 1
        widths = np.maximum.reduceat(member.sum(axis=1), edges[1:-1] - 1)
        table = np.full(
            (nodes.size - 1, int(widths.max())), nodes.size, dtype=np.intp
        )
        table[rows, slots] = flat[rows, cols]
        shared = _per_topology(_TABLE_CACHE, topology)
        for k, width in enumerate(widths.tolist(), start=1):
            stage = table[bounds[k] - 1 : bounds[k + 1] - 1, :width]
            key = (stage.shape, stage.tobytes())
            interned = shared.get(key)
            if interned is None:
                interned = shared[key] = stage.copy()
                interned.setflags(write=False)
            parents.append(interned)
    path = None
    if nodes.size == len(bounds) - 1:
        ids = node_ints(topology)
        path = tuple([ids[i] for i in nodes.tolist()])
    plan = RoutePlan(nodes, bounds, tuple(parents), path)
    plans[(src, dst)] = plan
    return plan


def node_ints(topology: Topology) -> tuple[int, ...]:
    """``tuple(range(num_nodes))``, one per topology: the paths of plans and
    routes reference these ints instead of each allocating its own for every
    id above 256."""
    ids = _NODE_IDS.get(topology)
    if ids is None:
        ids = _NODE_IDS[topology] = tuple(range(topology.num_nodes))
    return ids


def attach_table(topology: Topology) -> tuple[int, ...]:
    """Per node id: the one switch a single-homed server hangs off, else
    ``-1`` (switches, multi-homed servers).  Memoised per topology."""
    attach = _ATTACH_CACHE.get(topology)
    if attach is None:
        homes = []
        for u in range(topology.num_nodes):
            neigh = topology.neighbors(u)
            single = (
                topology.is_server(u)
                and len(neigh) == 1
                and topology.is_switch(neigh[0])
            )
            homes.append(neigh[0] if single else -1)
        attach = _ATTACH_CACHE[topology] = tuple(homes)
    return attach


def plan_endpoints(topology: Topology, src: int, dst: int) -> tuple[int, int]:
    """The node pair a route between ``src`` and ``dst`` is planned over.

    A single-homed server's every route begins (or ends) with its one access
    link, so between two servers single-homed on *different* switches the
    stage DAG is the switches' DAG with one server at each end.  Such pairs
    share the plan of their switch pair; every other pair (multi-homed
    servers as in BCube, two servers on one switch, switch endpoints) is
    planned over itself.
    """
    attach = attach_table(topology)
    a, b = attach[src], attach[dst]
    if a < 0 or b < 0 or a == b:
        return src, dst
    return a, b


def shortest_path_stages(
    topology: Topology, src: int, dst: int
) -> list[tuple[int, ...]]:
    """Candidate node sets per position of any shortest ``src``→``dst`` path.

    Returns ``stages`` with ``stages[0] == (src,)``, ``stages[-1] == (dst,)``
    and ``stages[j]`` = every node ``n`` with ``d(src, n) == j`` and
    ``d(n, dst) == D - j`` where ``D`` is the shortest-path hop distance.  Two
    consecutive stages are always joined by at least one physical link, but
    not every cross-stage node pair is adjacent — the policy DP must check
    adjacency edge by edge.

    Raises ``ValueError`` when the endpoints are disconnected.
    """
    if src == dst:
        return [(src,)]
    per_topo = _per_topology(_STAGE_CACHE, topology)
    stages = per_topo.get((src, dst))
    if stages is None:
        nodes, bounds = _stage_order(topology, src, dst)
        ids = tuple(nodes.tolist())
        stages = [ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        per_topo[(src, dst)] = stages
    return stages


def bfs_layers(
    topology: Topology, src: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """BFS layer decomposition from ``src`` with per-node parent tables.

    ``layers[d]`` holds every node at hop distance ``d`` from ``src``
    (ascending ids; unreachable nodes appear in no layer).  ``parents[d]``
    has one row per node of ``layers[d + 1]`` listing its neighbours in
    ``layers[d]`` (ascending ids), padded with ``num_nodes`` to that layer's
    largest in-degree.  This is the structure
    :func:`single_source_unit_costs` prices routes over — any hop-shortest
    path to a node at layer ``d`` enters it from layer ``d-1``.  Cached per
    (topology, src).
    """
    per_topo = _per_topology(_LAYER_CACHE, topology)
    cached = per_topo.get(src)
    if cached is not None:
        return cached
    dist = topology.hop_distances_from(src)
    max_depth = int(dist.max())
    layers = [np.flatnonzero(dist == d) for d in range(max_depth + 1)]
    # Padding gathers an unreachable depth, so it is never a member.
    depth = np.append(dist, UNREACHABLE)
    table = topology.neighbor_table()
    parents = []
    for d in range(1, len(layers)):
        neigh = table[layers[d]]
        parents.append(
            _parent_table(neigh, depth[neigh] == d - 1, topology.num_nodes)
        )
    entry = (layers, parents)
    per_topo[src] = entry
    return entry


def single_source_unit_costs(
    topology: Topology, src: int, node_costs: np.ndarray
) -> np.ndarray:
    """Minimum traversal cost over hop-shortest paths from ``src`` to every
    node, in one layered min-plus pass.

    ``node_costs[n]`` is the cost contributed by traversing node ``n``
    (0.0 for servers, the load-derived switch cost for switches).  The return
    value ``best`` has ``best[n]`` equal to the minimum, over all
    *hop-shortest* ``src → n`` paths, of the sum of node costs along the path
    (``inf`` for unreachable nodes).  For a destination server this is
    exactly the relaxed-capacity pair cost the per-pair stage DP computes —
    every prefix of a hop-shortest path is itself hop-shortest, so the
    per-layer recurrence ``best[n] = min over parents of best[parent]``
    plus ``node_costs[n]`` prices all destinations at once.
    """
    layers, parents = bfs_layers(topology, src)
    # One trailing inf slot: the parent tables' padding gathers it.
    best = np.full(topology.num_nodes + 1, np.inf, dtype=np.float64)
    best[src] = node_costs[src]
    for nodes, table in zip(layers[1:], parents):
        best[nodes] = best[table].min(axis=1) + node_costs[nodes]
    return best[:-1]


def enumerate_paths(
    topology: Topology,
    src: int,
    dst: int,
    slack: int = 0,
    limit: int = 10_000,
) -> list[tuple[int, ...]]:
    """All simple paths from ``src`` to ``dst`` of length ≤ shortest + slack.

    Enumeration is a depth-first search pruned with the distance-to-target
    labels, so the search only ever expands prefixes that can still finish
    within budget.  ``limit`` caps the number of returned paths (a fat-tree
    pair can have hundreds); paths are produced in lexicographic neighbour
    order so the output is deterministic.
    """
    if slack < 0:
        raise ValueError("slack must be >= 0")
    if src == dst:
        return [(src,)]
    dist_dst = topology.hop_distances_from(dst)
    if dist_dst[src] == UNREACHABLE:
        raise ValueError(f"no path between {src} and {dst}")
    budget = int(dist_dst[src]) + slack

    paths: list[tuple[int, ...]] = []
    prefix: list[int] = [src]
    on_path = {src}

    def dfs(node: int, remaining: int) -> None:
        if len(paths) >= limit:
            return
        for neigh in topology.neighbors(node):
            if neigh in on_path:
                continue
            if neigh == dst:
                paths.append(tuple(prefix) + (dst,))
                if len(paths) >= limit:
                    return
                continue
            needed = dist_dst[neigh]
            if needed == UNREACHABLE or needed > remaining - 1:
                continue
            prefix.append(neigh)
            on_path.add(neigh)
            dfs(neigh, remaining - 1)
            prefix.pop()
            on_path.remove(neigh)

    dfs(src, budget)
    return paths


def count_shortest_paths(topology: Topology, src: int, dst: int) -> int:
    """Number of distinct shortest paths between two nodes.

    Computed by dynamic programming over the shortest-path DAG (product of
    per-stage adjacency counts), so it stays cheap even when explicit
    enumeration would blow up.
    """
    if src == dst:
        return 1
    stages = shortest_path_stages(topology, src, dst)
    counts = {src: 1}
    for stage in stages[1:]:
        nxt: dict[int, int] = {}
        for node in stage:
            total = sum(
                c for prev, c in counts.items() if topology.has_link(prev, node)
            )
            if total:
                nxt[node] = total
        counts = nxt
    return counts.get(dst, 0)


def path_is_valid(topology: Topology, path: Sequence[int]) -> bool:
    """True when consecutive nodes of ``path`` are physically adjacent and no
    node repeats."""
    if len(path) != len(set(path)):
        return False
    return all(topology.has_link(a, b) for a, b in zip(path, path[1:]))
