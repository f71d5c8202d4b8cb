"""Core network-substrate data structures.

The paper evaluates Hit-Scheduler on hierarchical data-center networks
(canonical multi-tier trees, Fat-Tree, VL2 and BCube).  This module provides
the topology-neutral building blocks those generators share:

* :class:`Switch` — a forwarding element with a *tier* (access / aggregation /
  core), a *type* string used by traffic policies (Eq 4 of the paper requires
  rescheduled switches to preserve the type) and a *capacity* bounding the sum
  of flow rates it may carry.
* :class:`Server` — a compute host with a resource capacity vector.
* :class:`Link` — an undirected physical link with full-duplex bandwidth and a
  propagation latency.
* :class:`Topology` — the graph of servers, switches and links, with the
  queries every other layer needs: BFS hop distances, shortest paths, the
  switch sequence of a path, and tier metadata.

All node identifiers are small contiguous integers so that hot paths can use
NumPy arrays indexed by node id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "Tier",
    "Switch",
    "Server",
    "Link",
    "Topology",
    "UNREACHABLE",
]

#: Sentinel hop distance for disconnected node pairs.
UNREACHABLE: int = -1


class Tier(IntEnum):
    """Switch tier in a hierarchical data-center network.

    Lower values are closer to the servers.  Topologies that do not follow the
    canonical three-tier structure (e.g. BCube levels) still map their layers
    onto these values so that policies can reason about "type" uniformly.
    """

    ACCESS = 0
    AGGREGATION = 1
    CORE = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Switch:
    """A switch in the hierarchical network.

    Parameters mirror the paper's switch model (Section 3.1): every switch
    ``w_i`` carries ``{capacity, type}``.  ``capacity`` bounds the total rate
    of the flows whose policy routes them through this switch (fifth
    constraint of Eq 3); ``type`` is checked by policy satisfaction (sixth
    constraint).
    """

    node_id: int
    name: str
    tier: Tier
    capacity: float
    #: Free-form type tag.  Defaults to the tier label; topologies with richer
    #: structure (e.g. VL2 intermediate switches) may refine it.
    switch_type: str = ""

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"switch {self.name}: capacity must be positive")
        if not self.switch_type:
            object.__setattr__(self, "switch_type", self.tier.label)


@dataclass(frozen=True)
class Server:
    """A physical server hosting containers.

    ``resource_capacity`` is the available physical resource ``q_j`` of the
    paper (Section 3.1) expressed as an opaque vector; the cluster layer
    interprets the components (memory, vcores).
    """

    node_id: int
    name: str
    resource_capacity: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if any(c < 0 for c in self.resource_capacity):
            raise ValueError(f"server {self.name}: negative resource capacity")


@dataclass(frozen=True)
class Link:
    """An undirected physical link.

    ``bandwidth`` is the full-duplex capacity per direction (rate units) and
    ``latency`` the propagation delay contributed by traversing the link.
    """

    u: int
    v: int
    bandwidth: float
    latency: float = 1.0

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError("self-links are not allowed")
        if self.bandwidth <= 0:
            raise ValueError("link bandwidth must be positive")
        if self.latency < 0:
            raise ValueError("link latency must be non-negative")

    @property
    def key(self) -> tuple[int, int]:
        """Canonical undirected key (smaller id first)."""
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class Topology:
    """A hierarchical data-center network.

    The class is intentionally immutable after construction: generators build
    the node and link sets once, then every consumer (schedulers, the flow
    simulator, the policy controller) only queries it.  Mutable run-time state
    (switch load, link utilisation) lives in the consumers.
    """

    def __init__(
        self,
        servers: Sequence[Server],
        switches: Sequence[Switch],
        links: Iterable[Link],
        name: str = "topology",
    ) -> None:
        self.name = name
        self._servers: dict[int, Server] = {s.node_id: s for s in servers}
        self._switches: dict[int, Switch] = {w.node_id: w for w in switches}
        if set(self._servers) & set(self._switches):
            raise ValueError("server and switch node ids overlap")
        self._num_nodes = len(self._servers) + len(self._switches)
        ids = sorted(self._servers) + sorted(self._switches)
        if ids != list(range(self._num_nodes)):
            raise ValueError(
                "node ids must be contiguous integers with servers first"
            )
        self._links: dict[tuple[int, int], Link] = {}
        adjacency: list[list[int]] = [[] for _ in range(self._num_nodes)]
        for link in links:
            if link.u >= self._num_nodes or link.v >= self._num_nodes:
                raise ValueError(f"link {link.key} references unknown node")
            if link.key in self._links:
                raise ValueError(f"duplicate link {link.key}")
            self._links[link.key] = link
            adjacency[link.u].append(link.v)
            adjacency[link.v].append(link.u)
        self._adjacency: list[tuple[int, ...]] = [
            tuple(sorted(neigh)) for neigh in adjacency
        ]
        self._distance_cache: dict[int, np.ndarray] = {}
        # The narrowest signed dtype holding ``2 * num_nodes``: every hop
        # distance, the UNREACHABLE sentinel and the sum of two distances
        # (the stage test of ``routing._stage_order``) fit without overflow.
        self._distance_dtype = next(
            t for t in (np.int8, np.int16, np.int32, np.int64)
            if np.iinfo(t).max >= 2 * self._num_nodes
        )
        self._neighbor_table: np.ndarray | None = None

    # ------------------------------------------------------------------ nodes
    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def num_servers(self) -> int:
        return len(self._servers)

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    @property
    def server_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._servers))

    @property
    def switch_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._switches))

    def is_server(self, node_id: int) -> bool:
        return node_id in self._servers

    def is_switch(self, node_id: int) -> bool:
        return node_id in self._switches

    def server(self, node_id: int) -> Server:
        return self._servers[node_id]

    def switch(self, node_id: int) -> Switch:
        return self._switches[node_id]

    def servers(self) -> Iterator[Server]:
        for node_id in sorted(self._servers):
            yield self._servers[node_id]

    def switches(self) -> Iterator[Switch]:
        for node_id in sorted(self._switches):
            yield self._switches[node_id]

    def switches_of_tier(self, tier: Tier) -> tuple[int, ...]:
        return tuple(
            w.node_id for w in self.switches() if w.tier == tier
        )

    def tier_of(self, node_id: int) -> Tier:
        return self._switches[node_id].tier

    # ------------------------------------------------------------------ links
    @property
    def links(self) -> tuple[Link, ...]:
        return tuple(self._links[k] for k in sorted(self._links))

    def link(self, u: int, v: int) -> Link:
        """Return the undirected link between ``u`` and ``v``.

        Raises ``KeyError`` when the nodes are not adjacent.
        """
        key = (u, v) if u < v else (v, u)
        return self._links[key]

    def has_link(self, u: int, v: int) -> bool:
        key = (u, v) if u < v else (v, u)
        return key in self._links

    def neighbors(self, node_id: int) -> tuple[int, ...]:
        return self._adjacency[node_id]

    def neighbor_table(self) -> np.ndarray:
        """Padded neighbour table: row ``u`` lists :meth:`neighbors` of ``u``
        (ascending ids), padded with ``num_nodes`` up to the largest degree.

        Built once on first use and returned read-only.  The pad value is
        one past the last node id, so array kernels gather through it from
        node-indexed arrays that carry one trailing sentinel slot.
        """
        if self._neighbor_table is None:
            width = max((len(neigh) for neigh in self._adjacency), default=0)
            table = np.full(
                (self._num_nodes, width), self._num_nodes, dtype=np.intp
            )
            for u, neigh in enumerate(self._adjacency):
                table[u, : len(neigh)] = neigh
            table.setflags(write=False)
            self._neighbor_table = table
        return self._neighbor_table

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    # -------------------------------------------------------------- distances
    def hop_distances_from(self, source: int) -> np.ndarray:
        """BFS hop distances from ``source`` to every node.

        Unreachable nodes get :data:`UNREACHABLE`.  The BFS expands one whole
        frontier per step through :meth:`neighbor_table`.  Results are cached
        per source, so the cache holds one row of ``num_nodes`` entries per
        source ever queried: up to ``num_nodes ** 2`` entries over a run.
        Rows are therefore stored in the narrowest signed integer dtype that
        holds ``2 * num_nodes`` (``int16``, a quarter of ``int64``, from 64
        to 16,383 nodes) and returned read-only.
        """
        cached = self._distance_cache.get(source)
        if cached is not None:
            return cached
        table = self.neighbor_table()
        n = self._num_nodes
        # The trailing slot absorbs the table's padding; marking it reached
        # keeps it out of every frontier.
        dist = np.full(n + 1, UNREACHABLE, dtype=self._distance_dtype)
        dist[n] = 0
        dist[source] = 0
        frontier = np.array([source], dtype=np.intp)
        depth = 0
        while frontier.size:
            depth += 1
            reach = table[frontier].ravel()
            reach = reach[dist[reach] == UNREACHABLE]
            dist[reach] = depth
            frontier = np.flatnonzero(dist == depth)
        dist = dist[:n]
        dist.setflags(write=False)
        self._distance_cache[source] = dist
        return dist

    def hop_distance(self, u: int, v: int) -> int:
        """Hop distance between two nodes (:data:`UNREACHABLE` if none)."""
        return int(self.hop_distances_from(u)[v])

    def shortest_path(self, u: int, v: int) -> tuple[int, ...]:
        """One deterministic shortest path from ``u`` to ``v`` (inclusive).

        Ties are broken toward the lowest-numbered neighbour so repeated calls
        are stable, which keeps baseline schedulers reproducible.
        """
        if u == v:
            return (u,)
        dist_from_v = self.hop_distances_from(v)
        if dist_from_v[u] == UNREACHABLE:
            raise ValueError(f"no path between {u} and {v}")
        path = [u]
        node = u
        while node != v:
            remaining = dist_from_v[node]
            node = min(
                n for n in self._adjacency[node] if dist_from_v[n] == remaining - 1
            )
            path.append(node)
        return tuple(path)

    def switches_on_path(self, path: Sequence[int]) -> tuple[int, ...]:
        """The subsequence of ``path`` that are switches."""
        return tuple(n for n in path if n in self._switches)

    def path_latency(self, path: Sequence[int]) -> float:
        """Sum of link latencies along a node path."""
        return float(
            sum(self.link(a, b).latency for a, b in zip(path, path[1:]))
        )

    def path_links(self, path: Sequence[int]) -> tuple[tuple[int, int], ...]:
        """Directed (u, v) pairs for each hop of a node path."""
        return tuple((a, b) for a, b in zip(path, path[1:]))

    def min_bandwidth_on_path(self, path: Sequence[int]) -> float:
        """Bottleneck link bandwidth along a node path."""
        return min(self.link(a, b).bandwidth for a, b in zip(path, path[1:]))

    # ------------------------------------------------------------------ misc
    def validate(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        * every server has at least one link (it can reach the fabric);
        * the graph is connected across servers (any server pair can shuffle).
        """
        for server in self.servers():
            if not self._adjacency[server.node_id]:
                raise ValueError(f"server {server.name} is disconnected")
        server_ids = self.server_ids
        if server_ids:
            dist = self.hop_distances_from(server_ids[0])
            stranded = [s for s in server_ids if dist[s] == UNREACHABLE]
            if stranded:
                raise ValueError(f"servers unreachable from {server_ids[0]}: {stranded}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology({self.name!r}, servers={self.num_servers}, "
            f"switches={self.num_switches}, links={len(self._links)})"
        )
