"""Mutable cluster state: placements of containers on servers.

:class:`ClusterState` couples an immutable
:class:`~repro.topology.base.Topology` with the run-time placement map
``A(c_i) -> s_j`` of the paper, enforcing the server-capacity constraint
``sum r_i <= q_j`` on every mutation.  It also implements Eq 8 — the set
``O(c_i)`` of candidate servers that could host a container — which both the
preference construction and the stable-matching assignment consume.
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Optional

from ..topology.base import Topology
from .container import Container
from .resources import Resources

__all__ = ["ClusterState"]


class ClusterState:
    """Containers placed on the servers of a topology.

    The class owns the containers (keyed by id) and maintains, per server,
    the multiset of hosted containers plus a cached residual-resource vector
    so feasibility checks are O(1).

    Containers are never removed: a finished task's container is unplaced
    but stays registered, so :meth:`containers` grows with the run's
    history.  Code that runs once per scheduling wave must reach state
    through per-container and per-server accessors (:meth:`container`,
    :meth:`hosted_on`, :meth:`load_excluding`), never by scanning it.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._capacity: dict[int, Resources] = {
            s.node_id: Resources.from_tuple(s.resource_capacity)
            for s in topology.servers()
        }
        self._used: dict[int, Resources] = {
            sid: Resources.zero() for sid in self._capacity
        }
        self._hosted: dict[int, set[int]] = {sid: set() for sid in self._capacity}
        self._containers: dict[int, Container] = {}
        #: Servers currently failed (fault injection): excluded from every
        #: placement-feasibility query until they recover.
        self._failed: set[int] = set()

    # -------------------------------------------------------------- containers
    def add_container(self, container: Container) -> None:
        """Register a container; if it carries a ``server_id`` it is placed."""
        if container.container_id in self._containers:
            raise ValueError(f"duplicate container id {container.container_id}")
        self._containers[container.container_id] = container
        if container.server_id is not None:
            server_id = container.server_id
            container.server_id = None
            self.place(container.container_id, server_id)

    def add_containers(self, containers: Iterable[Container]) -> None:
        for c in containers:
            self.add_container(c)

    def container(self, container_id: int) -> Container:
        return self._containers[container_id]

    def containers(self) -> Iterator[Container]:
        for cid in sorted(self._containers):
            yield self._containers[cid]

    @property
    def num_containers(self) -> int:
        return len(self._containers)

    def unplaced_containers(self) -> list[Container]:
        """Containers with ``A(c_i) = 0`` — the work list of Algorithm 2."""
        return [c for c in self.containers() if not c.is_placed]

    # ----------------------------------------------------------------- servers
    @property
    def server_ids(self) -> tuple[int, ...]:
        return self.topology.server_ids

    def capacity(self, server_id: int) -> Resources:
        return self._capacity[server_id]

    def used(self, server_id: int) -> Resources:
        return self._used[server_id]

    def residual(self, server_id: int) -> Resources:
        return self._capacity[server_id] - self._used[server_id]

    def hosted_on(self, server_id: int) -> tuple[int, ...]:
        """Container ids hosted on a server — the paper's ``A(s_j)``."""
        return tuple(sorted(self._hosted[server_id]))

    def load_excluding(
        self, server_id: int, excluded: AbstractSet[int]
    ) -> Resources:
        """Demand on a server from its containers outside ``excluded``.

        Summed in ascending container id order, so the float result does
        not depend on placement history.  Costs one pass over the server's
        own containers, never the whole cluster.
        """
        total = Resources.zero()
        for cid in self.hosted_on(server_id):
            if cid not in excluded:
                total = total + self._containers[cid].demand
        return total

    def num_hosted(self, server_id: int) -> int:
        """``len(hosted_on(server_id))`` without sorting the ids."""
        return len(self._hosted[server_id])

    def fits(self, container_id: int, server_id: int) -> bool:
        """True when the server has residual capacity for the container.

        Failed servers never fit anything — this is the single gate every
        scheduler's placement loop goes through, so marking a server failed
        blacklists it everywhere at once.
        """
        if server_id in self._failed:
            return False
        demand = self._containers[container_id].demand
        return demand.fits_in(self.residual(server_id))

    # ---------------------------------------------------------- failure state
    @property
    def failed_servers(self) -> frozenset[int]:
        """Servers currently marked failed (empty when no faults are live)."""
        return frozenset(self._failed)

    def is_failed(self, server_id: int) -> bool:
        return server_id in self._failed

    def fail_server(self, server_id: int) -> None:
        """Mark a server failed: no new placements until it recovers.

        Containers already hosted there are *not* evicted here — the caller
        (the simulator's recovery layer) owns task-level recovery and must
        unplace them explicitly, deciding what each lost task means.
        """
        if server_id not in self._capacity:
            raise KeyError(f"unknown server {server_id}")
        self._failed.add(server_id)

    def recover_server(self, server_id: int) -> None:
        """Return a failed server to service (idempotent)."""
        if server_id not in self._capacity:
            raise KeyError(f"unknown server {server_id}")
        self._failed.discard(server_id)

    # ------------------------------------------------------------- occupancy
    def total_capacity(self) -> Resources:
        """Aggregate capacity of the *live* (non-failed) servers."""
        return self._live_sum(self._capacity)

    def total_used(self) -> Resources:
        """Aggregate usage on the live servers."""
        return self._live_sum(self._used)

    def _live_sum(self, per_server: dict[int, Resources]) -> Resources:
        # Component floats accumulated left to right in server order, with
        # no intermediate vectors.  (Not ``sum()``: from Python 3.12 it
        # compensates float rounding, which would change the last ulp.)
        memory = vcores = 0.0
        for sid, resources in per_server.items():
            if sid not in self._failed:
                memory += resources.memory
                vcores += resources.vcores
        return Resources(memory, vcores)

    def occupancy(self) -> float:
        """Fraction of live cluster capacity in use, in ``[0, 1]``.

        The maximum over resource components with non-zero capacity (the
        binding dimension is what admission control cares about).  Defined
        as 1.0 when every server is failed — no capacity means full
        pressure, so backpressure consumers defer instead of dividing by
        zero.
        """
        capacity = self.total_capacity()
        if capacity.is_zero:
            return 1.0
        used = self.total_used()
        fractions = [
            u / c for u, c in zip(used, capacity) if c > 0
        ]
        return min(1.0, max(fractions))

    def candidate_servers(self, container_id: int) -> list[int]:
        """Eq 8: servers able to host the container.

        A container's *current* server is always a candidate (moving a
        container "to where it already is" is a no-op with utility 0).
        """
        container = self._containers[container_id]
        out = []
        for sid in self.server_ids:
            if sid in self._failed:
                continue
            if sid == container.server_id or container.demand.fits_in(
                self.residual(sid)
            ):
                out.append(sid)
        return out

    # --------------------------------------------------------------- mutation
    def place(self, container_id: int, server_id: int) -> None:
        """Place an unplaced container, enforcing server capacity."""
        container = self._containers[container_id]
        if container.is_placed:
            raise ValueError(f"container {container_id} is already placed")
        if server_id not in self._capacity:
            raise KeyError(f"unknown server {server_id}")
        if server_id in self._failed:
            raise ValueError(
                f"server {server_id} is failed; cannot place "
                f"container {container_id}"
            )
        if not container.demand.fits_in(self.residual(server_id)):
            raise ValueError(
                f"server {server_id} lacks capacity for container {container_id}"
            )
        container.server_id = server_id
        self._hosted[server_id].add(container_id)
        self._used[server_id] = self._used[server_id] + container.demand

    def unplace(self, container_id: int) -> None:
        """Evict a container from its server (Algorithm 2's rejection step)."""
        container = self._containers[container_id]
        if not container.is_placed:
            raise ValueError(f"container {container_id} is not placed")
        server_id = container.server_id
        assert server_id is not None
        self._hosted[server_id].discard(container_id)
        self._used[server_id] = self._used[server_id] - container.demand
        container.server_id = None

    def move(self, container_id: int, server_id: int) -> None:
        """Relocate a container atomically (unplace + place)."""
        container = self._containers[container_id]
        if container.server_id == server_id:
            return
        previous = container.server_id
        if previous is not None:
            self.unplace(container_id)
        try:
            self.place(container_id, server_id)
        except ValueError:
            if previous is not None:
                self.place(container_id, previous)
            raise

    # ------------------------------------------------------------- validation
    def validate(self) -> None:
        """Re-derive per-server usage and compare with the caches."""
        for sid in self._capacity:
            total = Resources.zero()
            for cid in self._hosted[sid]:
                c = self._containers[cid]
                if c.server_id != sid:
                    raise AssertionError(
                        f"container {cid} bookkeeping mismatch on server {sid}"
                    )
                total = total + c.demand
            if not total.matches(self._used[sid]):
                raise AssertionError(f"usage cache drift on server {sid}")
            if not total.fits_in(self._capacity[sid]):
                raise AssertionError(f"server {sid} over capacity")

    def placement_snapshot(self) -> dict[int, Optional[int]]:
        """``{container_id: server_id}`` for logging and diffing."""
        return {c.container_id: c.server_id for c in self.containers()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        placed = sum(1 for c in self._containers.values() if c.is_placed)
        return (
            f"ClusterState(servers={len(self._capacity)}, "
            f"containers={len(self._containers)}, placed={placed})"
        )
