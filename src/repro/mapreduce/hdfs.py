"""HDFS-like block placement with rack-aware replication.

The paper's Figure 1 contrasts *remote Map traffic* (a Map task reading its
input split from a server that does not hold a replica) with *shuffle
traffic*.  To regenerate that figure we need a distributed-file-system
substrate: this module places each job's input blocks on servers following
HDFS's default policy — first replica on a random server, second on a
different rack, third on another server of that second rack — and answers
locality queries for Map placement.

Racks are derived from the topology: two servers share a rack when they share
an access switch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..topology.base import Tier, Topology
from .job import JobSpec

__all__ = ["BlockPlacement", "HdfsModel", "rack_of_servers"]


def rack_of_servers(topology: Topology) -> dict[int, int]:
    """Map each server id to a rack id (its lowest-numbered access switch).

    Servers connected to no access switch (possible in exotic fabrics) get a
    rack of their own, keyed by their negated id so it cannot collide.
    """
    racks: dict[int, int] = {}
    for sid in topology.server_ids:
        access = [
            n
            for n in topology.neighbors(sid)
            if topology.is_switch(n) and topology.tier_of(n) == Tier.ACCESS
        ]
        racks[sid] = min(access) if access else -sid - 1
    return racks


@dataclass(frozen=True)
class BlockPlacement:
    """Replica locations of one input block: a tuple of server ids."""

    block_index: int
    replicas: tuple[int, ...]

    def is_local(self, server_id: int) -> bool:
        return server_id in self.replicas


class HdfsModel:
    """Block placement and locality queries for a cluster.

    One block per Map task (the Hadoop default of one split per block).  The
    replication factor is capped by the number of servers.
    """

    def __init__(
        self,
        topology: Topology,
        replication: int = 3,
        seed: int | np.random.Generator = 0,
    ) -> None:
        self.topology = topology
        self.replication = min(replication, topology.num_servers)
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._racks = rack_of_servers(topology)
        self._servers_by_rack: dict[int, list[int]] = {}
        for sid, rack in self._racks.items():
            self._servers_by_rack.setdefault(rack, []).append(sid)
        self._placements: dict[int, list[BlockPlacement]] = {}

    def rack_of(self, server_id: int) -> int:
        return self._racks[server_id]

    # ------------------------------------------------------------- placement
    def place_job_blocks(self, spec: JobSpec) -> list[BlockPlacement]:
        """Place one block per Map task of ``spec``; idempotent per job.

        HDFS's write path puts the first replica of every block on the node
        that wrote the file.  A job's input is typically ingested by a small
        set of client nodes, so block placements *cluster*: we sample a
        writer per job and give each block's first replica to the writer with
        probability ``writer_affinity`` (datanodes fill up and spill
        otherwise).  This clustering is what makes topology-aware reduce
        placement profitable in real clusters.
        """
        if spec.job_id in self._placements:
            return self._placements[spec.job_id]
        writer = int(self._rng.choice(list(self.topology.server_ids)))
        placements = [
            self._place_block(i, writer) for i in range(spec.num_maps)
        ]
        self._placements[spec.job_id] = placements
        return placements

    #: Probability that a block's first replica lands on the job's writer
    #: node (HDFS write-pipeline locality); the rest spill cluster-wide.
    writer_affinity: float = 0.7

    def _place_block(self, block_index: int, writer: int | None = None) -> BlockPlacement:
        servers = list(self.topology.server_ids)
        if writer is not None and self._rng.random() < self.writer_affinity:
            first = writer
        else:
            first = int(self._rng.choice(servers))
        replicas = [first]
        if self.replication >= 2:
            other_racks = [
                r for r in self._servers_by_rack if r != self._racks[first]
            ]
            if other_racks:
                rack = other_racks[int(self._rng.integers(len(other_racks)))]
                second = int(
                    self._rng.choice(self._servers_by_rack[rack])
                )
            else:  # single-rack cluster: fall back to any other server
                pool = [s for s in servers if s not in replicas]
                second = int(self._rng.choice(pool)) if pool else first
            if second not in replicas:
                replicas.append(second)
        while len(replicas) < self.replication:
            # Third and later replicas: same rack as the second when possible.
            anchor_rack = self._racks[replicas[-1]]
            pool = [
                s
                for s in self._servers_by_rack[anchor_rack]
                if s not in replicas
            ] or [s for s in servers if s not in replicas]
            if not pool:
                break
            replicas.append(int(self._rng.choice(pool)))
        return BlockPlacement(block_index=block_index, replicas=tuple(replicas))

    def blocks_of(self, job_id: int) -> list[BlockPlacement]:
        return self._placements[job_id]

    # -------------------------------------------------------------- locality
    def locality(self, job_id: int, block_index: int, server_id: int) -> str:
        """Classify a Map placement: ``node-local``/``rack-local``/``remote``."""
        block = self._placements[job_id][block_index]
        if block.is_local(server_id):
            return "node-local"
        my_rack = self._racks[server_id]
        if any(self._racks[r] == my_rack for r in block.replicas):
            return "rack-local"
        return "remote"

    def remote_map_traffic(
        self, spec: JobSpec, map_servers: dict[int, int]
    ) -> float:
        """Input bytes fetched remotely given Map placements.

        ``map_servers`` maps map index -> hosting server.  A node-local read
        costs nothing; rack-local and remote reads transfer the full split
        (Hadoop streams the block either way; the *rate* differs but the
        figure counts volume).
        """
        blocks = self._placements[spec.job_id]
        split = spec.map_input_size
        total = 0.0
        for idx, server in map_servers.items():
            if not blocks[idx].is_local(server):
                total += split
        return total
