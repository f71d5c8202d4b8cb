"""Capacity placement + ECMP multipath routing.

The paper's baselines pin each flow to one static route; real fabrics with
redundant switches usually hash flows across the equal-cost path set (ECMP).
This variant isolates the question "how much of Hit's win is just *using*
the extra paths?": placement is the stock Capacity scheduler's, routing
spreads flows uniformly over shortest paths — load-blind, size-blind.
The remaining gap to Hit is the value of *load-aware* policy optimisation
plus task placement.
"""

from __future__ import annotations

from ..core.taa import TAAInstance
from .capacity import CapacityScheduler

__all__ = ["EcmpCapacityScheduler"]


class EcmpCapacityScheduler(CapacityScheduler):
    """Topology-unaware placement; hash-spread multipath routing."""

    name = "capacity-ecmp"
    network_aware = False
    #: Engine hook: baselines with this flag get per-flow random equal-cost
    #: routes instead of the deterministic static shortest path.
    ecmp = True
    #: Route-provenance records for this scheduler carry the hash-spread
    #: reason code instead of the static-route default.
    route_reason = "ecmp-hash"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed

    def route_flows(self, taa: TAAInstance) -> None:
        taa.install_ecmp_policies(seed=self.seed)

