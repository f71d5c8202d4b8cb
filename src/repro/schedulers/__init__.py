"""Pluggable scheduling strategies: Hit-Scheduler and the paper's baselines."""

from typing import Callable

from ..core.hit import HitConfig
from ..core.rebalance import RebalanceConfig
from .base import Scheduler, SchedulingContext
from .capacity import CapacityScheduler
from .ecmp import EcmpCapacityScheduler
from .hit import HitScheduler
from .pna import PNAScheduler
from .rackpack import RackPackScheduler
from .random_ import RandomScheduler

__all__ = [
    "Scheduler",
    "SchedulingContext",
    "CapacityScheduler",
    "EcmpCapacityScheduler",
    "HitScheduler",
    "PNAScheduler",
    "RackPackScheduler",
    "RandomScheduler",
    "SCHEDULERS",
    "make_scheduler",
]


def _hit_online(seed: int) -> Scheduler:
    scheduler = HitScheduler(
        HitConfig(seed=seed), online_rebalance=RebalanceConfig()
    )
    scheduler.name = "hit-online"
    return scheduler


#: Scheduler name -> ``factory(seed)``; the one list of names every harness
#: and CLI choice reads.
SCHEDULERS: dict[str, Callable[[int], Scheduler]] = {
    "capacity": lambda seed: CapacityScheduler(),
    "capacity-ecmp": lambda seed: EcmpCapacityScheduler(seed=seed),
    "pna": lambda seed: PNAScheduler(seed=seed),
    "hit": lambda seed: HitScheduler(HitConfig(seed=seed)),
    "hit-online": _hit_online,
    "random": lambda seed: RandomScheduler(seed=seed),
    "rackpack": lambda seed: RackPackScheduler(),
}


def make_scheduler(name: str, seed: int = 0) -> Scheduler:
    """A fresh scheduler by :data:`SCHEDULERS` name, seeded with ``seed``."""
    factory = SCHEDULERS.get(name)
    if factory is None:
        raise ValueError(f"unknown scheduler {name!r}")
    return factory(seed)
