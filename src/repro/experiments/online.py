"""Overload campaigns: open-loop arrivals graded against the overload contract.

The batch harnesses answer *how fast does a fixed job set finish*; this one
answers *what happens when jobs keep coming*.  A campaign sweeps an
arrival-rate multiplier through and past the cluster's estimated saturation
point, for each (scheduler, topology) pair, with seeded multi-tenant arrival
streams flowing through the admission plane (:mod:`repro.workload`).  Every
cell is machine-checked against the **overload contract**:

* **exhaustive accounting** — every submitted job is exactly one of
  completed / still queued at end of run / rejected with a reason code;
  ``completed + rejected + queued == submitted``, per tenant and globally;
* **no silent drops** — the arrival stream's length must match the
  admission layer's submitted count, and every rejection carries a record;
* **bounded queues** — under the ``queue-bound`` policy no tenant queue
  ever exceeds its bound (peak, not just final, length);
* **liveness** — the engine's ``stall_limit`` flags sim-time stalls
  independently of its ``max_events`` guard;
* **determinism** — rerunning a cell from its seed is byte-identical
  (same fingerprint over summary + counters + event count).

Anything outside those buckets is a **contract violation** and is reported
as such; the harness never swallows one.  The grading, rerun and provenance
loop is :mod:`repro.experiments.contract`'s; this module holds the clauses
and the cell generators.  Per cell the report carries the
overload metrics the evaluation reads: mean/p99 job completion time,
mean/p99 slowdown, mean wait, Jain fairness across tenants, and the
rejection breakdown.

Like :mod:`repro.faults.chaos`, this module is not imported from the
experiments package ``__init__`` — it pulls in the whole engine.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.report import canonical_json
from ..schedulers import make_scheduler
from ..simulator import MapReduceSimulator, RunOutcome, SimulationConfig
from ..topology.base import Topology
from ..workload import (
    ADMISSION_POLICIES,
    ARRIVAL_PROFILES,
    AdmissionConfig,
    ArrivalConfig,
    TenantSpec,
    estimate_saturation_rate,
    generate_arrivals,
)
from .configs import FABRICS, build_fabric
from .contract import (
    Contract,
    fingerprint,
    plain_data,
    run_contract,
    simulator_build,
)

__all__ = [
    "OnlineCellResult",
    "OnlineConfig",
    "OnlineReport",
    "OVERLOAD",
    "admission_config",
    "build_arrival_plan",
    "online_fingerprint",
    "online_record",
    "overload_campaign",
    "run_online_cell",
]

@dataclass(frozen=True)
class OnlineConfig:
    """Knobs of one overload campaign."""

    #: Arrival-rate multipliers, in units of the *estimated* saturation
    #: rate — 1.0 offers roughly what the cluster can serve, 2.0 is
    #: guaranteed overload.
    multipliers: tuple[float, ...] = (0.5, 1.0, 2.0)
    seed: int = 0
    schedulers: tuple[str, ...] = ("capacity", "hit")
    #: Fabric registry names; the defaults are the chaos campaign's, so
    #: overload and fault campaigns are directly comparable.
    topologies: tuple[str, ...] = ("small", "deep")
    tenants: int = 2
    profile: str = "poisson"
    policy: str = "queue-bound"
    queue_bound: int = 8
    #: Submission window (sim time); the cluster then drains its backlog.
    duration: float = 3.0
    min_size: float = 2.0
    max_size: float = 6.0
    #: ``SimulationConfig.stall_limit`` of every cell.
    stall_limit: int = 50_000
    #: Re-run every cell from its seed and compare fingerprints.
    rerun: bool = True

    def __post_init__(self) -> None:
        if not self.multipliers or any(m <= 0 for m in self.multipliers):
            raise ValueError("multipliers must be positive and non-empty")
        if not self.schedulers or not self.topologies:
            raise ValueError("need at least one scheduler and one topology")
        unknown = [t for t in self.topologies if t not in FABRICS]
        if unknown:
            raise ValueError(
                f"unknown online topologies {unknown}; "
                f"known: {sorted(FABRICS)}"
            )
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if self.profile not in ARRIVAL_PROFILES:
            raise ValueError(f"unknown profile {self.profile!r}")
        if self.policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {self.policy!r}")

    def to_dict(self) -> dict:
        return plain_data(self)


@dataclass(frozen=True)
class OnlineCellResult:
    """Outcome of one graded overload cell (after its optional rerun)."""

    cell: int
    seed: int
    scheduler: str
    topology: str
    multiplier: float
    submitted: int
    #: The rest is the cell's contract verdict (see
    #: :class:`repro.experiments.contract.Graded`).
    status: str
    reason: str
    fingerprint: str
    summary: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    violations: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return plain_data(self)


@dataclass
class OnlineReport:
    """A full campaign: config + per-cell results, canonically hashable."""

    config: OnlineConfig
    cells: list[OnlineCellResult] = field(default_factory=list)

    @property
    def violations(self) -> list[OnlineCellResult]:
        return [c for c in self.cells if c.violations]

    def summary(self) -> dict:
        return {
            "cells": len(self.cells),
            "ok": sum(1 for c in self.cells if c.status == "ok"),
            "submitted": sum(c.submitted for c in self.cells),
            "completed": sum(
                c.counters.get("online.completed", 0) for c in self.cells
            ),
            "rejected": sum(
                c.counters.get("admission.rejected", 0) for c in self.cells
            ),
            "queued": sum(
                c.counters.get("admission.queued", 0) for c in self.cells
            ),
            "violations": sum(len(c.violations) for c in self.cells),
        }

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "cells": [c.to_dict() for c in self.cells],
        }

    def canonical(self) -> str:
        """Canonical JSON body — byte-identical across reruns of the same
        campaign (the contract the CI smoke compares with ``cmp``)."""
        return canonical_json(self.to_dict())


# ------------------------------------------------------------- plan building
def _topology_slots(topology: Topology, memory_per_container: float) -> int:
    """Container slots the fabric offers (memory being the binding axis)."""
    total = sum(
        float(s.resource_capacity[0]) for s in topology.servers()
    )
    return max(1, int(total / max(memory_per_container, 1e-9)))


def build_arrival_plan(
    topology: Topology,
    *,
    multiplier: float,
    tenants: int = 2,
    profile: str = "poisson",
    duration: float = 3.0,
    min_size: float = 2.0,
    max_size: float = 6.0,
    memory_per_container: float = 1.0,
) -> ArrivalConfig:
    """Arrival plan whose aggregate nominal rate is the fabric's estimated
    saturation rate — ``multiplier`` then scales it through/past the knee.

    The rate is split evenly across tenants; tenant weights stay 1.0 (the
    fairness the campaign measures is the admission layer's doing, not the
    offered load's).
    """
    specs = tuple(
        TenantSpec(
            tenant_id=i,
            rate=1.0,  # placeholder, replaced below once saturation is known
            input_size_range=(min_size, max_size),
        )
        for i in range(tenants)
    )
    saturation = estimate_saturation_rate(
        _topology_slots(topology, memory_per_container), specs
    )
    specs = tuple(
        dataclasses.replace(s, rate=saturation / tenants) for s in specs
    )
    return ArrivalConfig(
        tenants=specs,
        profile=profile,
        duration=duration,
        rate_multiplier=multiplier,
    )


def admission_config(policy: str, queue_bound: int) -> AdmissionConfig:
    """Admission config; ``queue_bound`` applies under ``queue-bound`` only."""
    return AdmissionConfig(
        policy=policy,
        queue_bound=queue_bound if policy == "queue-bound" else None,
    )


def online_fingerprint(
    summary: dict[str, float], counters: dict[str, int], events: int
) -> str:
    """Canonical fingerprint of one online run (the rerun-compare token)."""
    return fingerprint(
        {
            "summary": {k: float(v) for k, v in sorted(summary.items())},
            "counters": {k: int(v) for k, v in sorted(counters.items())},
            "events": int(events),
        }
    )


def online_record(
    sim: MapReduceSimulator, finished: bool = True
) -> tuple[dict[str, float], dict[str, int]]:
    """Key-sorted ``(summary, counters)`` of an online run as the overload
    contract reports and fingerprints them; a finished run's counters gain
    ``online.completed``."""
    if sim.admission is None:
        raise ValueError("the overload contract needs an admission plane")
    counters = {k: int(v) for k, v in sim.admission.counters().items()}
    if not finished:
        return {}, dict(sorted(counters.items()))
    counters["online.completed"] = len(sim.metrics.jobs)
    summary = sim.metrics.online_summary()
    return (
        {k: float(v) for k, v in sorted(summary.items())},
        dict(sorted(counters.items())),
    )


# ------------------------------------------------------------------- grading
def _arrival_loss(o: RunOutcome) -> str | None:
    submitted = o.admission.get("admission.submitted", 0)
    if submitted == o.jobs:
        return None
    return (
        f"arrival loss: {o.jobs} jobs generated, "
        f"{submitted} reached admission"
    )


def _accounting_hole(o: RunOutcome) -> str | None:
    submitted = o.admission.get("admission.submitted", 0)
    rejected = o.admission.get("admission.rejected", 0)
    queued = o.admission.get("admission.queued", 0)
    if o.completed + rejected + queued == submitted:
        return None
    return (
        "accounting hole: "
        f"completed({o.completed}) + rejected({rejected}) + "
        f"queued({queued}) != submitted({submitted})"
    )


def _silent_rejection(o: RunOutcome) -> str | None:
    rejected = o.admission.get("admission.rejected", 0)
    if o.rejection_records == rejected:
        return None
    return (
        f"silent rejection: {rejected} counted, "
        f"{o.rejection_records} carry records"
    )


def _unbounded_queue(o: RunOutcome) -> str | None:
    if o.queue_bound is None or o.peak_queue <= o.queue_bound:
        return None
    return (
        f"unbounded queue: peak tenant queue length {o.peak_queue} "
        f"exceeds bound {o.queue_bound}"
    )


#: The overload contract's clauses over a finished run.
OVERLOAD = Contract(
    clauses=(
        _arrival_loss, _accounting_hole, _silent_rejection, _unbounded_queue
    ),
    record=online_record,
)


# ---------------------------------------------------------------- cell runner
def run_online_cell(
    topology_factory: Callable[[], Topology],
    scheduler_factory: Callable[[], Any],
    config: SimulationConfig,
    *,
    seed: int,
    multiplier: float = 1.5,
    tenants: int = 2,
    profile: str = "poisson",
    policy: str = "queue-bound",
    queue_bound: int = 8,
    duration: float = 3.0,
    min_size: float = 2.0,
    max_size: float = 6.0,
    stall_limit: int = 50_000,
    rerun: bool = True,
) -> dict[str, Any]:
    """One overload arm as a self-contained cell: seeded arrivals at
    ``multiplier`` times the estimated saturation rate, graded against the
    overload contract (plus an optional byte-identity rerun).

    The factories must return *fresh* objects on every call — the cell (and
    its determinism rerun) rebuilds the whole stack, preserving the sweep's
    cell-isolation contract.  Returns plain JSON-serialisable data.
    """
    plan = build_arrival_plan(
        topology_factory(),
        multiplier=multiplier,
        tenants=tenants,
        profile=profile,
        duration=duration,
        min_size=min_size,
        max_size=max_size,
        memory_per_container=config.container_demand.memory,
    )

    build = simulator_build(
        topology_factory,
        scheduler_factory,
        lambda: generate_arrivals(plan, seed=seed),
        dataclasses.replace(
            config,
            seed=seed,
            admission=admission_config(policy, queue_bound),
            stall_limit=stall_limit,
        ),
    )
    return plain_data(run_contract(build, OVERLOAD, rerun=rerun))


# ------------------------------------------------------------------ campaign
def overload_campaign(config: OnlineConfig | None = None) -> OnlineReport:
    """Sweep arrival-rate multipliers over the schedulers x topologies grid.

    Cell *i* uses seed ``config.seed + i``; the grid enumerates
    ``multiplier x topology x scheduler`` in declaration order, so a report
    reads as a rate sweep with scheduler/topology columns.
    """
    config = config or OnlineConfig()
    report = OnlineReport(config=config)
    sim_config = SimulationConfig(map_slots_per_job=16)
    grid = itertools.product(
        config.multipliers, config.topologies, config.schedulers
    )
    for index, (multiplier, topology, scheduler) in enumerate(grid):
        seed = config.seed + index
        result = run_online_cell(
            lambda topology=topology: build_fabric(topology),
            lambda scheduler=scheduler, seed=seed: make_scheduler(
                scheduler, seed=seed
            ),
            sim_config,
            seed=seed,
            multiplier=multiplier,
            tenants=config.tenants,
            profile=config.profile,
            policy=config.policy,
            queue_bound=config.queue_bound,
            duration=config.duration,
            min_size=config.min_size,
            max_size=config.max_size,
            stall_limit=config.stall_limit,
            rerun=config.rerun,
        )
        result["violations"] = tuple(result["violations"])
        report.cells.append(
            OnlineCellResult(
                cell=index,
                seed=seed,
                scheduler=scheduler,
                topology=topology,
                multiplier=multiplier,
                submitted=result["counters"].get("admission.submitted", 0),
                **result,
            )
        )
    return report
