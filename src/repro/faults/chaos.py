"""Randomized chaos harness enforcing the survivability contract.

A *chaos run* drives many seeded randomized fault timelines — correlated
failure domains, switch/server crashes, link failures and degradations,
optionally fabric partitions — through the full engine, across a grid of
schedulers × topologies, and machine-checks the **survivability contract**
on every trial:

* **no silent loss** — every admitted job either completes or the run is
  accounted failed by the engine's :class:`RetryBudgetExceeded`; a
  completed run must report exactly one record per submitted job;
* **retry budgets respected** — no task consumes more failure re-executions
  than ``max_task_retries``;
* **routing safety** — no flow ever traverses a failed switch or a dead
  (failed / degraded-to-zero) link; checked continuously by the engine's
  ``assert_path_clear`` guard and the observation layer's path-liveness
  invariant, both in ``raise`` mode;
* **no parked leaks** — a completed run leaves no flow parked forever;
* **determinism** — rerunning a trial from its seed is byte-identical
  (same fingerprint, or the same failure reason);
* **liveness** — the engine's ``stall_limit`` flags sim-time stalls
  (unbounded event churn at one timestamp) independently of its global
  ``max_events`` guard.

Anything outside those buckets — an invariant error, an unfinished job at
queue exhaustion, a livelock, a stall — is a **contract violation** and is
reported as such; the harness never swallows one.  The grading, rerun and
provenance loop is :mod:`repro.experiments.contract`'s; this module holds
the clauses and the trial generator.

This module deliberately is *not* imported from :mod:`repro.faults`'s
package ``__init__`` — it pulls in the whole engine, which the spec/injector
layers must not depend on.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..analysis.report import canonical_json
from ..experiments.configs import FABRICS, build_fabric
from ..experiments.contract import (
    Contract,
    plain_data,
    run_contract,
    simulator_build,
)
from ..mapreduce import WorkloadGenerator
from ..mapreduce.job import JobSpec
from ..schedulers import make_scheduler
from ..schedulers.base import Scheduler
from ..simulator import MapReduceSimulator, RunOutcome, SimulationConfig
from ..topology.base import Topology
from .spec import FaultSpec, generate_timeline

__all__ = [
    "ChaosConfig",
    "ChaosReport",
    "ChaosTrialResult",
    "SURVIVABILITY",
    "chaos_summary",
    "chaos_trial",
    "partition_trial",
    "run_chaos",
    "run_chaos_trial",
    "sample_chaos_timeline",
]

@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of one chaos campaign."""

    trials: int = 50
    seed: int = 0
    schedulers: tuple[str, ...] = ("capacity", "hit")
    #: Fabric registry names (:data:`repro.experiments.configs.FABRICS`);
    #: the defaults are redundancy-2 trees, which single-element outages
    #: never partition.
    topologies: tuple[str, ...] = ("small", "deep")
    jobs_per_trial: int = 3
    horizon: float = 4.0
    max_task_retries: int = 8
    #: Every ``partition_every``-th trial samples with ``allow_partition=True``
    #: (0 disables partition trials entirely).
    partition_every: int = 4
    #: ``SimulationConfig.stall_limit`` of every trial.
    stall_limit: int = 20_000
    #: Re-run every trial from its seed and compare fingerprints.
    rerun: bool = True

    def __post_init__(self) -> None:
        if self.trials <= 0:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if not self.schedulers or not self.topologies:
            raise ValueError("need at least one scheduler and one topology")
        unknown = [t for t in self.topologies if t not in FABRICS]
        if unknown:
            raise ValueError(
                f"unknown chaos topologies {unknown}; "
                f"known: {sorted(FABRICS)}"
            )

    def to_dict(self) -> dict:
        return plain_data(self)


@dataclass(frozen=True)
class ChaosTrialResult:
    """Outcome of one seeded trial (after its optional rerun compare)."""

    trial: int
    seed: int
    scheduler: str
    topology: str
    allow_partition: bool
    num_specs: int
    #: The rest is the trial's contract verdict (see
    #: :class:`repro.experiments.contract.Graded`); a failed trial is
    #: accounted only when ``violations`` is empty.
    status: str
    reason: str
    fingerprint: str
    counters: dict[str, float] = field(default_factory=dict)
    violations: tuple[str, ...] = ()
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return plain_data(self)


def chaos_summary(rows: Sequence[dict]) -> dict:
    """Tallies over plain-data trial rows; an accounted failure is one that
    failed with no violations."""
    return {
        "trials": len(rows),
        "ok": sum(1 for t in rows if t["status"] == "ok"),
        "failed_accounted": sum(
            1 for t in rows if t["status"] == "failed" and not t["violations"]
        ),
        "violations": sum(len(t["violations"]) for t in rows),
    }


@dataclass
class ChaosReport:
    """A full campaign: config + per-trial results, canonically hashable."""

    config: ChaosConfig
    trials: list[ChaosTrialResult] = field(default_factory=list)

    @property
    def violations(self) -> list[ChaosTrialResult]:
        return [t for t in self.trials if t.violations]

    def summary(self) -> dict:
        return chaos_summary([t.to_dict() for t in self.trials])

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "summary": self.summary(),
            "trials": [t.to_dict() for t in self.trials],
        }

    def canonical(self) -> str:
        """Canonical JSON body — byte-identical across reruns of the same
        campaign (the contract the CI smoke compares with ``cmp``)."""
        return canonical_json(self.to_dict())


def sample_chaos_timeline(
    topology: Topology,
    *,
    seed: int,
    horizon: float = 4.0,
    allow_partition: bool = False,
) -> tuple[FaultSpec, ...]:
    """Sample one randomized mixed-class fault timeline.

    A seeded meta-draw first picks which fault classes are active this trial
    and their MTBF/MTTR intensities, then :func:`generate_timeline` samples
    the actual episodes (with its partition guard unless
    ``allow_partition``).  Same seed → byte-identical timeline.
    """
    rng = np.random.default_rng(np.uint64(seed) ^ np.uint64(0xC4A05))
    kwargs: dict = {}
    if rng.random() < 0.7:
        kwargs.update(
            server_mtbf=float(rng.uniform(4.0, 12.0)), server_mttr=0.5
        )
    if rng.random() < 0.6:
        kwargs.update(
            switch_mtbf=float(rng.uniform(8.0, 20.0)), switch_mttr=0.5
        )
    if rng.random() < 0.6:
        kwargs.update(link_mtbf=float(rng.uniform(6.0, 16.0)), link_mttr=0.5)
    if rng.random() < 0.5:
        kwargs.update(
            domain_mtbf=float(rng.uniform(8.0, 24.0)),
            domain_mttr=0.5,
            domain_kind=str(rng.choice(("rack", "pod", "power"))),
        )
    if rng.random() < 0.5:
        kwargs.update(
            link_degrade_mtbf=float(rng.uniform(6.0, 16.0)),
            link_degrade_mttr=0.5,
            link_degrade_factor=float(rng.uniform(0.0, 0.5)),
        )
    return generate_timeline(
        topology,
        seed=seed,
        horizon=horizon,
        allow_partition=allow_partition,
        **kwargs,
    )


def _silent_loss(o: RunOutcome) -> str | None:
    if o.completed == o.jobs:
        return None
    return f"silent loss: {o.jobs} jobs submitted, {o.completed} accounted"


def _retry_budget(o: RunOutcome) -> str | None:
    if o.worst_retries <= o.retry_budget:
        return None
    return (
        f"retry budget exceeded: a task consumed {o.worst_retries} retries "
        f"(budget {o.retry_budget})"
    )


def _parked_leak(o: RunOutcome) -> str | None:
    if not o.parked_flows:
        return None
    return f"parked leak: {o.parked_flows} flows still parked at end"


def _fault_record(
    sim: MapReduceSimulator, finished: bool
) -> tuple[dict, dict]:
    counters = dict(sim.faults.summary()) if sim.faults is not None else {}
    return (sim.metrics.summary() if finished else {}), counters


#: The survivability contract's clauses over a finished run.
SURVIVABILITY = Contract(
    clauses=(_silent_loss, _retry_budget, _parked_leak),
    record=_fault_record,
)


def partition_trial(index: int, every: int) -> bool:
    """Whether trial ``index`` drops the partition guard (every
    ``every``-th trial does; 0 disables partition trials)."""
    return every > 0 and index % every == every - 1


def chaos_trial(
    trial: int,
    topology_factory: Callable[[], Topology],
    scheduler_factory: Callable[[], Scheduler],
    jobs_factory: Callable[[], list[JobSpec]],
    config: SimulationConfig,
    *,
    seed: int,
    horizon: float,
    allow_partition: bool,
    rerun: bool,
) -> tuple[dict, dict]:
    """Sample one trial's timeline and grade its run against the
    survivability contract; returns the plain-data trial row and the run's
    fault counters.  The factories must return fresh objects per call."""
    timeline = sample_chaos_timeline(
        topology_factory(),
        seed=seed,
        horizon=horizon,
        allow_partition=allow_partition,
    )
    build = simulator_build(
        topology_factory,
        scheduler_factory,
        jobs_factory,
        dataclasses.replace(config, seed=seed, faults=timeline),
    )
    verdict = plain_data(run_contract(build, SURVIVABILITY, rerun=rerun))
    del verdict["summary"]
    counters = verdict.pop("counters")
    row = dict(
        trial=trial,
        seed=seed,
        allow_partition=allow_partition,
        num_specs=len(timeline),
        **verdict,
    )
    return row, counters


def run_chaos_trial(
    trial: int,
    *,
    scheduler: str,
    topology: str,
    seed: int,
    jobs_per_trial: int = 3,
    horizon: float = 4.0,
    allow_partition: bool = False,
    max_task_retries: int = 8,
    stall_limit: int = 20_000,
    rerun: bool = True,
) -> ChaosTrialResult:
    """Run one seeded trial (plus its determinism rerun) and grade it."""
    row, counters = chaos_trial(
        trial,
        lambda: build_fabric(topology),
        lambda: make_scheduler(scheduler, seed=seed),
        lambda: WorkloadGenerator(
            seed=seed, input_size_range=(2.0, 4.0)
        ).make_workload(jobs_per_trial, interarrival=0.5),
        SimulationConfig(
            server_speed_spread=0.2,
            max_task_retries=max_task_retries,
            stall_limit=stall_limit,
        ),
        seed=seed,
        horizon=horizon,
        allow_partition=allow_partition,
        rerun=rerun,
    )
    row["violations"] = tuple(row["violations"])
    return ChaosTrialResult(
        scheduler=scheduler, topology=topology, counters=counters, **row
    )


def run_chaos(config: ChaosConfig | None = None) -> ChaosReport:
    """Run a full chaos campaign over the schedulers × topologies grid.

    Trial *i* uses seed ``config.seed + i`` and cycles through the grid
    round-robin, so every (scheduler, topology) pair sees a spread of
    timelines; every ``partition_every``-th trial drops the partition guard.
    """
    config = config or ChaosConfig()
    report = ChaosReport(config=config)
    grid = [
        (s, t) for t in config.topologies for s in config.schedulers
    ]
    for i in range(config.trials):
        scheduler, topology = grid[i % len(grid)]
        report.trials.append(
            run_chaos_trial(
                i,
                scheduler=scheduler,
                topology=topology,
                seed=config.seed + i,
                jobs_per_trial=config.jobs_per_trial,
                horizon=config.horizon,
                allow_partition=partition_trial(i, config.partition_every),
                max_task_retries=config.max_task_retries,
                stall_limit=config.stall_limit,
                rerun=config.rerun,
            )
        )
    return report
