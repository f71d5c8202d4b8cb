"""Fault-degradation comparison: the same outage timeline, every baseline.

The question this harness answers is the robustness analogue of the paper's
Figures 6/7: *how much of each scheduler's advantage survives infrastructure
failures?*  Every baseline replays one byte-identical fault timeline (same
servers die at the same instants, same switches go dark), against the
identical job stream and fabric, so the JCT/makespan deltas are attributable
to placement and policy alone.

Reported per scheduler: fault-free and faulty mean JCT and makespan, the
relative degradation between them, and the engine's recovery counters
(re-executions, killed/parked/resumed flows).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..faults import FaultKind, FaultSpec, generate_timeline
from ..schedulers import make_scheduler
from ..simulator import MapReduceSimulator, MetricsCollector
from ..speculation import SpeculationConfig
from . import configs

__all__ = [
    "FaultRunResult",
    "FaultComparisonResult",
    "fault_degradation",
    "run_chaos_cell",
    "run_fault_cell",
    "straggler_timeline",
]


def run_fault_cell(
    topology,
    scheduler,
    jobs,
    config,
    timeline: tuple[FaultSpec, ...] = (),
    speculation: SpeculationConfig | None = None,
    max_task_retries: int = 10,
):
    """One (scheduler, fault/speculation arm) run, as a self-contained cell.

    An empty ``timeline`` is the fault-free arm; a non-empty one layers the
    outage replay on; ``speculation`` additionally enables the mitigation
    arm.  All state is derived from the arguments (the caller passes fresh
    topology/scheduler objects), never from global RNG or module caches, so
    two cells run in the same process in either order produce identical
    outputs — the isolation contract :mod:`repro.experiments.sweep` shards
    against.

    Returns ``(metrics, counters)`` where ``counters`` merges the fault and
    speculation summaries (empty for a plain fault-free run).
    """
    if timeline:
        config = dataclasses.replace(
            config, faults=tuple(timeline), max_task_retries=max_task_retries
        )
    if speculation is not None:
        config = dataclasses.replace(config, speculation=speculation)
    sim = MapReduceSimulator(topology, scheduler, jobs, config)
    metrics = sim.run()
    counters: dict[str, int] = {}
    if sim.faults is not None:
        counters.update(sim.faults.summary())
    if sim.speculation is not None:
        counters.update(sim.speculation.summary())
    return metrics, counters


def run_chaos_cell(
    topology_factory,
    scheduler_factory,
    jobs_factory,
    config,
    *,
    seed: int,
    trials: int = 6,
    horizon: float = 4.0,
    partition_every: int = 4,
    max_task_retries: int = 8,
    stall_limit: int = 20_000,
    rerun: bool = True,
) -> dict:
    """One chaos arm as a sweep cell: ``trials`` seeded randomized fault
    timelines through the cell's own fabric/scheduler/workload, each graded
    by :func:`repro.faults.chaos.chaos_trial` (trial *i* uses seed
    ``seed + i``).  The factories must return *fresh* objects on every
    call, preserving the sweep's cell-isolation contract.  Returns plain
    data: an aggregate summary, summed fault counters and the trial rows.
    """
    from ..faults.chaos import chaos_summary, chaos_trial, partition_trial

    rows: list[dict] = []
    totals: dict[str, float] = {}
    for i in range(trials):
        row, counters = chaos_trial(
            i,
            topology_factory,
            scheduler_factory,
            jobs_factory,
            dataclasses.replace(
                config,
                max_task_retries=max_task_retries,
                stall_limit=stall_limit,
            ),
            seed=seed + i,
            horizon=horizon,
            allow_partition=partition_trial(i, partition_every),
            rerun=rerun,
        )
        rows.append(row)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    return {
        "summary": {k: float(v) for k, v in chaos_summary(rows).items()},
        # Counters are integral except the dwell gauge; keep its precision.
        "counters": {
            k: int(v) if float(v).is_integer() else round(float(v), 9)
            for k, v in sorted(totals.items())
        },
        "trials": rows,
    }


def _degradation(clean: float, faulty: float) -> float:
    """Relative increase of a lower-is-better metric under faults:
    ``faulty / clean - 1`` (0 = faults cost nothing)."""
    if clean == 0:
        return 0.0
    return faulty / clean - 1.0


@dataclass
class FaultRunResult:
    """One scheduler's fault-free vs faulty (vs mitigated) runs."""

    clean: MetricsCollector
    faulty: MetricsCollector
    fault_counters: dict[str, int]
    #: Same fault timeline with speculative execution enabled, when the
    #: harness was asked for a mitigation arm.
    mitigated: MetricsCollector | None = None
    spec_counters: dict[str, int] = field(default_factory=dict)

    @property
    def jct_degradation(self) -> float:
        """Relative mean-JCT increase caused by the fault timeline."""
        return _degradation(self.clean.mean_jct(), self.faulty.mean_jct())

    @property
    def makespan_degradation(self) -> float:
        return _degradation(
            self.clean.summary()["makespan"], self.faulty.summary()["makespan"]
        )

    @property
    def mitigation_gain(self) -> float:
        """Fraction of the faulty mean JCT that speculation clawed back
        (positive = speculation helped; 0.0 without a mitigation arm)."""
        if self.mitigated is None:
            return 0.0
        faulty = self.faulty.mean_jct()
        if faulty == 0:
            return 0.0
        return 1.0 - self.mitigated.mean_jct() / faulty


@dataclass
class FaultComparisonResult:
    """All schedulers against one shared fault timeline."""

    timeline: tuple[FaultSpec, ...] = ()
    runs: dict[str, FaultRunResult] = field(default_factory=dict)

    def table(self) -> list[dict[str, object]]:
        """Flat rows for printing/CSV: one per scheduler."""
        rows: list[dict[str, object]] = []
        for name, run in self.runs.items():
            counters = run.fault_counters
            row: dict[str, object] = {
                "scheduler": name,
                "clean_mean_jct": run.clean.mean_jct(),
                "faulty_mean_jct": run.faulty.mean_jct(),
                "jct_degradation": run.jct_degradation,
                "clean_makespan": run.clean.summary()["makespan"],
                "faulty_makespan": run.faulty.summary()["makespan"],
                "makespan_degradation": run.makespan_degradation,
                "map_retries": counters.get("retries.map", 0),
                "reduce_retries": counters.get("retries.reduce", 0),
                "flows_killed": counters.get("faults.flows_killed", 0),
                "flows_parked": counters.get("faults.flows_parked", 0),
            }
            if run.mitigated is not None:
                row["mitigated_mean_jct"] = run.mitigated.mean_jct()
                row["mitigation_gain"] = run.mitigation_gain
                row["spec_wins"] = run.spec_counters.get("spec.wins", 0)
                row["spec_launched"] = run.spec_counters.get(
                    "spec.launched", 0
                )
            rows.append(row)
        return rows


def straggler_timeline(
    topology,
    fraction: float = 0.1,
    factor: float = 6.0,
    start: float = 0.0,
    duration: float = 0.0,
) -> tuple[FaultSpec, ...]:
    """Scripted straggler scenario: slow ~``fraction`` of the servers.

    Degraded servers are picked evenly across the fabric (every
    ``1/fraction``-th server id), which on a tree spreads them over racks —
    the realistic shape for contention stragglers.  ``duration`` > 0 makes
    the episodes transient (the injector schedules the restores).
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    if factor <= 1.0:
        raise ValueError(f"straggler factor must exceed 1.0, got {factor}")
    stride = max(1, round(1.0 / fraction))
    return tuple(
        FaultSpec(
            start,
            FaultKind.TASK_SLOWDOWN,
            sid,
            factor=factor,
            duration=duration,
        )
        for sid in topology.server_ids[::stride]
    )


def fault_degradation(
    seed: int = 0,
    num_jobs: int = 12,
    scheduler_names: tuple[str, ...] = ("capacity", "capacity-ecmp", "random", "hit"),
    timeline: tuple[FaultSpec, ...] | None = None,
    server_mtbf: float = 8.0,
    server_mttr: float = 0.5,
    switch_mtbf: float = 20.0,
    switch_mttr: float = 0.5,
    horizon: float = 8.0,
    max_task_retries: int = 10,
    speculation: SpeculationConfig | None = None,
) -> FaultComparisonResult:
    """Run every scheduler clean and under one shared fault timeline.

    Pass an explicit ``timeline`` for a scripted scenario; by default a
    seeded MTBF/MTTR timeline is sampled once (on the testbed fabric) and
    replayed verbatim for each baseline.  With ``speculation`` set, each
    scheduler gets a third run — the same faulty timeline with speculative
    execution enabled — reported as the *mitigated* arm.
    """
    jobs = configs.testbed_workload(seed=seed, num_jobs=num_jobs)
    if timeline is None:
        timeline = generate_timeline(
            configs.testbed_tree(),
            seed=seed,
            horizon=horizon,
            server_mtbf=server_mtbf,
            server_mttr=server_mttr,
            switch_mtbf=switch_mtbf,
            switch_mttr=switch_mttr,
        )
    result = FaultComparisonResult(timeline=timeline)
    base_config = configs.testbed_simulation_config(seed=seed)
    for name in scheduler_names:
        clean, _ = run_fault_cell(
            configs.testbed_tree(), make_scheduler(name, seed=seed), jobs, base_config
        )
        faulty, fault_counters = run_fault_cell(
            configs.testbed_tree(),
            make_scheduler(name, seed=seed),
            jobs,
            base_config,
            timeline=timeline,
            max_task_retries=max_task_retries,
        )
        run = FaultRunResult(
            clean=clean, faulty=faulty, fault_counters=fault_counters
        )
        if speculation is not None:
            mitigated, spec_counters = run_fault_cell(
                configs.testbed_tree(),
                make_scheduler(name, seed=seed),
                jobs,
                base_config,
                timeline=timeline,
                speculation=speculation,
                max_task_retries=max_task_retries,
            )
            run.mitigated = mitigated
            run.spec_counters = spec_counters
        result.runs[name] = run
    return result
