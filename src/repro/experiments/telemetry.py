"""Telemetry sweep cell: where does a scheduler's JCT go?

Runs one workload with the simulated-time timeline recorder on and
attributes each job's JCT to critical-path segments
(:mod:`repro.analysis.critical_path`), keeping the gauge timeline and the
fault / speculation counters beside it.  The sweep's ``telemetry`` arm
(:mod:`repro.experiments.sweep`) runs one cell per seed × scheduler ×
fabric; ``repro simulate --critical-path`` prints the same per-scheduler
segment table, and ``--export-trace`` / ``--html-report`` write Perfetto
traces and the HTML report (:mod:`repro.obs.export`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.critical_path import (
    JobCriticalPath,
    aggregate_segments,
    attribute_run,
)
from ..obs.timeline import TimelineRecorder
from ..simulator import MapReduceSimulator, MetricsCollector

__all__ = [
    "TelemetryRunResult",
    "run_telemetry_cell",
]


@dataclass
class TelemetryRunResult:
    """One scheduler's recorded run."""

    metrics: MetricsCollector
    timeline: TimelineRecorder | None
    critical: list[JobCriticalPath]
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def mean_segments(self) -> dict[str, float]:
        return aggregate_segments(self.critical)


def run_telemetry_cell(
    topology,
    scheduler,
    jobs,
    config,
) -> TelemetryRunResult:
    """One recorded run with critical-path attribution, as a sweep cell.

    Everything derives from the arguments (pass fresh topology/scheduler
    objects and a config with ``timeline_dt`` set); no global RNG or shared
    module state is touched, so cells compose into sharded sweeps
    (:mod:`repro.experiments.sweep`) without cross-contamination.
    """
    sim = MapReduceSimulator(topology, scheduler, jobs, config)
    metrics = sim.run()
    counters: dict[str, int] = {}
    if sim.faults is not None:
        counters.update(sim.faults.summary())
    if sim.speculation is not None:
        counters.update(sim.speculation.summary())
    return TelemetryRunResult(
        metrics=metrics,
        timeline=sim.timeline,
        critical=attribute_run(metrics),
        counters=counters,
    )

