"""Simulated-time telemetry plane: gauge timelines keyed to the event clock.

Where :mod:`repro.obs.tracer` records *wall-clock* spans of the optimiser's
hot paths, this module records what the simulated cluster looks like as
**simulated time** advances: per-switch and per-link utilisation, per-server
container occupancy, event-queue depth, active/parked shuffle flows, and the
live fault/speculation state.  That is the instrumentation behind "where do
time and traffic go" questions — link saturation during a shuffle burst,
straggler onset, fault-recovery churn — that end-of-run aggregates
(:class:`~repro.simulator.metrics.MetricsCollector`) cannot answer.

The recorder is **opt-in** (``SimulationConfig.timeline_dt``; CLI
``--timeline``/``--timeline-dt``) and **provably non-perturbing**:

* it samples on a fixed grid ``t_k = k * dt`` of the *simulated* clock, at
  event boundaries — rates are piecewise constant between events, so the
  pre-dispatch state is exact for every grid point inside the elapsed
  interval;
* every read is side-effect free.  The only shared computation it can
  trigger is :meth:`~repro.simulator.network.FlowNetwork.ensure_rates`,
  which is idempotent and deterministic (the engine would run the same
  recomputation at its next advance), so a recorded run is byte-identical
  to an unrecorded one — enforced by
  ``tests/simulator/test_nonperturbation.py`` across seeds, fault timelines
  and speculation.

The gauge catalogue is documented in ``docs/observability.md``; exports
(Perfetto trace, HTML report) live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any

import numpy as np

from .runtime import STATE as _OBS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulator.engine import MapReduceSimulator
    from ..simulator.events import Event
    from ..topology.base import Topology

__all__ = ["TimelineMarker", "TimelineRecorder", "TimelineSample"]


#: Event kinds that become discrete markers on the timeline (compared by
#: name so this module never imports the simulator at import time).
_MARKER_KINDS = frozenset(
    {
        "SERVER_FAIL",
        "SERVER_RECOVER",
        "SWITCH_FAIL",
        "SWITCH_RECOVER",
        "TASK_SLOWDOWN",
        "KILL_ATTEMPT",
    }
)


@dataclass(frozen=True)
class TimelineSample:
    """One snapshot of the simulated cluster at grid time ``t``."""

    t: float
    #: Utilisation (rate / capacity) per switch, ordered by switch id.
    switch_util: np.ndarray
    #: Utilisation per *directed* link, ordered by (u, v).
    link_util: np.ndarray
    #: Fraction of each server's memory capacity in use, ordered by id.
    server_occupancy: np.ndarray
    #: Containers currently placed somewhere.
    running_containers: int
    #: Events still queued (including future fault-timeline entries).
    queue_depth: int
    active_flows: int
    parked_flows: int
    #: Subsystem gauges: ``failed_servers`` / ``failed_switches`` (faults),
    #: ``live_backups`` / ``live_pairs`` (speculation).  Empty when the
    #: corresponding subsystem is off.
    gauges: dict[str, float]

    @property
    def max_switch_util(self) -> float:
        return float(self.switch_util.max()) if self.switch_util.size else 0.0

    @property
    def max_link_util(self) -> float:
        return float(self.link_util.max()) if self.link_util.size else 0.0

    @property
    def mean_link_util(self) -> float:
        return float(self.link_util.mean()) if self.link_util.size else 0.0


@dataclass(frozen=True)
class TimelineMarker:
    """A discrete fault/speculation occurrence pinned to the event clock."""

    t: float
    kind: str
    detail: str


def _sample_to_dict(sample: TimelineSample) -> dict[str, Any]:
    """JSON-serialisable form of one sample (for the spill sink)."""
    return {
        "t": sample.t,
        "switch_util": sample.switch_util.tolist(),
        "link_util": sample.link_util.tolist(),
        "server_occupancy": sample.server_occupancy.tolist(),
        "running_containers": sample.running_containers,
        "queue_depth": sample.queue_depth,
        "active_flows": sample.active_flows,
        "parked_flows": sample.parked_flows,
        "gauges": sample.gauges,
    }


class TimelineRecorder:
    """Samples gauges on a fixed simulated-time grid during a run.

    The engine calls :meth:`observe` with each event *before* dispatching
    it, and :meth:`finish` once the queue drains.  All state reads are
    side-effect free; see the module docstring for the non-perturbation
    argument.
    """

    def __init__(
        self,
        topology: "Topology",
        dt: float = 0.05,
        *,
        max_samples: int | None = None,
        spill_path: str | Path | None = None,
    ) -> None:
        if dt <= 0:
            raise ValueError(f"timeline dt must be positive, got {dt}")
        if max_samples is not None and max_samples < 1:
            raise ValueError("timeline max_samples must be >= 1")
        self.topology = topology
        self.dt = float(dt)
        #: In-memory sample buffer.  With ``max_samples`` set this holds at
        #: most that many recent samples — the overflow streams to
        #: ``spill_path`` as JSONL (or is dropped when no path is given), so
        #: memory stays bounded on fat-tree k=16 / 10k-flow runs.  Queries
        #: (:meth:`times`, :meth:`series`, :meth:`switch_series`) cover the
        #: buffered tail only; :meth:`summary` stays exact via running
        #: aggregates.
        self.samples: list[TimelineSample] = []
        self.markers: list[TimelineMarker] = []
        self.switch_ids: tuple[int, ...] = tuple(topology.switch_ids)
        self.server_ids: tuple[int, ...] = tuple(topology.server_ids)
        #: Directed-link keys in sample order (fixed on the first sample).
        self.link_keys: tuple[tuple[int, int], ...] | None = None
        # Allocator resource indices behind ``switch_ids`` / ``link_keys``,
        # resolved with ``link_keys`` on the first sample.
        self._switch_res: np.ndarray | None = None
        self._link_res: np.ndarray | None = None
        self.max_samples = max_samples
        self.spill_path = None if spill_path is None else Path(spill_path)
        #: Samples moved out of memory (spilled to disk or dropped).
        self.spilled_samples = 0
        #: Times the overflow handling engaged (one flush of the buffer).
        self.spill_events = 0
        #: Samples taken over the whole run, buffered or not.
        self.total_samples = 0
        self._sink: IO[str] | None = None
        self._tick = 0
        self._finished = False
        # Running aggregates so summary() is exact regardless of spill.
        self._peak_switch_util = 0.0
        self._peak_link_util = 0.0
        self._peak_queue_depth = 0
        self._peak_active_flows = 0
        self._peak_occupancy = 0.0

    # -------------------------------------------------------------- recording
    def observe(self, sim: "MapReduceSimulator", event: "Event") -> None:
        """Record grid samples up to ``event.time`` (pre-dispatch state)."""
        while self._tick * self.dt <= event.time:
            self._sample(sim, self._tick * self.dt)
            self._tick += 1
        kind = event.kind.name
        if kind in _MARKER_KINDS:
            self.markers.append(
                TimelineMarker(event.time, kind.lower(), str(event.payload))
            )

    def finish(self, sim: "MapReduceSimulator", t_end: float) -> None:
        """Record the drained end-of-run state exactly once."""
        if self._finished:
            return
        self._finished = True
        self._sample(sim, t_end)
        self.close()

    def close(self) -> None:
        """Flush and close the spill sink (idempotent)."""
        if self._sink is not None:
            self._sink.flush()
            self._sink.close()
            self._sink = None

    def _sample(self, sim: "MapReduceSimulator", t: float) -> None:
        network = sim.network
        network.ensure_rates()
        if self.link_keys is None:
            self.link_keys = tuple(sorted(network.utilisation_by_link()))
            self._switch_res = network.switch_resource_ids(self.switch_ids)
            self._link_res = network.link_resource_ids(self.link_keys)
        cluster = sim.cluster
        occupancy = np.empty(len(self.server_ids), dtype=np.float64)
        running = 0
        for i, sid in enumerate(self.server_ids):
            cap = cluster.capacity(sid).memory
            occupancy[i] = cluster.used(sid).memory / cap if cap > 0 else 0.0
            running += cluster.num_hosted(sid)
        gauges: dict[str, float] = {}
        if sim.faults is not None:
            gauges.update(sim.faults.gauges())
        if sim.speculation is not None:
            gauges.update(sim.speculation.gauges())
        sample = TimelineSample(
            t=t,
            switch_util=network.utilisation(self._switch_res),
            link_util=network.utilisation(self._link_res),
            server_occupancy=occupancy,
            running_containers=running,
            queue_depth=sim.queue_depth,
            active_flows=network.num_active_flows,
            parked_flows=sim.parked_flows,
            gauges=gauges,
        )
        self.total_samples += 1
        self._peak_switch_util = max(
            self._peak_switch_util, sample.max_switch_util
        )
        self._peak_link_util = max(self._peak_link_util, sample.max_link_util)
        self._peak_queue_depth = max(self._peak_queue_depth, sample.queue_depth)
        self._peak_active_flows = max(
            self._peak_active_flows, sample.active_flows
        )
        if occupancy.size:
            self._peak_occupancy = max(
                self._peak_occupancy, float(occupancy.max())
            )
        if (
            self.max_samples is not None
            and len(self.samples) >= self.max_samples
        ):
            self._spill()
        self.samples.append(sample)

    def _spill(self) -> None:
        """Flush the in-memory buffer to the JSONL sink (or drop it).

        Counted once per flush under ``obs.timeline_spilled`` so a bounded
        run is visible in the tracer report even when nobody inspects the
        recorder directly."""
        if self.spill_path is not None:
            if self._sink is None:
                self._sink = self.spill_path.open("w", encoding="utf-8")
            for sample in self.samples:
                self._sink.write(
                    json.dumps(
                        _sample_to_dict(sample),
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                    + "\n"
                )
        self.spilled_samples += len(self.samples)
        self.spill_events += 1
        self.samples.clear()
        _OBS.tracer.count("obs.timeline_spilled")

    # ---------------------------------------------------------------- queries
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    def series(self, name: str) -> np.ndarray:
        """Scalar gauge timeline by name.

        Built-ins: ``max_switch_util``, ``max_link_util``,
        ``mean_link_util``, ``queue_depth``, ``active_flows``,
        ``parked_flows``, ``running_containers``, ``mean_occupancy`` — plus
        any subsystem gauge key (``failed_servers``, ``live_backups``, …),
        which reads 0.0 on samples where the subsystem was off.
        """
        out = np.empty(len(self.samples), dtype=np.float64)
        for i, s in enumerate(self.samples):
            if name == "mean_occupancy":
                out[i] = (
                    float(s.server_occupancy.mean())
                    if s.server_occupancy.size
                    else 0.0
                )
            elif hasattr(s, name):
                out[i] = float(getattr(s, name))
            else:
                out[i] = s.gauges.get(name, 0.0)
        return out

    def switch_series(self, switch_id: int) -> np.ndarray:
        """Utilisation timeline of one switch."""
        idx = self.switch_ids.index(switch_id)
        return np.array([s.switch_util[idx] for s in self.samples])

    def summary(self) -> dict[str, Any]:
        """Aggregates for reports: peaks and means over the run.

        Computed from running aggregates maintained at sample time, so the
        values cover *every* sample taken — identical whether or not the
        bounded-memory mode spilled part of the run out of the buffer.
        """
        if self.total_samples == 0:
            return {"samples": 0, "markers": len(self.markers)}
        out: dict[str, Any] = {
            "samples": self.total_samples,
            "markers": len(self.markers),
            "dt": self.dt,
            "peak_switch_util": float(self._peak_switch_util),
            "peak_link_util": float(self._peak_link_util),
            "peak_queue_depth": int(self._peak_queue_depth),
            "peak_active_flows": int(self._peak_active_flows),
            "peak_occupancy": float(self._peak_occupancy),
        }
        if self.spilled_samples:
            out["spilled_samples"] = self.spilled_samples
        return out
