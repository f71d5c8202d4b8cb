"""Discrete-event MapReduce simulation.

Substitute for the paper's 9-node Hadoop YARN testbed: jobs arrive, a
pluggable scheduler places their containers on the hierarchical fabric, Map
tasks compute, each finished Map starts its shuffle flows into the max-min fair
:class:`~repro.simulator.network.FlowNetwork`, and Reduce tasks finish after
their last inbound flow plus compute time.  The collector then yields the
job/task/flow statistics behind Figures 6 and 7.

Execution model (simplifications are noted in DESIGN.md):

* A job is **admitted** FIFO when the cluster has slots for its first Map
  wave plus all its Reduce containers (Hadoop schedules reduces early —
  "well before the completed distribution of Map output is known").
* Map tasks of a wave run concurrently; the wave barrier releases the Map
  containers, and subsequent waves are placed by the scheduler's
  subsequent-wave entry point (Section 5.3.2).
* A Map's input read is node-local, rack-local or remote per the HDFS block
  placement; non-local reads add a fetch penalty to the task duration and are
  accounted as remote-Map traffic (Figure 1).
* Network-aware schedulers (Hit) route each starting flow through the live
  :class:`~repro.core.policy.PolicyController` (optimal, capacity-aware);
  baselines use the fabric's static shortest path.
* When a fault timeline is configured (:mod:`repro.faults`), server and
  switch failures are simulator events: dead servers kill their resident
  tasks (re-executed with a retry budget), lost map output is regenerated on
  demand, and flows crossing a dead switch are rerouted or *parked* until a
  recovery restores a live path.  ``docs/fault_model.md`` spells out the
  recovery semantics; with an empty timeline none of these code paths run
  and the simulation is bit-identical to the fault-free build.
* When speculation is configured (:mod:`repro.speculation`), a LATE-style
  detector sweeps the running maps on a fixed cadence (SPECULATE events),
  launches duplicate *backup* attempts for stragglers, commits whichever
  copy finishes first and kills the loser (KILL_ATTEMPT events reusing the
  fault layer's attempt-counter invalidation).  Shuffle flows bind late to
  the winning attempt's output server, so reducers never fetch from a
  killed attempt.  Sweeps never advance the fluid network, so a
  speculation-enabled run in which the detector never fires is
  byte-identical to a speculation-off run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..cluster.container import Container, TaskKind, TaskRef
from ..cluster.resources import Resources
from ..cluster.state import ClusterState
from ..core.policy import CostModel, NoFeasiblePathError, PolicyController
from ..core.taa import TAAInstance
from ..faults.injector import FaultInjector
from ..faults.spec import FaultSpec
from ..mapreduce.hdfs import HdfsModel
from ..mapreduce.job import JobSpec, shuffle_matrix
from ..mapreduce.shuffle import ShuffleFlow
from ..obs.provenance import (
    ProvenanceConfig,
    ProvenanceRecorder,
    flow_label,
    task_label,
)
from ..obs.runtime import STATE as _OBS
from ..schedulers.base import Scheduler, SchedulingContext
from ..speculation.detector import AttemptProgress, SpeculationConfig
from ..speculation.runtime import SpeculationState
from ..topology.base import Topology
from ..workload.admission import AdmissionConfig, AdmissionController
from .errors import (
    EventBudgetExceeded,
    RetryBudgetExceeded,
    SimTimeStall,
    UnfinishedJobs,
)
from .events import Event, EventKind, EventQueue
from .metrics import (
    FlowRecord,
    JobRecord,
    MetricsCollector,
    RejectionRecord,
    TaskRecord,
)
from .network import DelayModel, FlowNetwork

__all__ = [
    "SimulationConfig",
    "MapReduceSimulator",
    "RunOutcome",
    "run_simulation",
]

#: Switch/link fault event → (``fault`` record reason code, injector
#: marker).  Each marker looks its ``mark_*`` method up per call, so a
#: wrapper installed on :class:`FaultInjector` still sees every call.
_FABRIC_FAULTS = {
    EventKind.SWITCH_FAIL: (
        "switch-fail", lambda f, w: f.mark_switch_failed(w)
    ),
    EventKind.SWITCH_RECOVER: (
        "switch-recover", lambda f, w: f.mark_switch_recovered(w)
    ),
    EventKind.LINK_FAIL: ("link-fail", lambda f, p: f.mark_link_failed(*p)),
    EventKind.LINK_RECOVER: (
        "link-recover", lambda f, p: f.mark_link_recovered(*p)
    ),
    EventKind.LINK_DEGRADE: (
        "link-degrade", lambda f, p: f.mark_link_degraded(*p)
    ),
}


@dataclass(frozen=True)
class SimulationConfig:
    """Tunables of the execution model."""

    container_demand: Resources = Resources(1.0, 0.0)
    #: Cap on a single job's concurrent Map containers; None = as many as fit.
    map_slots_per_job: int | None = None
    #: Shuffle-rate normalisation: flow demand = size / rate_epoch.
    rate_epoch: float = 1.0
    #: Rack-local / remote input fetch penalties as multiples of
    #: split_size / server_link_bandwidth.  Input streaming overlaps map
    #: compute in Hadoop, so the penalty is a fraction of the full transfer.
    rack_read_factor: float = 0.25
    remote_read_factor: float = 0.5
    hdfs_replication: int = 3
    #: Server heterogeneity: compute speeds are sampled uniformly from
    #: ``[1 - spread, 1 + spread]`` (0 = homogeneous cluster).  Models the
    #: heterogeneous environments of the paper's related work (Tarazu, LATE).
    server_speed_spread: float = 0.0
    seed: int = 0
    delay_model: DelayModel = field(default_factory=DelayModel)
    cost_model: CostModel = field(default_factory=CostModel)
    max_events: int = 2_000_000
    #: Consecutive events tolerated at one simulated timestamp before the
    #: run raises ``SimTimeStall`` (e.g. a retry loop at zero delay).
    stall_limit: int = 50_000
    #: Fault timeline (empty = fault-free run, no recovery code paths).
    faults: tuple[FaultSpec, ...] = ()
    #: How many failure-induced re-executions a single task may consume
    #: before the run aborts (placement backoffs do not count).
    max_task_retries: int = 3
    #: Base delay for re-placement backoff: attempt ``k`` waits
    #: ``retry_backoff * 2**(k-1)`` (capped) before trying again.
    retry_backoff: float = 0.05
    #: Speculative-execution config (None = speculation off; no SPECULATE
    #: events are scheduled and every speculation hook is skipped).
    speculation: SpeculationConfig | None = None
    #: Simulated-time telemetry sampling interval (None = recorder off; the
    #: run loop then skips the hook entirely).  When set, the simulator owns
    #: a :class:`~repro.obs.timeline.TimelineRecorder` sampling gauges every
    #: ``timeline_dt`` simulated time units — reads only, so a recorded run
    #: is byte-identical to an unrecorded one.
    timeline_dt: float | None = None
    #: In-memory cap on telemetry samples (None = unbounded buffering, the
    #: classic behaviour).  When the buffer reaches the cap, the oldest
    #: samples are spilled to ``timeline_spill_path`` as JSONL (or dropped
    #: when no path is configured) so ``--timeline`` survives fat-tree
    #: k=16 / 10k-flow runs; the recorder's running aggregates keep
    #: ``summary()`` exact either way.
    timeline_max_samples: int | None = None
    #: JSONL sink for spilled telemetry samples (None = drop on overflow).
    timeline_spill_path: str | None = None
    #: Decision-provenance plane (None = off: no recorder is constructed
    #: and every audit hook below is skipped).  Opt-in and non-perturbing —
    #: all hooks are pure reads that consume no randomness, so a
    #: provenance-on run is byte-identical to a provenance-off run
    #: (``tests/simulator/test_provenance.py``).
    provenance: ProvenanceConfig | None = None
    #: Use the incremental (dirty-component) max-min allocator.  Allocations
    #: are bit-identical either way — False forces a full progressive fill
    #: on every recompute, for verification and benchmarking.
    network_incremental: bool = True
    #: Online workload plane (None = classic batch intake: plain FIFO
    #: admission, a run that cannot finish every job raises, and none of
    #: the admission/backpressure code runs — byte-identical to the
    #: pre-online engine).  With a config, arrivals flow through per-tenant
    #: queues and pluggable admission policies (:mod:`repro.workload`), and
    #: a run may end with jobs still queued or explicitly rejected — every
    #: one accounted under the overload contract.
    admission: AdmissionConfig | None = None


@dataclass(frozen=True)
class RunOutcome:
    """End-of-run facts a contract grades (:meth:`MapReduceSimulator.outcome`).

    ``worst_retries`` is the most failure re-executions charged to one task
    and ``retry_budget`` the config's ``max_task_retries``.  The admission
    fields stay empty on batch runs; ``queue_bound`` is set only under the
    ``queue-bound`` policy.
    """

    jobs: int
    completed: int
    rejection_records: int
    worst_retries: int
    retry_budget: int
    parked_flows: int
    events: int
    admission: dict[str, int] = field(default_factory=dict)
    queue_bound: int | None = None
    peak_queue: int = 0


@dataclass
class _ReduceState:
    container_id: int
    index: int
    input_size: float
    pending_flows: set[int] = field(default_factory=set)
    start_time: float = 0.0
    scheduled: bool = False
    #: Map indices whose shuffle data has been delivered to this reducer.
    #: Cleared on reducer restart (fetched data dies with the attempt).
    received: set[int] = field(default_factory=set)
    #: True once REDUCE_DONE committed — a finished reduce never re-runs.
    finished: bool = False
    #: Simulated time the (final) compute phase was scheduled — i.e. when
    #: the last inbound shuffle byte arrived.  Feeds the critical-path
    #: attribution; -1.0 until the reduce first becomes runnable.
    compute_start: float = -1.0


@dataclass
class _JobState:
    spec: JobSpec
    matrix: np.ndarray
    submit_time: float
    start_time: float = -1.0
    wave_size: int = 0
    next_map_index: int = 0
    maps_running: int = 0
    maps_finished: int = 0
    map_containers: dict[int, int] = field(default_factory=dict)  # cid -> map idx
    reduces: dict[int, _ReduceState] = field(default_factory=dict)  # by index
    remote_map_traffic: float = 0.0
    reduces_finished: int = 0
    #: map idx -> server holding its completed output (absent while the map
    #: runs, deleted again when a failure loses the output).
    map_output_server: dict[int, int] = field(default_factory=dict)
    #: map idx -> its container id; stable for the job's whole lifetime
    #: (re-executions reuse the cid, which keys all flow endpoints).
    map_cid_of: dict[int, int] = field(default_factory=dict)
    #: Map indices whose completed output was lost but whose re-execution
    #: was deferred because no unscheduled reduce needed the data; a later
    #: reducer restart may still pull them back into execution.
    lost_outputs: set[int] = field(default_factory=set)

    @property
    def all_maps_done(self) -> bool:
        return self.maps_finished >= self.spec.num_maps

    @property
    def done(self) -> bool:
        return self.all_maps_done and self.reduces_finished >= self.spec.num_reduces


class MapReduceSimulator:
    """One simulation run: a scheduler, a fabric, a stream of jobs."""

    def __init__(
        self,
        topology: Topology,
        scheduler: Scheduler,
        jobs: list[JobSpec],
        config: SimulationConfig | None = None,
    ) -> None:
        self.topology = topology
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        self.cluster = ClusterState(topology)
        self.controller = PolicyController(
            topology, cost_model=self.config.cost_model
        )
        self.network = FlowNetwork(
            topology,
            self.config.delay_model,
            incremental=self.config.network_incremental,
        )
        self.metrics = MetricsCollector()
        self.hdfs = HdfsModel(
            topology,
            replication=self.config.hdfs_replication,
            seed=self.config.seed,
        )
        self._rng = np.random.default_rng(self.config.seed)
        # Separate stream for ECMP path draws: routing choices must not
        # perturb workload sampling (keeps flow sizes identical across
        # schedulers under one seed).
        self._ecmp_rng = np.random.default_rng(self.config.seed + 0x5EED)
        spread = self.config.server_speed_spread
        if not 0.0 <= spread < 1.0:
            raise ValueError("server_speed_spread must be in [0, 1)")
        #: Per-server compute speed multipliers (1.0 = nominal).
        self.server_speeds: dict[int, float] = {
            sid: (
                float(self._rng.uniform(1.0 - spread, 1.0 + spread))
                if spread > 0
                else 1.0
            )
            for sid in topology.server_ids
        }
        #: Fault subsystem (None on fault-free runs: every recovery hook is
        #: then skipped, keeping the fast path bit-identical).
        self.faults: FaultInjector | None = (
            FaultInjector(topology, self.config.faults)
            if self.config.faults
            else None
        )
        # Unknown-/duplicate-flow errors out of the network name the owning
        # job and shuffle stage (diagnosable resume-after-recovery failures).
        self.network.flow_describer = self._describe_flow
        #: Speculation subsystem (None = off, same zero-overhead contract).
        self.speculation: SpeculationState | None = (
            SpeculationState(self.config.speculation)
            if self.config.speculation is not None
            else None
        )
        #: Simulated-time telemetry recorder (None = off; the import is
        #: deferred so a telemetry-free run never touches the module).
        if self.config.timeline_dt is not None:
            from ..obs.timeline import TimelineRecorder

            self.timeline: TimelineRecorder | None = TimelineRecorder(
                topology,
                self.config.timeline_dt,
                max_samples=self.config.timeline_max_samples,
                spill_path=self.config.timeline_spill_path,
            )
        else:
            self.timeline = None
        #: Decision-audit recorder (None = off; every provenance hook below
        #: is a no-op branch).  Emission is append-only into a bounded ring
        #: plus an incremental JSONL spill — see ``repro.obs.provenance``.
        self.provenance: ProvenanceRecorder | None = (
            ProvenanceRecorder.from_config(self.config.provenance, scheduler.name)
            if self.config.provenance is not None
            else None
        )
        if self.provenance is not None:
            # Pure annotation channel: the controller leaves a cost/slack
            # breadcrumb after each route_flow that the audit hook reads.
            self.controller.provenance_notes = True
        #: Events dispatched by the last :meth:`run` (non-perturbation tests
        #: compare this across recorded/unrecorded runs).
        self.events_processed = 0
        #: Jobs not yet finished; the SPECULATE sweep re-arms while > 0 so
        #: the detector's event chain drains with the workload.
        self._jobs_remaining = 0
        #: Nominal speeds, for restoring after slowdowns / recoveries.
        self._base_speeds = dict(self.server_speeds)
        #: cid -> live attempt number; completion events carry the attempt
        #: they belong to, so events of killed attempts are dropped stale.
        self._attempt: dict[int, int] = {}
        #: cid -> failure-induced re-executions, charged against
        #: ``config.max_task_retries``.
        self._retries: dict[int, int] = {}
        #: cid -> consecutive failed placement attempts (backoff exponent).
        self._backoff: dict[int, int] = {}
        #: cid -> token of its newest TASK_RETRY event (stale events no-op).
        self._retry_token: dict[int, int] = {}
        #: fid -> remaining bytes of a flow with no live path (parked until a
        #: switch recovery makes it routable again).
        self._parked: dict[int, float] = {}
        #: Admission controller of the online workload plane (None = batch
        #: FIFO intake; every plane hook below is then skipped).
        self.admission: AdmissionController | None = (
            AdmissionController(self.config.admission)
            if self.config.admission is not None
            else None
        )
        self._queue = EventQueue()
        self._pending: list[_JobState] = []  # FIFO admission queue
        self._jobs_by_id: dict[int, _JobState] = {}
        self._flow_index: dict[int, tuple[int, int]] = {}  # fid -> (job, reduce idx)
        self._flow_objects: dict[int, ShuffleFlow] = {}
        self._flow_by_endpoints: dict[tuple[int, int], int] = {}
        self._next_container_id = 0
        self._next_flow_id = 0
        self._net_epoch = 0
        self._net_time = 0.0

    # ------------------------------------------------------------------- run
    def run(self) -> MetricsCollector:
        """Execute to completion and return the metrics collector."""
        for spec in self.jobs:
            self._queue.push(
                Event(spec.submit_time, EventKind.JOB_ARRIVAL, payload=spec)
            )
        if self.faults is not None:
            self.faults.schedule(self._queue)
        if self.speculation is not None and self.jobs:
            self._jobs_remaining = len(self.jobs)
            first = min(spec.submit_time for spec in self.jobs)
            self._queue.push(
                Event(
                    first + self.speculation.config.check_interval,
                    EventKind.SPECULATE,
                )
            )
        events = 0
        stall_limit = self.config.stall_limit
        stall_time: float | None = None
        stall_count = 0
        observed = _OBS.enabled
        recorder = self.timeline
        prov = self.provenance
        if observed:
            _OBS.tracer.event(
                "sim.run.start",
                scheduler=self.scheduler.name,
                jobs=len(self.jobs),
                servers=self.topology.num_servers,
            )
        while self._queue:
            event = self._queue.pop()
            events += 1
            if events > self.config.max_events:
                raise EventBudgetExceeded(
                    "simulation exceeded max_events — livelock?"
                )
            if event.time != stall_time:
                stall_time = event.time
                stall_count = 0
            stall_count += 1
            if stall_count > stall_limit:
                raise SimTimeStall(
                    f"chaos watchdog: {stall_count} consecutive events "
                    f"at sim time {event.time!r} — sim-time stall"
                )
            if recorder is not None:
                # Pre-dispatch sampling: state is piecewise constant since
                # the previous event, so the grid points covered by this
                # event's timestamp see exactly the live allocation.
                recorder.observe(self, event)
            if prov is not None:
                # Stamp the audit clock so hooks deep inside schedulers and
                # handlers never need one of their own.
                prov.now = event.time
            if observed:
                self._dispatch_traced(event)
                continue
            self._dispatch(event)
        self.events_processed = events
        if recorder is not None:
            recorder.finish(self, self._net_time)
        if prov is not None:
            prov.close()
        unfinished = [j for j in self._jobs_by_id.values() if not j.done]
        if self.admission is not None:
            # Online plane: jobs still sitting in admission queues when the
            # event stream drains are an *accounted* outcome ("queued"), not
            # an error — the overload contract's third leg.  Jobs that
            # actually started but did not finish remain fatal.
            queued_ids = {s.job_id for s in self.admission.queued_jobs()}
            unfinished = [
                j for j in unfinished if j.spec.job_id not in queued_ids
            ]
        if unfinished or self._pending:
            raise UnfinishedJobs(
                f"simulation ended with {len(unfinished)} unfinished and "
                f"{len(self._pending)} unadmitted jobs"
            )
        if observed:
            _OBS.tracer.event(
                "sim.run.end", scheduler=self.scheduler.name, events=events
            )
            if self.admission is not None:
                for name, value in self.admission.counters().items():
                    _OBS.tracer.count(name, value)
            if self.faults is not None:
                for name, value in self.faults.summary().items():
                    _OBS.tracer.count(name, value)
            if self.speculation is not None:
                for name, value in self.speculation.summary().items():
                    _OBS.tracer.count(name, value)
            if _OBS.checker is not None:
                # End-of-run quiescence: every flow drained, every policy
                # released, switch loads back to exactly their base values.
                _OBS.checker.check_quiescent(
                    self.controller, self.network, where="sim.run.end"
                )
                if self.speculation is not None:
                    _OBS.checker.check_speculation(
                        self.speculation, where="sim.run.end"
                    )
                if self.admission is not None:
                    _OBS.checker.check_online_accounting(
                        self.admission, self.metrics, where="sim.run.end"
                    )
        return self.metrics

    @property
    def queue_depth(self) -> int:
        """Events waiting in the event queue."""
        return len(self._queue)

    @property
    def parked_flows(self) -> int:
        """Flows parked until a failed element on their path recovers."""
        return len(self._parked)

    def outcome(self) -> RunOutcome:
        """What the run left behind, for contract graders."""
        outcome = RunOutcome(
            jobs=len(self.jobs),
            completed=len(self.metrics.jobs),
            rejection_records=len(self.metrics.rejections),
            worst_retries=max(self._retries.values(), default=0),
            retry_budget=self.config.max_task_retries,
            parked_flows=self.parked_flows,
            events=self.events_processed,
        )
        admission = self.admission
        if admission is None:
            return outcome
        policy = admission.config
        return dataclasses.replace(
            outcome,
            admission={k: int(v) for k, v in admission.counters().items()},
            queue_bound=(
                policy.queue_bound if policy.policy == "queue-bound" else None
            ),
            peak_queue=admission.max_queue_len(),
        )

    def _dispatch(self, event: Event) -> None:
        """Process one event (the hot loop body)."""
        if event.kind is EventKind.SPECULATE:
            # Deliberately bypasses the network glue: a detector sweep never
            # touches the fluid network, and advancing it here would split
            # the allocation intervals differently from a speculation-off
            # run — breaking the no-straggler byte-identity contract
            # through float accumulation alone.
            self._on_speculate(event.time)
            return
        if event.kind is EventKind.KILL_ATTEMPT:
            # Same-instant kill order from a speculation commit; pure
            # bookkeeping, no network interaction (see EVENT_PRIORITY).
            self._on_kill_attempt(event.time, *event.payload)
            return
        self._advance_network(event.time)
        if event.kind is EventKind.NETWORK and event.epoch != self._net_epoch:
            self._drain_completed(event.time)
            return
        if event.kind is EventKind.JOB_ARRIVAL:
            self._on_job_arrival(event.time, event.payload)
        elif event.kind is EventKind.MAP_DONE:
            self._on_map_done(event.time, *event.payload)
            self._maybe_rebalance()
        elif event.kind is EventKind.REDUCE_DONE:
            self._on_reduce_done(event.time, *event.payload)
        elif event.kind is EventKind.SERVER_FAIL:
            self._on_server_fail(event.time, event.payload)
        elif event.kind is EventKind.SERVER_RECOVER:
            self._on_server_recover(event.time, event.payload)
        elif event.kind is EventKind.TASK_SLOWDOWN:
            self._on_task_slowdown(event.time, *event.payload)
        elif event.kind is EventKind.TASK_RETRY:
            self._on_task_retry(event.time, *event.payload)
        elif event.kind in _FABRIC_FAULTS:
            self._on_fabric_fault(event.time, event.kind, event.payload)
        self._drain_completed(event.time)
        self._schedule_network_checkpoint(event.time)

    def _dispatch_traced(self, event: Event) -> None:
        """Observed-mode dispatch: event counters/timers plus the network
        and controller invariant checkpoints."""
        tracer = _OBS.tracer
        tracer.count(f"sim.event.{event.kind.name.lower()}")
        with tracer.timeit("sim.dispatch"):
            self._dispatch(event)

    # ---------------------------------------------------------- network glue
    def _advance_network(self, now: float) -> None:
        dt = now - self._net_time
        if dt > 0:
            self.network.advance(dt)
        self._net_time = now
        if _OBS.enabled and _OBS.checker is not None:
            # Checkpoint: the fluid allocation must stay feasible every time
            # simulated time moves.
            _OBS.checker.check_flow_conservation(
                self.network, where=f"advance t={now:.6g}"
            )
            if self.faults is not None:
                # Fault-plane checkpoint: no active flow may be traversing a
                # failed switch or a dead link at this instant.
                _OBS.checker.check_path_liveness(
                    self.network, self.faults, where=f"advance t={now:.6g}"
                )

    def _schedule_network_checkpoint(self, now: float) -> None:
        self._net_epoch += 1
        horizon = self.network.time_to_next_completion()
        if horizon is not None:
            self._queue.push(
                Event(
                    now + horizon,
                    EventKind.NETWORK,
                    epoch=self._net_epoch,
                )
            )

    def _maybe_rebalance(self) -> None:
        """Online policy rebalancing sweep (Section 5.1.1), when enabled.

        Re-runs the optimal-path DP over live flows and migrates the ones
        that gain past the hysteresis threshold, then syncs the fluid
        network's paths with the controller's updated policies.
        """
        config = getattr(self.scheduler, "online_rebalance", None)
        if config is None:
            return
        ceiling = getattr(config, "pressure_ceiling", None)
        if ceiling is not None and self.cluster.occupancy() >= ceiling:
            # Backpressure: under saturation the sweep would thrash against
            # the admission churn; defer until occupancy drops.
            return
        active_ids = {f.flow_id for f in self.network.active_flows}
        if not active_ids:
            return
        from ..core.rebalance import rebalance_flows

        live = [self._flow_objects[fid] for fid in active_ids]
        rebalance_flows(self.controller, live, config)
        for fid in active_ids:
            policy = self.controller.policy_of(fid)
            if policy is None:
                continue
            current = next(
                f for f in self.network.active_flows if f.flow_id == fid
            )
            if policy.path != current.path:
                self.network.reroute_flow(fid, policy.path)

    def _drain_completed(self, now: float) -> None:
        for fid in self.network.completed_flows():
            active = self.network.remove_flow(fid)
            self.controller.release(fid)
            flow = self._flow_objects.pop(fid)
            self.metrics.record_flow(
                FlowRecord(
                    flow_id=fid,
                    job_id=flow.job_id,
                    size=flow.size,
                    start=active.start_time,
                    finish=now,
                    num_switches=active.num_switches,
                    delay_us=active.start_delay_us,
                    map_index=flow.map_index,
                    reduce_index=flow.reduce_index,
                )
            )
            self._flow_done(now, fid, flow.map_index)
        if _OBS.enabled and _OBS.checker is not None:
            # Checkpoint: after completions are drained the controller's
            # bookkeeping and the shared cluster must be consistent.
            where = f"drain t={now:.6g}"
            _OBS.checker.check_controller(self.controller, where=where)
            _OBS.checker.check_server_capacity(self.cluster, where=where)
            if self.speculation is not None:
                _OBS.checker.check_speculation(self.speculation, where=where)

    def _flow_done(self, now: float, fid: int, map_index: int) -> None:
        job_id, reduce_index = self._flow_index.pop(fid)
        job = self._jobs_by_id[job_id]
        reduce_state = job.reduces[reduce_index]
        reduce_state.pending_flows.discard(fid)
        reduce_state.received.add(map_index)
        self._maybe_finish_reduce(now, job, reduce_state)

    def _maybe_finish_reduce(
        self, now: float, job: _JobState, reduce_state: _ReduceState
    ) -> None:
        if reduce_state.finished or reduce_state.scheduled:
            return
        if not job.all_maps_done or reduce_state.pending_flows:
            return
        server = self.cluster.container(reduce_state.container_id).server_id
        if server is None:
            # Reducer awaiting re-placement after a failure; the retry path
            # re-checks once it lands on a live server.
            return
        reduce_state.scheduled = True
        reduce_state.compute_start = now
        speed = self.server_speeds[server]
        compute = job.spec.reduce_duration(reduce_state.input_size) / speed
        self._queue.push(
            Event(
                now + compute,
                EventKind.REDUCE_DONE,
                payload=(
                    job.spec.job_id,
                    reduce_state.index,
                    self._attempt.get(reduce_state.container_id, 0),
                ),
            )
        )

    # ------------------------------------------------------------- admission
    def _free_slots(self) -> int:
        demand = self.config.container_demand
        cluster = self.cluster
        slots = 0
        for sid in cluster.server_ids:
            if cluster.is_failed(sid):
                continue
            # Residual components read directly (clamped at zero like
            # ``Resources.__sub__``), without building a vector per server.
            capacity, used = cluster.capacity(sid), cluster.used(sid)
            if demand.memory > 0:
                free_mem = max(capacity.memory - used.memory, 0.0)
                by_mem = int(free_mem // demand.memory)
            else:
                by_mem = self.topology.num_servers * 1000
            if demand.vcores > 0:
                free_cpu = max(capacity.vcores - used.vcores, 0.0)
                by_cpu = int(free_cpu // demand.vcores)
            else:
                by_cpu = by_mem
            slots += min(by_mem, by_cpu)
        return slots

    def _on_job_arrival(self, now: float, spec: JobSpec) -> None:
        if self.admission is not None:
            # Online plane: decide *before* materialising any job state, so
            # a rejected job consumes no RNG draws or HDFS placements and
            # the accepted stream is policy-independent up to the decision.
            reason = self.admission.offer(spec, now, self.cluster.occupancy())
            if self.provenance is not None:
                self.provenance.emit(
                    "admission",
                    reason if reason is not None else "accepted",
                    job=spec.job_id,
                    tenant=spec.tenant,
                    occupancy=round(self.cluster.occupancy(), 9),
                    **self.admission.provenance_context(spec.tenant),
                )
            if reason is not None:
                self.metrics.record_rejection(
                    RejectionRecord(
                        job_id=spec.job_id,
                        name=spec.name,
                        tenant=spec.tenant,
                        time=now,
                        reason=reason,
                    )
                )
                if self.speculation is not None and self._jobs_remaining > 0:
                    # A rejected job will never complete; without this the
                    # detector's re-arm chain would wait for it forever.
                    self._jobs_remaining -= 1
                return
        elif self.provenance is not None:
            self.provenance.emit("admission", "batch-fifo", job=spec.job_id)
        state = _JobState(
            spec=spec,
            matrix=shuffle_matrix(spec, self._rng),
            submit_time=now,
        )
        self.hdfs.place_job_blocks(spec)
        self._jobs_by_id[spec.job_id] = state
        if self.admission is None:
            self._pending.append(state)
        self._try_admit(now)

    def _try_admit(self, now: float) -> None:
        if self.admission is not None:
            self._try_admit_online(now)
            return
        while self._pending:
            job = self._pending[0]
            spec = job.spec
            free = self._free_slots()
            wave = spec.num_maps
            if self.config.map_slots_per_job is not None:
                wave = min(wave, self.config.map_slots_per_job)
            needed_min = 1 + spec.num_reduces  # at least one map slot
            if free < needed_min:
                return  # FIFO: head blocks the queue (no starvation)
            wave = min(wave, max(1, free - spec.num_reduces))
            self._pending.pop(0)
            job.wave_size = wave
            job.start_time = now
            self._start_job(now, job)

    def _try_admit_online(self, now: float) -> None:
        """Online-plane queue drain: weighted-fair across tenant queues,
        deferred entirely while the backpressure latch holds.

        The fair-share head blocks its whole drain round exactly like the
        batch FIFO head blocks `_pending` — skipping past a big job to
        start a smaller one would starve it indefinitely under sustained
        load.
        """
        admission = self.admission
        assert admission is not None
        while True:
            if admission.defer(self.cluster.occupancy(), len(self._parked)):
                return
            spec = admission.peek()
            if spec is None:
                return
            free = self._free_slots()
            wave = spec.num_maps
            if self.config.map_slots_per_job is not None:
                wave = min(wave, self.config.map_slots_per_job)
            if free < 1 + spec.num_reduces:
                return
            wave = min(wave, max(1, free - spec.num_reduces))
            admission.commit(spec)
            job = self._jobs_by_id[spec.job_id]
            job.wave_size = wave
            job.start_time = now
            self._start_job(now, job)

    # -------------------------------------------------------------- placement
    def _new_container(self, task: TaskRef) -> int:
        cid = self._next_container_id
        self._next_container_id += 1
        container = Container(
            container_id=cid, demand=self.config.container_demand, task=task
        )
        self.cluster.add_container(container)
        return cid

    def _make_flows(
        self, job: _JobState, map_cids: dict[int, int]
    ) -> list[ShuffleFlow]:
        """Flows from the given wave's maps to every reduce of the job."""
        flows = []
        for cid, mi in map_cids.items():
            for reduce_state in job.reduces.values():
                size = float(job.matrix[mi, reduce_state.index])
                if size <= 1e-12:
                    continue
                flows.append(
                    ShuffleFlow(
                        flow_id=self._next_flow_id,
                        job_id=job.spec.job_id,
                        map_index=mi,
                        reduce_index=reduce_state.index,
                        src_container=cid,
                        dst_container=reduce_state.container_id,
                        size=size,
                        rate=size / self.config.rate_epoch,
                    )
                )
                self._next_flow_id += 1
        return flows

    def _planning_context(
        self, flows: list[ShuffleFlow]
    ) -> SchedulingContext:
        """Per-job planning instance over the shared cluster state."""
        planner = PolicyController(
            self.topology, cost_model=self.config.cost_model
        )
        planner.base_loads_from(self.controller)
        planner.sync_failures_from(self.controller)
        taa = TAAInstance(
            self.topology,
            containers=[],
            flows=flows,
            cluster=self.cluster,
            controller=planner,
        )
        return SchedulingContext(
            taa=taa,
            hdfs=self.hdfs,
            rng=self._rng,
            provenance=self.provenance,
        )

    def _start_job(self, now: float, job: _JobState) -> None:
        spec = job.spec
        if self.provenance is not None:
            context = (
                self.admission.provenance_context(spec.tenant)
                if self.admission is not None
                else {}
            )
            self.provenance.emit(
                "admission",
                "started",
                job=spec.job_id,
                wave_size=job.wave_size,
                maps=spec.num_maps,
                reduces=spec.num_reduces,
                free_slots=self._free_slots(),
                **context,
            )
        for ri in range(spec.num_reduces):
            cid = self._new_container(TaskRef(spec.job_id, TaskKind.REDUCE, ri))
            job.reduces[ri] = _ReduceState(
                container_id=cid,
                index=ri,
                input_size=float(job.matrix[:, ri].sum()),
                start_time=now,
            )
        map_cids: dict[int, int] = {}
        for _ in range(min(job.wave_size, spec.num_maps)):
            mi = job.next_map_index
            job.next_map_index += 1
            cid = self._new_container(TaskRef(spec.job_id, TaskKind.MAP, mi))
            map_cids[cid] = mi
            job.map_cid_of[mi] = cid
        job.map_containers = map_cids

        flows = self._make_flows(job, map_cids)
        self._register_flows(job, flows)
        ctx = self._planning_context(flows)
        self.scheduler.place_initial_wave(
            ctx,
            spec,
            list(map_cids),
            [r.container_id for r in job.reduces.values()],
        )
        if self.faults is not None:
            # A degraded fabric may leave reduces unplaced; park them on the
            # retry path (their inbound flows wait via the pending registry).
            for reduce_state in job.reduces.values():
                if not self.cluster.container(reduce_state.container_id).is_placed:
                    self._schedule_retry(now, reduce_state.container_id)
        self._launch_maps(now, job, map_cids)

    def _register_flows(self, job: _JobState, flows: list[ShuffleFlow]) -> None:
        for flow in flows:
            self._flow_objects[flow.flow_id] = flow
            self._flow_index[flow.flow_id] = (job.spec.job_id, flow.reduce_index)
            self._flow_by_endpoints[(flow.src_container, flow.dst_container)] = (
                flow.flow_id
            )
            job.reduces[flow.reduce_index].pending_flows.add(flow.flow_id)

    def _launch_maps(
        self, now: float, job: _JobState, map_cids: dict[int, int]
    ) -> None:
        spec = job.spec
        for cid, mi in map_cids.items():
            server = self.cluster.container(cid).server_id
            if server is None:
                # Only reachable on fault runs: the degraded fabric could not
                # host this map yet.  It still counts as running (the wave
                # barrier must wait for it) and launches via the retry path.
                assert self.faults is not None, (
                    "scheduler left a map container unplaced"
                )
                job.maps_running += 1
                self._schedule_retry(now, cid)
                continue
            duration, nominal = self._map_timing(job, mi, server)
            job.maps_running += 1
            if self.speculation is not None:
                self.speculation.tracker.note_start(
                    spec.job_id, mi, cid, now, duration, nominal
                )
            self._queue.push(
                Event(
                    now + duration,
                    EventKind.MAP_DONE,
                    payload=(spec.job_id, cid, mi, now, self._attempt.get(cid, 0)),
                )
            )

    def _map_timing(
        self, job: _JobState, map_index: int, server: int
    ) -> tuple[float, float]:
        """(actual, nominal) duration of a map attempt on ``server``.

        *Actual* uses the server's live speed (slowdowns included); *nominal*
        the fault-free base speed.  Both share one read-penalty computation —
        it has a traffic-accounting side effect — and when the server is
        healthy the two expressions are float-identical, which is what lets
        the straggler detector treat a normalised rate of exactly 1.0 as
        "not a straggler".
        """
        penalty = self._read_penalty(job, map_index, server, account=True)
        duration = job.spec.map_duration / self.server_speeds[server] + penalty
        nominal = job.spec.map_duration / self._base_speeds[server] + penalty
        return duration, nominal

    def _read_penalty(
        self,
        job: _JobState,
        map_index: int,
        server: int,
        account: bool = True,
    ) -> float:
        """Extra runtime of a non-local map read; ``account=False`` prices a
        hypothetical placement without charging the remote-traffic meter."""
        locality = self.hdfs.locality(job.spec.job_id, map_index, server)
        if locality == "node-local":
            return 0.0
        split = job.spec.map_input_size
        if account:
            job.remote_map_traffic += split
        bandwidth = min(
            self.topology.link(server, n).bandwidth
            for n in self.topology.neighbors(server)
        )
        factor = (
            self.config.rack_read_factor
            if locality == "rack-local"
            else self.config.remote_read_factor
        )
        return factor * split / bandwidth

    # --------------------------------------------------------------- map side
    def _on_map_done(
        self,
        now: float,
        job_id: int,
        cid: int,
        map_index: int,
        started: float,
        attempt: int = 0,
    ) -> None:
        if attempt != self._attempt.get(cid, 0):
            return  # completion of an attempt killed by a failure or a kill
        job = self._jobs_by_id[job_id]
        server = self.cluster.container(cid).server_id
        assert server is not None
        if self.speculation is not None:
            self.speculation.tracker.note_finish(cid)
            # First finisher of a speculation pair wins: dissolve the pair
            # and push the same-instant kill order for the losing attempt.
            self._settle_speculation(now, job, cid)
        job.maps_running -= 1
        job.maps_finished += 1
        job.map_output_server[map_index] = server
        if self.speculation is not None:
            self.speculation.note_commit(job_id, map_index, cid, attempt, server)
        self.metrics.record_task(
            TaskRecord(
                job_id=job_id,
                kind="map",
                index=map_index,
                start=started,
                finish=now,
                server=server,
                attempt=attempt,
                # A committing cid that differs from the map's stable cid is
                # by construction a speculative backup attempt.
                speculative=cid != job.map_cid_of[map_index],
                compute_start=started,
            )
        )
        # Flow endpoints stay keyed to the map's original container id even
        # when a backup attempt commits (map_cid_of is stable for the job's
        # lifetime); the source server is read back out of map_output_server.
        self._start_flows_from(now, job, job.map_cid_of[map_index], map_index)
        if cid not in job.map_containers and self.cluster.container(cid).is_placed:
            # Re-execution of a previous wave's map: its slot is not part of
            # the current wave barrier, release it immediately.
            self.cluster.unplace(cid)

        if job.maps_running == 0:
            # Wave barrier: recycle the map containers.
            for done_cid in job.map_containers:
                if self.cluster.container(done_cid).is_placed:
                    self.cluster.unplace(done_cid)
            job.map_containers = {}
            if job.next_map_index < job.spec.num_maps:
                self._start_next_wave(now, job)
            else:
                for reduce_state in job.reduces.values():
                    self._maybe_finish_reduce(now, job, reduce_state)
            self._try_admit(now)

    def _start_next_wave(self, now: float, job: _JobState) -> None:
        spec = job.spec
        remaining = spec.num_maps - job.next_map_index
        count = min(job.wave_size, remaining)
        map_cids: dict[int, int] = {}
        for _ in range(count):
            mi = job.next_map_index
            job.next_map_index += 1
            cid = self._new_container(TaskRef(spec.job_id, TaskKind.MAP, mi))
            map_cids[cid] = mi
            job.map_cid_of[mi] = cid
        job.map_containers = map_cids
        flows = self._make_flows(job, map_cids)
        self._register_flows(job, flows)
        ctx = self._planning_context(flows)
        self.scheduler.place_map_wave(ctx, spec, list(map_cids))
        self._launch_maps(now, job, map_cids)

    def _start_flows_from(
        self, now: float, job: _JobState, map_cid: int, map_index: int
    ) -> None:
        # Late binding: the source is wherever the *committed* output lives,
        # which is the completing container's server on the fault-free path
        # but the winning backup's server after a speculative win.
        src = job.map_output_server[map_index]
        if self.speculation is not None:
            self.speculation.note_flow(job.spec.job_id, map_index, src)
        for reduce_state in job.reduces.values():
            fid = self._flow_by_endpoints.pop(
                (map_cid, reduce_state.container_id), None
            )
            if fid is None:
                continue
            flow = self._flow_objects[fid]
            dst = self.cluster.container(reduce_state.container_id).server_id
            if dst is None:
                # Reducer awaiting re-placement: leave the flow pending; the
                # reducer's relaunch starts it once it lands somewhere.
                assert self.faults is not None
                self._flow_by_endpoints[
                    (map_cid, reduce_state.container_id)
                ] = fid
                continue
            if src == dst:
                self._deliver_local(now, job, fid, flow)
                continue
            self._launch_flow(now, flow, src, dst)

    def _deliver_local(
        self, now: float, job: _JobState, fid: int, flow: ShuffleFlow
    ) -> None:
        """Local shuffle: no network traversal, instant delivery."""
        self.metrics.record_flow(
            FlowRecord(
                flow_id=fid,
                job_id=job.spec.job_id,
                size=flow.size,
                start=now,
                finish=now,
                num_switches=0,
                delay_us=0.0,
                map_index=flow.map_index,
                reduce_index=flow.reduce_index,
            )
        )
        del self._flow_objects[fid]
        self._flow_done(now, fid, flow.map_index)

    def _launch_flow(
        self, now: float, flow: ShuffleFlow, src: int, dst: int
    ) -> None:
        """Route and start a shuffle flow, parking it when no live path
        exists (only possible while a switch or link is dead)."""
        path = self._route(flow, src, dst)
        if path is None:
            self._park_flow(flow.flow_id, flow.size, now)
            return
        self.network.add_flow(flow.flow_id, path, flow.size, now)

    def _route(
        self, flow: ShuffleFlow, src: int, dst: int
    ) -> tuple[int, ...] | None:
        """Pick a path for a starting/restarting flow.

        Returns ``None`` (caller parks the flow) only when failed switches
        or dead links leave no live path at all; on fault-free runs the
        result is always a path and the logic is byte-for-byte the
        pre-fault behaviour.
        """
        faulty = self.faults is not None and self.faults.any_dead()
        path, reason, detail = self._route_impl(flow, src, dst, faulty)
        if path is not None and faulty:
            self.faults.assert_path_clear(path)
        if self.provenance is not None:
            self.provenance.emit(
                "route",
                reason,
                job=flow.job_id,
                task=flow_label(flow.map_index, flow.reduce_index),
                src=src,
                dst=dst,
                hops=0 if path is None else len(path) - 1,
                path=None if path is None else list(path),
                **detail,
            )
        return path

    def _route_impl(
        self, flow: ShuffleFlow, src: int, dst: int, faulty: bool
    ) -> tuple[tuple[int, ...] | None, str, dict]:
        """Route one flow; also names the branch that decided (the
        route-provenance reason code) and its evidence.  The extra return
        values are computed from work the routing already did — assembling
        them changes no control flow and consumes no randomness."""
        if self.scheduler.network_aware:
            try:
                policy = self.controller.route_flow(flow, src, dst)
                return policy.path, "policy-optimal", self._route_note()
            except NoFeasiblePathError:
                pass
            try:
                # Fabric saturated: fall through to capacity-ignoring optimum
                # (the physical network still carries it, just congested).
                policy = self.controller.route_flow(
                    flow, src, dst, enforce_capacity=False
                )
                return policy.path, "policy-uncapacitated", self._route_note()
            except NoFeasiblePathError:
                # Even uncapacitated routing found nothing — only possible
                # when failures disconnect the pair; park until recovery.
                if self.faults is not None:
                    return None, "no-path", {}
                raise
        if getattr(self.scheduler, "ecmp", False):
            # ECMP hashing: uniform choice over the equal-cost path set.
            from ..topology.routing import enumerate_paths

            if faulty:
                candidates = self._alive_paths(src, dst)
                if not candidates:
                    return None, "no-path", {}
            else:
                candidates = enumerate_paths(self.topology, src, dst, slack=0,
                                             limit=64)
            drawn = int(self._ecmp_rng.integers(len(candidates)))
            return (
                candidates[drawn],
                self.scheduler.route_reason,
                {"candidates": len(candidates), "drawn": drawn},
            )
        if faulty:
            candidates = self._alive_paths(src, dst)
            if not candidates:
                return None, "no-path", {}
            return (
                candidates[0],
                self.scheduler.route_reason,
                {"candidates": len(candidates)},
            )
        return (
            self.topology.shortest_path(src, dst),
            self.scheduler.route_reason,
            {},
        )

    def _route_note(self) -> dict:
        """The controller's post-install breadcrumb (cost, capacity mode),
        populated only when provenance enabled it — empty otherwise."""
        note = getattr(self.controller, "last_route", None)
        return dict(note) if note else {}

    def _alive_paths(
        self, src: int, dst: int, max_slack: int = 4
    ) -> list[tuple[int, ...]]:
        """Shortest live paths for the non-policy baselines under failures:
        the first slack level whose equal-cost set contains a path avoiding
        every failed switch and dead link (graceful degradation — any
        feasible path)."""
        from ..topology.routing import enumerate_paths

        first_dead = self.faults.first_dead
        for slack in range(max_slack + 1):
            alive = [
                p
                for p in enumerate_paths(
                    self.topology, src, dst, slack=slack, limit=64
                )
                if first_dead(p) is None
            ]
            if alive:
                return alive
        return []

    # ------------------------------------------------------------ fault layer
    # Everything below runs only when a fault timeline is configured.  The
    # handlers maintain one invariant: after each fault event the engine's
    # bookkeeping (wave counters, pending/parked flow registries, cluster
    # placements, controller policies) describes a state the remaining
    # simulation can drive to completion — no task or byte silently lost.

    def _on_server_fail(self, now: float, server_id: int) -> None:
        injector = self.faults
        assert injector is not None
        if not injector.mark_server_failed(server_id):
            return
        if self.provenance is not None:
            self.provenance.emit(
                "fault",
                "server-fail",
                server=server_id,
                **injector.provenance_context(),
            )
        hosted = self.cluster.hosted_on(server_id)  # sorted => deterministic
        self.cluster.fail_server(server_id)
        # Kill resident tasks.  Completed maps still holding their wave slot
        # are handled by the lost-output sweep below, not as running tasks.
        for cid in hosted:
            container = self.cluster.container(cid)
            if container.server_id != server_id:
                # Already moved off by an earlier iteration: restarting a
                # reducer re-executes (and unplaces) the completed maps it
                # fetched from this server.
                continue
            task = container.task
            job = self._jobs_by_id[task.job_id]
            if task.kind is TaskKind.MAP:
                if task.index in job.map_output_server:
                    continue  # completed map: the lost-output sweep owns it
                sp = self.speculation
                if sp is not None and cid in sp.primary_of:
                    # The speculative copy died with its server: the
                    # original keeps running, no retry budget is charged.
                    self._cancel_backup(now, job, cid)
                elif sp is not None and cid in sp.backup_of:
                    # The original died but its backup lives: promote the
                    # backup to sole attempt instead of re-queueing.
                    self._promote_backup(now, job, cid)
                else:
                    self._kill_running_map(now, job, cid, task.index)
            else:
                self._restart_reduce(now, job, job.reduces[task.index])
        # Every completed map output stored on the dead server is lost.
        lost: list[tuple[_JobState, int, int]] = []
        for job_id in sorted(self._jobs_by_id):
            job = self._jobs_by_id[job_id]
            for mi in sorted(job.map_output_server):
                if job.map_output_server[mi] == server_id:
                    lost.append((job, job.map_cid_of[mi], mi))
        for job, cid, mi in lost:
            self._restart_map(now, job, cid, mi)

    def _on_server_recover(self, now: float, server_id: int) -> None:
        injector = self.faults
        assert injector is not None
        if not injector.mark_server_recovered(server_id):
            return
        if self.provenance is not None:
            self.provenance.emit(
                "fault",
                "server-recover",
                server=server_id,
                **injector.provenance_context(),
            )
        self.cluster.recover_server(server_id)
        self.server_speeds[server_id] = self._base_speeds[server_id]
        # Capacity returned: wake every task stuck in placement backoff (the
        # token bump inside _schedule_retry stales their backoff events).
        for cid in sorted(self._backoff):
            self._schedule_retry(now, cid)
        self._try_admit(now)

    def _on_fabric_fault(
        self, now: float, kind: EventKind, payload: object
    ) -> None:
        """One switch or link transition: fail, recover or degrade.

        In order: mark the injector (repeating the current state is a
        no-op), emit the ``fault`` record, and for a link set the fluid
        network's capacity factor.  Only a live→dead flip masks the element
        in the controller and reroutes every live flow now crossing a dead
        element, parking the ones with no live path left; a dead→live flip
        unmasks it and retries the parking lot.  A link degraded to factor
        0.0 is dead exactly like a failed one; any other factor only
        squeezes the max-min allocation.
        """
        injector = self.faults
        assert injector is not None
        reason, mark = _FABRIC_FAULTS[kind]
        is_link = not (
            kind is EventKind.SWITCH_FAIL or kind is EventKind.SWITCH_RECOVER
        )
        element = payload[:2] if is_link else payload
        where = {"link": list(element)} if is_link else {"switch": element}
        was_dead = injector.is_dead(element)
        if not mark(injector, payload):
            return
        if self.provenance is not None:
            detail = dict(where)
            if kind is EventKind.LINK_DEGRADE:
                detail["factor"] = payload[2]
            self.provenance.emit(
                "fault", reason, **detail, **injector.provenance_context()
            )
        if is_link:
            self.network.set_link_capacity_factor(
                *element, injector.link_capacity_factor(*element)
            )
        dead = injector.is_dead(element)
        if dead == was_dead:
            return
        if not dead:
            if is_link:
                self.controller.recover_link(*element)
            else:
                self.controller.recover_switch(element)
            self._unpark_flows(now)
            return
        if is_link:
            self.controller.fail_link(*element)
        else:
            self.controller.fail_switch(element)
        for active in self.network.active_flows:
            if active.remaining <= 0.0:
                continue  # already finished, awaiting drain
            if injector.first_dead(active.path) is None:
                continue  # crosses no dead element
            flow = self._flow_objects[active.flow_id]
            path = self._route(flow, active.path[0], active.path[-1])
            if self.provenance is not None:
                self.provenance.emit(
                    "reroute",
                    "link-fail-reroute" if is_link else "switch-fail-reroute",
                    job=flow.job_id,
                    task=flow_label(flow.map_index, flow.reduce_index),
                    **where,
                    outcome="parked" if path is None else "rerouted",
                    remaining=active.remaining,
                )
            if path is None:
                remaining = active.remaining
                self.network.remove_flow(active.flow_id)
                self.controller.release(active.flow_id)
                self._park_flow(active.flow_id, remaining, now)
            else:
                self.network.reroute_flow(active.flow_id, path)
                injector.count("faults.flows_rerouted")

    def _on_task_slowdown(
        self, now: float, server_id: int, factor: float
    ) -> None:
        """Straggler injection: divide the server's speed by ``factor``.

        Affects tasks launched after the event (running tasks keep their
        scheduled completion); factor 1.0 — or a server recovery — restores
        nominal speed.  Restores are counted separately so a timed-slowdown
        timeline (``FaultSpec.duration``) is auditable: every restore the
        injector scheduled must eventually fire."""
        assert self.faults is not None
        self.server_speeds[server_id] = self._base_speeds[server_id] / factor
        if self.provenance is not None:
            self.provenance.emit(
                "fault", "task-slowdown", server=server_id, factor=factor
            )
        if factor == 1.0:
            self.faults.count("faults.slowdown_restore")
        else:
            self.faults.count("faults.slowdown")

    # --- flow parking -------------------------------------------------------
    def _park_flow(self, fid: int, remaining: float, now: float) -> None:
        assert self.faults is not None
        self._parked[fid] = remaining
        if self.provenance is not None:
            flow = self._flow_objects[fid]
            self.provenance.emit(
                "park",
                "flow-parked",
                job=flow.job_id,
                task=flow_label(flow.map_index, flow.reduce_index),
                remaining=remaining,
                parked=len(self._parked),
                **self.faults.provenance_context(),
            )
        self.faults.count("faults.flows_parked")
        self.faults.note_parked(fid, now)

    def _unpark_flows(self, now: float) -> None:
        for fid in sorted(self._parked):
            flow = self._flow_objects[fid]
            job = self._jobs_by_id[flow.job_id]
            src = job.map_output_server.get(flow.map_index)
            dst = self.cluster.container(
                job.reduces[flow.reduce_index].container_id
            ).server_id
            if src is None or dst is None:
                # An endpoint is itself mid-recovery; its restart path owns
                # the flow (and has already pulled it out of the parking lot
                # unless re-parked later).
                continue
            path = self._route(flow, src, dst)
            if path is None:
                continue  # still no live path — stays parked
            if self.speculation is not None:
                self.speculation.note_flow(flow.job_id, flow.map_index, src)
            remaining = self._parked.pop(fid)
            self.network.add_flow(fid, path, flow.size, now, remaining=remaining)
            if self.provenance is not None:
                self.provenance.emit(
                    "park",
                    "flow-resumed",
                    job=flow.job_id,
                    task=flow_label(flow.map_index, flow.reduce_index),
                    remaining=remaining,
                    parked=len(self._parked),
                )
            self.faults.count("faults.flows_resumed")
            self.faults.note_resumed(fid, now)

    def _describe_flow(self, fid: int) -> str:
        """Owner description for network-layer flow errors (job + stage)."""
        flow = self._flow_objects.get(fid)
        if flow is None:
            return ""
        return (
            f"job {flow.job_id} shuffle map {flow.map_index} "
            f"-> reduce {flow.reduce_index}"
        )

    def _cancel_flows(self, predicate, now: float) -> None:
        """Move every matching in-flight or parked flow back to the pending
        registry (its reducer still lists the fid in ``pending_flows``), so
        it restarts from zero when its endpoints are healthy again."""
        for fid in sorted(self._flow_objects):
            flow = self._flow_objects[fid]
            if not predicate(flow):
                continue
            endpoints = (flow.src_container, flow.dst_container)
            if endpoints in self._flow_by_endpoints:
                continue  # not started yet — already pending
            if fid in self._parked:
                del self._parked[fid]
                if self.faults is not None:
                    # The parked wait ends here: dwell stops accruing even
                    # though the flow restarts from zero later.
                    self.faults.note_resumed(fid, now)
            else:
                self.network.remove_flow(fid)
                self.controller.release(fid)
            self._flow_by_endpoints[endpoints] = fid
            if self.faults is not None:
                self.faults.count("faults.flows_killed")

    # --- task re-execution --------------------------------------------------
    def _kill_running_map(
        self, now: float, job: _JobState, cid: int, map_index: int
    ) -> None:
        """A running map died with its server; re-execute it elsewhere.

        ``maps_running`` is left alone — the attempt is still logically in
        flight, so the wave barrier waits for the re-execution."""
        self._attempt[cid] = self._attempt.get(cid, 0) + 1  # stales MAP_DONE
        if self.speculation is not None:
            self.speculation.tracker.note_kill(cid)
        self.cluster.unplace(cid)
        self._charge_retry(job, cid, "map")
        self._schedule_retry(now, cid)

    def _restart_map(
        self, now: float, job: _JobState, cid: int, map_index: int
    ) -> None:
        """A completed map's output was lost; re-execute it if any reduce
        that is not yet running still needs its data (Hadoop's policy for
        completed maps on failed nodes).  Data already delivered to reducers
        is safe and is never re-sent — only the undelivered flows restart.

        When every consumer is already running or finished the re-execution
        is *deferred* (parked in ``job.lost_outputs``) rather than skipped:
        a reducer that later dies mid-run re-fetches its inputs, and this
        same method then pulls the deferred map back into execution."""
        if map_index in job.map_output_server:
            del job.map_output_server[map_index]
            job.lost_outputs.add(map_index)
            if self.speculation is not None:
                # The committed attempt's output is gone; the ledger slot
                # reopens so the re-execution's commit is not a violation.
                self.speculation.note_output_lost(job.spec.job_id, map_index)
        if map_index not in job.lost_outputs:
            return  # still running, or already being re-executed
        if not self._map_output_needed(job, map_index):
            return  # stays in lost_outputs until a consumer reappears
        job.lost_outputs.discard(map_index)
        job.maps_finished -= 1
        job.maps_running += 1
        self._attempt[cid] = self._attempt.get(cid, 0) + 1
        self._cancel_flows(
            lambda f: f.job_id == job.spec.job_id and f.map_index == map_index,
            now,
        )
        if self.cluster.container(cid).is_placed:
            self.cluster.unplace(cid)
        self._charge_retry(job, cid, "map")
        self._schedule_retry(now, cid)

    def _restart_reduce(
        self, now: float, job: _JobState, reduce_state: _ReduceState
    ) -> None:
        """A reducer died with its server: every byte it fetched dies too.

        The container id is reused (it keys all flow endpoints); once
        re-placed, the reducer re-fetches from the surviving map outputs —
        lost sources (including deferred ones) re-execute first."""
        if reduce_state.finished:
            return  # committed output survives its server (written to HDFS)
        cid = reduce_state.container_id
        self._attempt[cid] = self._attempt.get(cid, 0) + 1  # stales REDUCE_DONE
        reduce_state.scheduled = False
        # In-flight/parked inbound transfers restart from zero later.
        self._cancel_flows(lambda f: f.dst_container == cid, now)
        # Re-fetch what had already been delivered: fresh flows with the
        # original endpoints and sizes.
        for mi in sorted(reduce_state.received):
            size = float(job.matrix[mi, reduce_state.index])
            if size <= 1e-12:
                continue
            src_cid = job.map_cid_of[mi]
            flow = ShuffleFlow(
                flow_id=self._next_flow_id,
                job_id=job.spec.job_id,
                map_index=mi,
                reduce_index=reduce_state.index,
                src_container=src_cid,
                dst_container=cid,
                size=size,
                rate=size / self.config.rate_epoch,
            )
            self._next_flow_id += 1
            self._flow_objects[flow.flow_id] = flow
            self._flow_index[flow.flow_id] = (job.spec.job_id, reduce_state.index)
            self._flow_by_endpoints[(src_cid, cid)] = flow.flow_id
            reduce_state.pending_flows.add(flow.flow_id)
            source = job.map_output_server.get(mi)
            if source is None or self.cluster.is_failed(source):
                self._restart_map(now, job, src_cid, mi)
        reduce_state.received.clear()
        if self.cluster.container(cid).is_placed:
            self.cluster.unplace(cid)
        self._charge_retry(job, cid, "reduce")
        self._schedule_retry(now, cid)

    def _map_output_needed(self, job: _JobState, map_index: int) -> bool:
        """True when some reduce that has *not yet started* still expects
        this map's data.  A running (``scheduled``) reduce already holds
        every byte it needs — reduces only start once all shuffle data is
        delivered — so losing an input's source does not disturb it."""
        if job.done:
            return False
        return any(
            not rs.finished
            and not rs.scheduled
            and float(job.matrix[map_index, rs.index]) > 1e-12
            for rs in job.reduces.values()
        )

    def _charge_retry(self, job: _JobState, cid: int, kind: str) -> None:
        count = self._retries.get(cid, 0) + 1
        if count > self.config.max_task_retries:
            raise RetryBudgetExceeded(
                f"{kind} task of job {job.spec.job_id} (container {cid}) "
                f"exceeded max_task_retries={self.config.max_task_retries}"
            )
        self._retries[cid] = count
        if self.faults is not None:
            self.faults.count(f"retries.{kind}")

    # --- re-placement -------------------------------------------------------
    def _schedule_retry(self, now: float, cid: int, delay: float = 0.0) -> None:
        token = self._retry_token.get(cid, 0) + 1
        self._retry_token[cid] = token
        self._queue.push(
            Event(now + delay, EventKind.TASK_RETRY, payload=(cid, token))
        )

    def _on_task_retry(self, now: float, cid: int, token: int) -> None:
        if token != self._retry_token.get(cid):
            return  # superseded by a newer retry (e.g. after a recovery)
        container = self.cluster.container(cid)
        if container.is_placed:
            return
        task = container.task
        job = self._jobs_by_id[task.job_id]
        server = self._pick_retry_server(cid)
        if server is None:
            # No live server fits right now: exponential backoff (a server
            # recovery also re-triggers the retry immediately).
            exponent = self._backoff.get(cid, 0)
            self._backoff[cid] = exponent + 1
            delay = self.config.retry_backoff * (2.0 ** min(exponent, 20))
            if self.provenance is not None:
                self.provenance.emit(
                    "retry",
                    "retry-blocked",
                    job=task.job_id,
                    task=task_label(task.kind, task.index),
                    attempt=self._attempt.get(cid, 0),
                    backoff_exponent=exponent,
                    delay=delay,
                )
            self._schedule_retry(now, cid, delay)
            return
        self._backoff.pop(cid, None)
        self.cluster.place(cid, server)
        if self.provenance is not None:
            self.provenance.emit(
                "retry",
                "retry-placed",
                job=task.job_id,
                task=task_label(task.kind, task.index),
                attempt=self._attempt.get(cid, 0),
                chosen=server,
                retries_charged=self._retries.get(cid, 0),
            )
        if task.kind is TaskKind.MAP:
            self._relaunch_map(now, job, cid, task.index)
        else:
            self._relaunch_reduce(now, job, job.reduces[task.index])

    def _pick_retry_server(self, cid: int) -> int | None:
        """Deterministic greedy re-placement: the live fitting server with
        the most residual memory (then vcores), lowest id on ties.  Retry
        placement is deliberately scheduler-independent — it models the RM's
        emergency re-grant, not a fresh scheduling decision."""
        best: int | None = None
        best_key: tuple[float, float] | None = None
        for sid in self.cluster.candidate_servers(cid):
            if not self.cluster.fits(cid, sid):
                continue
            residual = self.cluster.residual(sid)
            key = (residual.memory, residual.vcores)
            if best_key is None or key > best_key:
                best, best_key = sid, key
        return best

    def _relaunch_map(
        self, now: float, job: _JobState, cid: int, map_index: int
    ) -> None:
        """Launch a re-placed map attempt (``maps_running`` already counts
        it, so this is :meth:`_launch_maps` minus the accounting)."""
        server = self.cluster.container(cid).server_id
        assert server is not None
        duration, nominal = self._map_timing(job, map_index, server)
        if self.speculation is not None:
            self.speculation.tracker.note_start(
                job.spec.job_id, map_index, cid, now, duration, nominal
            )
        self._queue.push(
            Event(
                now + duration,
                EventKind.MAP_DONE,
                payload=(
                    job.spec.job_id,
                    cid,
                    map_index,
                    now,
                    self._attempt.get(cid, 0),
                ),
            )
        )

    def _relaunch_reduce(
        self, now: float, job: _JobState, reduce_state: _ReduceState
    ) -> None:
        """A re-placed reducer pulls every pending inbound flow whose source
        output exists; flows from still-running (or re-executing) maps start
        on those maps' completion as usual."""
        cid = reduce_state.container_id
        server = self.cluster.container(cid).server_id
        assert server is not None
        ready = [
            fid
            for (src_cid, dst_cid), fid in sorted(self._flow_by_endpoints.items())
            if dst_cid == cid
        ]
        for fid in ready:
            flow = self._flow_objects[fid]
            source = job.map_output_server.get(flow.map_index)
            if source is None:
                continue
            if self.speculation is not None:
                self.speculation.note_flow(
                    job.spec.job_id, flow.map_index, source
                )
            del self._flow_by_endpoints[(flow.src_container, cid)]
            if source == server:
                self._deliver_local(now, job, fid, flow)
            else:
                self._launch_flow(now, flow, source, server)
        self._maybe_finish_reduce(now, job, reduce_state)

    # ------------------------------------------------------------ speculation
    # Everything below runs only when speculation is configured.  The
    # protocol: a SPECULATE sweep picks stragglers (LATE detector), a backup
    # attempt is launched on a scheduler-ranked server, whichever copy's
    # MAP_DONE pops first commits and pushes a same-instant KILL_ATTEMPT for
    # the loser (priority class 1, so it invalidates the loser before any
    # queued normal event).  map_cid_of never changes — backup containers
    # are ephemeral compute vehicles, and flows bind to the winning output
    # through map_output_server.

    def _on_speculate(self, now: float) -> None:
        sp = self.speculation
        assert sp is not None
        sp.count("spec.sweeps")
        excluded = sp.paired_cids()
        for cand in sp.tracker.candidates(now, sp.config, excluded):
            job = self._jobs_by_id[cand.job_id]
            if job.done or cand.map_index in job.map_output_server:
                continue
            allowed = sp.config.backups_allowed(job.spec.num_maps)
            if sp.live_backups.get(cand.job_id, 0) >= allowed:
                sp.count("spec.quota_denied")
                if self.provenance is not None:
                    self.provenance.emit(
                        "speculation",
                        "quota-denied",
                        job=cand.job_id,
                        task=task_label(TaskKind.MAP, cand.map_index),
                        rate=cand.rate,
                        allowed=allowed,
                        **sp.provenance_context(cand.job_id),
                    )
                continue
            self._launch_backup(now, job, cand)
        if self._jobs_remaining > 0 and (
            self.admission is None or bool(self._queue)
        ):
            # Online plane: jobs stranded in admission queues after the last
            # real event would otherwise keep the sweep re-arming forever —
            # once nothing but sweeps remains, nothing can change, so stop.
            self._queue.push(
                Event(now + sp.config.check_interval, EventKind.SPECULATE)
            )

    def _launch_backup(
        self, now: float, job: _JobState, cand: AttemptProgress
    ) -> None:
        """Duplicate a straggling attempt on a scheduler-ranked server.

        Backups are launched only when a slot fits *now* — no retry backoff
        (a straggler is by definition still making progress, so a backup
        that cannot start immediately is simply not worth queueing)."""
        sp = self.speculation
        assert sp is not None
        origin = self.cluster.container(cand.cid).server_id
        if origin is None:
            return  # straggler is mid-re-placement; nothing to duplicate
        candidates = self._backup_candidates(origin)
        if not candidates:
            sp.count("spec.no_slot")
            if self.provenance is not None:
                self.provenance.emit(
                    "speculation",
                    "no-slot",
                    job=job.spec.job_id,
                    task=task_label(TaskKind.MAP, cand.map_index),
                    origin=origin,
                    rate=cand.rate,
                    **sp.provenance_context(job.spec.job_id),
                )
            return
        map_index = cand.map_index
        flows = self._pending_output_flows(job, job.map_cid_of[map_index])
        ranked = None
        if flows:
            ctx = self._planning_context(flows)
            ranked = self.scheduler.rank_backup_servers(
                ctx, job.spec, flows, candidates
            )
        if ranked:
            server = ranked[0]
        else:
            server = self._greedy_backup_pick(candidates)
        # Too-late guard: a backup that cannot finish strictly before the
        # straggler's own expected completion can never win — launching it
        # would only burn a slot and guarantee a spec.loss.
        probe = (
            job.spec.map_duration / self.server_speeds[server]
            + self._read_penalty(job, map_index, server, account=False)
        )
        if now + probe >= cand.expected_finish:
            sp.count("spec.too_late")
            if self.provenance is not None:
                self.provenance.emit(
                    "speculation",
                    "too-late",
                    job=job.spec.job_id,
                    task=task_label(TaskKind.MAP, map_index),
                    chosen=server,
                    probe=probe,
                    expected_finish=cand.expected_finish,
                    rate=cand.rate,
                )
            return
        bcid = self._new_container(
            TaskRef(job.spec.job_id, TaskKind.MAP, map_index)
        )
        self.cluster.place(bcid, server)
        sp.pair(job.spec.job_id, cand.cid, bcid)
        duration, nominal = self._map_timing(job, map_index, server)
        sp.tracker.note_start(
            job.spec.job_id, map_index, bcid, now, duration, nominal
        )
        # maps_running is a count of *tasks*, not attempts: the wave barrier
        # must release exactly once whichever copy commits.
        self._queue.push(
            Event(
                now + duration,
                EventKind.MAP_DONE,
                payload=(
                    job.spec.job_id,
                    bcid,
                    map_index,
                    now,
                    self._attempt.get(bcid, 0),
                ),
            )
        )
        sp.count("spec.launched")
        if self.provenance is not None:
            self.provenance.emit(
                "speculation",
                "backup-launched",
                job=job.spec.job_id,
                task=task_label(TaskKind.MAP, map_index),
                attempt=self._attempt.get(bcid, 0),
                chosen=server,
                origin=origin,
                candidates=len(candidates),
                ranked=bool(ranked),
                rate=cand.rate,
                expected_finish=cand.expected_finish,
                **sp.provenance_context(job.spec.job_id),
            )

    def _backup_candidates(self, origin: int) -> list[int]:
        """Live servers with headroom, excluding the straggler's own."""
        demand = self.config.container_demand
        out = []
        for sid in self.cluster.server_ids:
            if sid == origin or self.cluster.is_failed(sid):
                continue
            if demand.fits_in(self.cluster.residual(sid)):
                out.append(sid)
        return out

    def _pending_output_flows(
        self, job: _JobState, map_cid: int
    ) -> list[ShuffleFlow]:
        """The map's not-yet-started shuffle flows (placement signal)."""
        flows = []
        for ri in sorted(job.reduces):
            fid = self._flow_by_endpoints.get(
                (map_cid, job.reduces[ri].container_id)
            )
            if fid is not None:
                flows.append(self._flow_objects[fid])
        return flows

    def _greedy_backup_pick(self, candidates: list[int]) -> int:
        """Baseline backup placement: the RM-style greedy re-grant (most
        residual memory, then vcores, lowest id) restricted to candidates."""
        best = candidates[0]
        best_key: tuple[float, float] | None = None
        for sid in candidates:
            residual = self.cluster.residual(sid)
            key = (residual.memory, residual.vcores)
            if best_key is None or key > best_key:
                best, best_key = sid, key
        return best

    def _settle_speculation(
        self, now: float, job: _JobState, winner_cid: int
    ) -> None:
        """Dissolve the winner's pair and order the loser killed."""
        sp = self.speculation
        assert sp is not None
        backup = sp.backup_of.get(winner_cid)
        if backup is not None:
            loser = backup
            sp.unpair(job.spec.job_id, winner_cid, backup)
            sp.count("spec.losses")
            verdict = "spec-loss"
        else:
            original = sp.primary_of.get(winner_cid)
            if original is None:
                return  # unpaired attempt: nothing to settle
            loser = original
            sp.unpair(job.spec.job_id, original, winner_cid)
            sp.count("spec.wins")
            verdict = "spec-win"
        if self.provenance is not None:
            task = self.cluster.container(winner_cid).task
            self.provenance.emit(
                "speculation",
                verdict,
                job=job.spec.job_id,
                task=(
                    task_label(task.kind, task.index)
                    if task is not None
                    else None
                ),
                winner=winner_cid,
                loser=loser,
            )
        self._queue.push(
            Event(
                now,
                EventKind.KILL_ATTEMPT,
                payload=(loser, self._attempt.get(loser, 0)),
            )
        )

    def _on_kill_attempt(
        self, now: float, cid: int, expected_attempt: int
    ) -> None:
        sp = self.speculation
        assert sp is not None
        if self._attempt.get(cid, 0) != expected_attempt:
            return  # already superseded (e.g. by a same-instant failure)
        self._attempt[cid] = expected_attempt + 1
        sp.note_kill(cid, expected_attempt)
        sp.tracker.note_kill(cid)
        # A kill also supersedes any in-flight retry/backoff for the cid.
        self._retry_token[cid] = self._retry_token.get(cid, 0) + 1
        self._backoff.pop(cid, None)
        if self.cluster.container(cid).is_placed:
            self.cluster.unplace(cid)
        sp.count("spec.kills")
        if self.provenance is not None:
            task = self.cluster.container(cid).task
            self.provenance.emit(
                "speculation",
                "backup-killed",
                job=task.job_id if task is not None else None,
                task=(
                    task_label(task.kind, task.index)
                    if task is not None
                    else None
                ),
                attempt=expected_attempt,
            )

    def _cancel_backup(self, now: float, job: _JobState, bcid: int) -> None:
        """The backup died with its server; the original runs on alone."""
        sp = self.speculation
        assert sp is not None
        original = sp.primary_of[bcid]
        sp.unpair(job.spec.job_id, original, bcid)
        attempt = self._attempt.get(bcid, 0)
        self._attempt[bcid] = attempt + 1
        sp.note_kill(bcid, attempt)
        sp.tracker.note_kill(bcid)
        self.cluster.unplace(bcid)
        sp.count("spec.backups_lost")

    def _promote_backup(
        self, now: float, job: _JobState, orig_cid: int
    ) -> None:
        """The original died with its server while its backup lives: the
        backup becomes the task's sole first-class attempt (no retry budget
        is charged — speculation already paid for the replacement)."""
        sp = self.speculation
        assert sp is not None
        bcid = sp.backup_of[orig_cid]
        sp.unpair(job.spec.job_id, orig_cid, bcid)
        attempt = self._attempt.get(orig_cid, 0)
        self._attempt[orig_cid] = attempt + 1
        sp.note_kill(orig_cid, attempt)
        sp.tracker.note_kill(orig_cid)
        self.cluster.unplace(orig_cid)
        sp.count("spec.promoted")

    # ------------------------------------------------------------ reduce side
    def _on_reduce_done(
        self, now: float, job_id: int, reduce_index: int, attempt: int = 0
    ) -> None:
        job = self._jobs_by_id[job_id]
        reduce_state = job.reduces[reduce_index]
        if attempt != self._attempt.get(reduce_state.container_id, 0):
            return  # completion of an attempt killed by a server failure
        reduce_state.finished = True
        server = self.cluster.container(reduce_state.container_id).server_id
        self.metrics.record_task(
            TaskRecord(
                job_id=job_id,
                kind="reduce",
                index=reduce_index,
                start=reduce_state.start_time,
                finish=now,
                server=server if server is not None else -1,
                attempt=attempt,
                compute_start=reduce_state.compute_start,
            )
        )
        self.cluster.unplace(reduce_state.container_id)
        job.reduces_finished += 1
        if job.done:
            self._jobs_remaining -= 1
            self.metrics.record_job(
                JobRecord(
                    job_id=job_id,
                    name=job.spec.name,
                    shuffle_class=job.spec.shuffle_class.value,
                    submit_time=job.submit_time,
                    start_time=job.start_time,
                    finish_time=now,
                    shuffle_volume=job.spec.shuffle_volume,
                    remote_map_traffic=job.remote_map_traffic,
                    tenant=job.spec.tenant,
                )
            )
        self._try_admit(now)


def run_simulation(
    topology: Topology,
    scheduler: Scheduler,
    jobs: list[JobSpec],
    config: SimulationConfig | None = None,
) -> MetricsCollector:
    """Convenience one-shot runner."""
    return MapReduceSimulator(topology, scheduler, jobs, config).run()
