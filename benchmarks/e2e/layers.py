"""Per-layer self time of one traced run, measured from outside the program.

:func:`traced` wraps the public callables of each engine layer for the
duration of one ``MapReduceSimulator.run()``.  Every wrapper pushes a span
onto one stack (its parent is the span below it), so a layer's *self* time
is its spans' time minus the time of the spans they called.  The ``run()``
span is the root; the part of it no other span covers is the engine's own
time, so the self times of all layers sum to the root's wall time.

Wrappers only record while the root span is open; calls made while the
simulator is being built pass straight through.  Spans stay in memory
(compact arrays) and are written once, at the end, as a Chrome trace.
The originals are put back when the ``with`` block exits, even on error.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.core.hit as hit_module
from repro.core.hit import HitOptimizer
from repro.core.policy import PolicyController
from repro.core.preference import PairCostCache, PreferenceMatrix
from repro.core.taa import TAAInstance
from repro.faults.injector import FaultInjector
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.timeline import TimelineRecorder
from repro.obs.tracer import Tracer
from repro.simulator.engine import MapReduceSimulator
from repro.simulator.network import FlowNetwork
from repro.topology.base import Topology
from repro.workload.admission import AdmissionController

__all__ = ["LAYERS", "SpanRecorder", "layer_metrics", "traced"]

#: Layer -> (owner, attribute names) of the public callables it is timed by.
#: The scheduler layer is bound to the run's scheduler class in :func:`traced`.
LAYERS: dict[str, list[tuple[Any, tuple[str, ...]]]] = {
    "engine": [(MapReduceSimulator, ("run",))],
    "network": [
        (
            FlowNetwork,
            (
                "add_flow",
                "remove_flow",
                "reroute_flow",
                "recompute_rates",
                "ensure_rates",
                "advance",
                "time_to_next_completion",
                "completed_flows",
            ),
        )
    ],
    "topology": [(Topology, ("shortest_path", "hop_distances_from"))],
    "policy": [
        (
            PolicyController,
            ("route_flow", "optimal_path", "assign", "release", "path_cost"),
        ),
        (TAAInstance, ("install_all_policies", "install_static_policies")),
    ],
    # Module-level functions are wrapped where core/hit.py looks them up.
    "preference": [
        (hit_module, ("build_preference_matrix",)),
        (PreferenceMatrix, ("container_ranking",)),
        (PairCostCache, ("column",)),
    ],
    "matching": [(hit_module, ("stable_match",))],
    "hit": [
        (HitOptimizer, ("optimize_initial_wave", "optimize_subsequent_wave"))
    ],
    "scheduler": [],
    "admission": [
        (AdmissionController, ("offer", "peek", "commit", "defer"))
    ],
    "faults": [
        (
            FaultInjector,
            tuple(n for n in vars(FaultInjector) if n.startswith("mark_")),
        )
    ],
    "obs.timeline": [(TimelineRecorder, ("observe", "finish"))],
    "obs.provenance": [(ProvenanceRecorder, ("emit", "close"))],
    "obs.tracer": [(Tracer, ("count", "event", "timeit", "span"))],
}

SCHEDULER_METHODS = ("place_initial_wave", "place_map_wave", "route_flows")

#: Pseudo-layer for the recorder's own probes (policy snapshots), so they
#: are charged to no engine layer.
BENCH = "bench"

#: Spans shorter than this count in the metrics but stay out of the trace
#: file: on ft16-hit-batch they are two thirds of all spans and about 4% of
#: the run, and leaving them out keeps the file to tens of MB.  Their time
#: shows as the enclosing span's.
EXPORT_MIN_US = 20.0


class SpanRecorder:
    """Span stack plus the spans of one traced run, in compact arrays."""

    def __init__(self) -> None:
        #: Span name per name id, and the layer each name belongs to.
        self.names: list[str] = []
        self.layer_of: list[str] = []
        #: Per name id: completed calls and summed self time.
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("q")
        #: Open spans: [span index, start, time covered by children].
        self.stack: list[list[Any]] = []
        #: Counters taken from call arguments and results.
        self.counts: dict[str, float] = {}

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def push(self, nid: int) -> None:
        stack = self.stack
        index = len(self.start)
        self.name_id.append(nid)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        stack.append([index, now, 0.0])

    def pop(self) -> None:
        now = time.perf_counter()
        index, started, children = self.stack.pop()
        self.end[index] = now
        duration = now - started
        nid = self.name_id[index]
        self.calls[nid] += 1
        self.self_s[nid] += duration - children
        if self.stack:
            self.stack[-1][2] += duration

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def parent_name(self) -> str | None:
        """Name of the span that encloses the innermost open span."""
        if len(self.stack) < 2:
            return None
        return self.names[self.name_id[self.stack[-2][0]]]

    # ------------------------------------------------------------ summaries
    def root_wall_s(self) -> float:
        return self.end[0] - self.start[0] if len(self.start) else 0.0

    def layer_self_s(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for nid, layer in enumerate(self.layer_of):
            out[layer] = out.get(layer, 0.0) + self.self_s[nid]
        return out

    def layer_calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for nid, layer in enumerate(self.layer_of):
            out[layer] = out.get(layer, 0) + self.calls[nid]
        return out

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per wrapped callable: calls and self time (for the report)."""
        return {
            name: {"calls": self.calls[nid], "self_s": self.self_s[nid]}
            for nid, name in enumerate(self.names)
            if self.calls[nid]
        }

    def trace_events(self) -> Iterator[dict[str, Any]]:
        """Spans as Chrome trace-event ``X`` slices on one thread, root
        first; spans shorter than :data:`EXPORT_MIN_US` are left out."""
        yield {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": "MapReduceSimulator.run"},
        }
        origin = self.start[0] if len(self.start) else 0.0
        for i in range(len(self.start)):
            dur_us = (self.end[i] - self.start[i]) * 1e6
            if i and dur_us < EXPORT_MIN_US:
                continue
            nid = self.name_id[i]
            yield {
                "name": self.names[nid],
                "cat": self.layer_of[nid],
                "ph": "X",
                "ts": round((self.start[i] - origin) * 1e6, 3),
                "dur": round(dur_us, 3),
                "pid": 1,
                "tid": 1,
            }

    def write_chrome_trace(self, path: str) -> None:
        """Stream :meth:`trace_events` to ``path`` as one JSON object."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit":"ms","traceEvents":[')
            for k, event in enumerate(self.trace_events()):
                fh.write(("," if k else "") + json.dumps(event, separators=(",", ":")))
            fh.write("]}\n")


class _TimedContext:
    """Times ``__enter__``/``__exit__`` of a tracer context manager, not
    the body it encloses (the body belongs to whichever layer runs it)."""

    def __init__(self, inner: Any, recorder: SpanRecorder, nid: int) -> None:
        self._inner = inner
        self._recorder = recorder
        self._nid = nid

    def __enter__(self) -> Any:
        self._recorder.push(self._nid)
        try:
            return self._inner.__enter__()
        finally:
            self._recorder.pop()

    def __exit__(self, *exc: Any) -> Any:
        self._recorder.push(self._nid)
        try:
            return self._inner.__exit__(*exc)
        finally:
            self._recorder.pop()


def _resolve(owner: Any, attr: str) -> tuple[Callable[..., Any], bool]:
    """The callable ``owner.attr`` resolves to, and whether ``owner``
    defines it itself (False: inherited from a base class)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr], klass is owner
        raise AttributeError(f"{owner.__name__} has no {attr}")
    return getattr(owner, attr), True


def _after_hook(recorder: SpanRecorder, name: str) -> Callable[..., None] | None:
    """Counter taken from a call's result, inside its span."""
    if name == "stable_match":

        def after(result: Any) -> None:
            recorder.count("matching.proposals", result.proposals)
            recorder.count("matching.evictions", result.evictions)

        return after
    if name in ("optimize_initial_wave", "optimize_subsequent_wave"):

        def after(result: Any) -> None:
            recorder.count("hit.sweeps", len(result.matchings))

        return after
    if name == "container_ranking":

        def after(result: Any) -> None:
            # A ranking borrowed from the previous sweep's matrix is one
            # returned ranking, not two.
            if recorder.parent_name() != "PreferenceMatrix.container_ranking":
                recorder.count("preference.ranking_entries", len(result))

        return after
    return None


def _wrap(
    recorder: SpanRecorder,
    nid: int,
    fn: Callable[..., Any],
    root: bool,
    after: Callable[..., None] | None,
    context: bool,
) -> Callable[..., Any]:
    stack = recorder.stack
    push, pop = recorder.push, recorder.pop

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not stack and not root:
            return fn(*args, **kwargs)
        push(nid)
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
        finally:
            pop()
        if context:
            return _TimedContext(result, recorder, nid)
        return result

    return wrapper


def _snapshot_wrap(
    recorder: SpanRecorder, nid: int, probe: int, fn: Callable[..., Any]
) -> Callable[..., Any]:
    """``install_all_policies`` wrapper that also counts how many installed
    paths the call changed (probe time goes to the bench pseudo-layer)."""
    stack = recorder.stack

    def paths(taa: TAAInstance) -> dict[int, tuple[int, ...]]:
        return {
            fid: tuple(policy.path)
            for fid, policy in taa.controller.policies().items()
        }

    @functools.wraps(fn)
    def wrapper(taa: TAAInstance, *args: Any, **kwargs: Any) -> Any:
        if not stack:
            return fn(taa, *args, **kwargs)
        recorder.push(probe)
        before = paths(taa)
        recorder.pop()
        recorder.push(nid)
        try:
            result = fn(taa, *args, **kwargs)
        finally:
            recorder.pop()
        recorder.push(probe)
        after = paths(taa)
        recorder.count("policy.reinstall_had", len(before))
        recorder.count(
            "policy.reinstall_changed",
            sum(1 for fid, path in before.items() if after.get(fid) != path),
        )
        recorder.pop()
        return result

    return wrapper


@contextmanager
def traced(sim: MapReduceSimulator) -> Iterator[SpanRecorder]:
    """Wrap every layer's public callables while the block runs.

    Call ``sim.run()`` inside the block; the recorder then holds the run's
    spans.  Every wrapped attribute is restored on exit.
    """
    recorder = SpanRecorder()
    probe = recorder.register("policy-snapshot", BENCH)
    targets = dict(LAYERS)
    targets["scheduler"] = [(type(sim.scheduler), SCHEDULER_METHODS)]
    patches: list[tuple[Any, str, Any, bool]] = []
    try:
        for layer, owners in targets.items():
            for owner, attrs in owners:
                label = owner.__name__.rsplit(".", 1)[-1]
                for attr in attrs:
                    fn, own = _resolve(owner, attr)
                    nid = recorder.register(f"{label}.{attr}", layer)
                    if attr == "install_all_policies":
                        wrapper = _snapshot_wrap(recorder, nid, probe, fn)
                    else:
                        wrapper = _wrap(
                            recorder,
                            nid,
                            fn,
                            root=layer == "engine",
                            after=_after_hook(recorder, attr),
                            context=owner is Tracer
                            and attr in ("timeit", "span"),
                        )
                    patches.append(
                        (owner, attr, vars(owner)[attr] if own else None, own)
                    )
                    setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original, own in reversed(patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: SpanRecorder, sim: MapReduceSimulator
) -> dict[str, float]:
    """The per-layer metrics of one traced run, by name."""
    self_s = recorder.layer_self_s()
    calls = recorder.layer_calls()
    by_name = recorder.by_name()
    counts = recorder.counts

    def calls_of(name: str) -> int:
        return int(by_name.get(name, {}).get("calls", 0))

    events = sim.events_processed
    admission = sim.admission.counters() if sim.admission is not None else {}
    faults = sim.faults.summary() if sim.faults is not None else {}
    ranking_entries = counts.get("preference.ranking_entries", 0)
    return {
        "engine.events": events,
        "engine.self_s": self_s["engine"],
        "engine.self_us_per_event": _ratio(self_s["engine"] * 1e6, events),
        "network.calls": calls["network"],
        "network.self_s": self_s["network"],
        "network.recompute_calls": calls_of("FlowNetwork.recompute_rates"),
        "network.recompute_s": by_name.get(
            "FlowNetwork.recompute_rates", {}
        ).get("self_s", 0.0),
        "topology.calls": calls["topology"],
        "topology.self_s": self_s["topology"],
        "policy.route_calls": calls_of("PolicyController.route_flow"),
        "policy.install_all_calls": calls_of("TAAInstance.install_all_policies"),
        "policy.self_s": self_s["policy"],
        "policy.reinstall_changed_frac": _ratio(
            counts.get("policy.reinstall_changed", 0),
            counts.get("policy.reinstall_had", 0),
        ),
        "preference.build_calls": calls_of("hit.build_preference_matrix"),
        "preference.self_s": self_s["preference"],
        "preference.ranking_entries": ranking_entries,
        "matching.calls": calls["matching"],
        "matching.self_s": self_s["matching"],
        "matching.proposals": counts.get("matching.proposals", 0),
        "matching.evictions": counts.get("matching.evictions", 0),
        "matching.proposal_frac": _ratio(
            counts.get("matching.proposals", 0), ranking_entries
        ),
        "hit.waves": calls["hit"],
        "hit.sweeps": counts.get("hit.sweeps", 0),
        "hit.self_s": self_s["hit"],
        "scheduler.calls": calls["scheduler"],
        "scheduler.self_s": self_s["scheduler"],
        "admission.calls": calls["admission"],
        "admission.self_s": self_s["admission"],
        "admission.reject_frac": _ratio(
            admission.get("admission.rejected", 0),
            admission.get("admission.submitted", 0),
        ),
        "faults.self_s": self_s["faults"],
        "faults.switch_fail": faults.get("faults.switch_fail", 0),
        "faults.link_fail": faults.get("faults.link_fail", 0),
        "faults.flows_rerouted": faults.get("faults.flows_rerouted", 0),
        "obs.timeline.self_s": self_s["obs.timeline"],
        "obs.provenance.self_s": self_s["obs.provenance"],
        "obs.provenance.records": calls_of("ProvenanceRecorder.emit"),
        "obs.tracer.self_s": self_s["obs.tracer"],
        "bench.self_s": self_s[BENCH],
    }
