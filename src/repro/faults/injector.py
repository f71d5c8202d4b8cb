"""Fault injection layer: timeline → simulator events + live fault state.

:class:`FaultInjector` owns the boundary between a declarative timeline
(:mod:`repro.faults.spec`) and the discrete-event engine: it validates the
timeline against the fabric, pushes one event per fault into the
:class:`~repro.simulator.events.EventQueue`, and keeps the running tally of
what is currently dead plus the ``faults.*`` / ``retries.*`` counters the
observability layer reports.

The *effects* of each event (killing tasks, rerouting flows, restoring
capacity) are applied by the engine's recovery layer — the injector only
answers "what is failed right now?" and "how often did each fault class
fire?", so it can also be driven standalone in tests.

Domain specs (:attr:`~repro.faults.spec.FaultKind.DOMAIN_FAIL` /
``DOMAIN_RECOVER``) are expanded *at schedule time* into one per-element
server/switch event each (servers first, then switches, each ascending), so
the engine's recovery layer never needs to know about domains — a rack
outage is exactly the deterministic event sequence a hand-written timeline
of its members would produce.

Link faults add a second axis of live state: :attr:`failed_links` (hard
down) and :attr:`degraded_links` (capacity factor < 1.0).  A link is *dead*
— unroutable — when it is failed or degraded to factor 0.0; the engine
masks dead links out of routing and the policy DP.  :meth:`first_dead` is
the one test of whether a path crosses a failed switch or a dead link: the
engine's install guard (:meth:`assert_path_clear`, which raises
:class:`~repro.simulator.errors.RoutingViolation`), its live-path filter and
reroute selection, and the invariant checker's path-liveness check all ask
it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..simulator.errors import RoutingViolation
from ..simulator.events import Event, EventKind, EventQueue
from .domains import FailureDomain, domains_of
from .spec import FaultKind, FaultSpec, validate_timeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Topology

__all__ = ["FaultInjector", "FAULT_EVENT_KINDS"]


#: Simulator event kinds owned by the fault subsystem.
FAULT_EVENT_KINDS = frozenset(
    {
        EventKind.SERVER_FAIL,
        EventKind.SERVER_RECOVER,
        EventKind.SWITCH_FAIL,
        EventKind.SWITCH_RECOVER,
        EventKind.TASK_SLOWDOWN,
        EventKind.LINK_FAIL,
        EventKind.LINK_RECOVER,
        EventKind.LINK_DEGRADE,
    }
)

_EVENT_KIND_OF: dict[FaultKind, EventKind] = {
    FaultKind.SERVER_FAIL: EventKind.SERVER_FAIL,
    FaultKind.SERVER_RECOVER: EventKind.SERVER_RECOVER,
    FaultKind.SWITCH_FAIL: EventKind.SWITCH_FAIL,
    FaultKind.SWITCH_RECOVER: EventKind.SWITCH_RECOVER,
    FaultKind.TASK_SLOWDOWN: EventKind.TASK_SLOWDOWN,
    FaultKind.LINK_FAIL: EventKind.LINK_FAIL,
    FaultKind.LINK_RECOVER: EventKind.LINK_RECOVER,
    FaultKind.LINK_DEGRADE: EventKind.LINK_DEGRADE,
}


def _canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class FaultInjector:
    """Validated fault timeline plus the live failed-element bookkeeping."""

    def __init__(
        self, topology: "Topology", specs: Iterable[FaultSpec]
    ) -> None:
        self.topology = topology
        self.timeline: tuple[FaultSpec, ...] = validate_timeline(topology, specs)
        self._failed_servers: set[int] = set()
        self._failed_switches: set[int] = set()
        self._failed_links: set[tuple[int, int]] = set()
        self._degraded_links: dict[tuple[int, int], float] = {}
        self._dead_links: set[tuple[int, int]] = set()
        self._domain_cache: dict[str, tuple[FailureDomain, ...]] = {}
        self._park_time: dict[int, float] = {}
        self.parked_dwell: float = 0.0
        self.counters: dict[str, int] = {}

    # ------------------------------------------------------------ scheduling
    def _domains(self, kind: str) -> tuple[FailureDomain, ...]:
        if kind not in self._domain_cache:
            self._domain_cache[kind] = domains_of(self.topology, kind)
        return self._domain_cache[kind]

    def schedule(self, queue: EventQueue) -> int:
        """Push every timeline entry into the queue; returns the count.

        Slowdown events carry ``(server, factor)`` payloads, link events
        ``(u, v)`` (degrades ``(u, v, factor)``); every other fault carries
        the bare target node id.  A timed slowdown (positive ``duration``)
        also schedules its restore — the same event kind with factor 1.0 —
        at ``time + duration``.  A domain spec expands into one event per
        member element (servers ascending, then switches ascending).  The
        returned count includes synthesised restores and expansions.
        """
        pushed = 0
        for spec in self.timeline:
            if spec.kind in (FaultKind.DOMAIN_FAIL, FaultKind.DOMAIN_RECOVER):
                domain = self._domains(spec.domain)[spec.target]
                failing = spec.kind is FaultKind.DOMAIN_FAIL
                self.count(
                    "faults.domain_fail" if failing else "faults.domain_recover"
                )
                for sid in domain.servers:
                    queue.push(
                        Event(
                            spec.time,
                            EventKind.SERVER_FAIL if failing
                            else EventKind.SERVER_RECOVER,
                            sid,
                        )
                    )
                    pushed += 1
                for wid in domain.switches:
                    queue.push(
                        Event(
                            spec.time,
                            EventKind.SWITCH_FAIL if failing
                            else EventKind.SWITCH_RECOVER,
                            wid,
                        )
                    )
                    pushed += 1
                continue
            payload: object = spec.target
            if spec.kind is FaultKind.TASK_SLOWDOWN:
                payload = (spec.target, spec.factor)
            elif spec.kind is FaultKind.LINK_DEGRADE:
                payload = (spec.target, spec.target2, spec.factor)
            elif spec.kind in (FaultKind.LINK_FAIL, FaultKind.LINK_RECOVER):
                payload = (spec.target, spec.target2)
            queue.push(Event(spec.time, _EVENT_KIND_OF[spec.kind], payload))
            pushed += 1
            if spec.kind is FaultKind.TASK_SLOWDOWN and spec.duration > 0:
                queue.push(
                    Event(
                        spec.time + spec.duration,
                        EventKind.TASK_SLOWDOWN,
                        (spec.target, 1.0),
                    )
                )
                pushed += 1
        return pushed

    # ------------------------------------------------------------ live state
    @property
    def failed_servers(self) -> frozenset[int]:
        return frozenset(self._failed_servers)

    @property
    def failed_switches(self) -> frozenset[int]:
        return frozenset(self._failed_switches)

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._failed_links)

    @property
    def degraded_links(self) -> dict[tuple[int, int], float]:
        """Canonical link key → current capacity factor (< 1.0 entries only)."""
        return dict(self._degraded_links)

    @property
    def dead_links(self) -> frozenset[tuple[int, int]]:
        """Links that carry no traffic: failed or degraded to factor 0.0."""
        return frozenset(self._dead_links)

    def any_dead(self) -> bool:
        """Whether any switch is failed or any link dead right now."""
        return bool(self._failed_switches or self._dead_links)

    def is_dead(self, element: int | tuple[int, int]) -> bool:
        """Whether a switch id or a ``(u, v)`` link is dead right now."""
        if isinstance(element, tuple):
            return _canonical(*element) in self._dead_links
        return element in self._failed_switches

    def first_dead(self, path: Sequence[int]) -> str | None:
        """The first dead element ``path`` crosses, or None when it is live.

        Failed switches are looked for before dead links, each in path
        order; the answer names the element (``"failed switch 7"``,
        ``"dead link (3, 7)"``) for error and violation messages.
        """
        failed = self._failed_switches
        if failed:
            for node in path:
                if node in failed:
                    return f"failed switch {node}"
        dead = self._dead_links
        if dead:
            for a, b in zip(path, path[1:]):
                if ((a, b) if a <= b else (b, a)) in dead:
                    return f"dead link ({a}, {b})"
        return None

    def _sync_dead(self, key: tuple[int, int]) -> None:
        if key in self._failed_links or self._degraded_links.get(key) == 0.0:
            self._dead_links.add(key)
        else:
            self._dead_links.discard(key)

    def link_capacity_factor(self, u: int, v: int) -> float:
        """Effective capacity multiplier for the link (0.0 when failed)."""
        key = _canonical(u, v)
        if key in self._failed_links:
            return 0.0
        return self._degraded_links.get(key, 1.0)

    def mark_server_failed(self, server_id: int) -> bool:
        """Record a server failure; False when it was already down."""
        if server_id in self._failed_servers:
            return False
        self._failed_servers.add(server_id)
        self.count("faults.server_fail")
        return True

    def mark_server_recovered(self, server_id: int) -> bool:
        if server_id not in self._failed_servers:
            return False
        self._failed_servers.discard(server_id)
        self.count("faults.server_recover")
        return True

    def mark_switch_failed(self, switch_id: int) -> bool:
        if switch_id in self._failed_switches:
            return False
        self._failed_switches.add(switch_id)
        self.count("faults.switch_fail")
        return True

    def mark_switch_recovered(self, switch_id: int) -> bool:
        if switch_id not in self._failed_switches:
            return False
        self._failed_switches.discard(switch_id)
        self.count("faults.switch_recover")
        return True

    def mark_link_failed(self, u: int, v: int) -> bool:
        key = _canonical(u, v)
        if key in self._failed_links:
            return False
        self._failed_links.add(key)
        self._sync_dead(key)
        self.count("faults.link_fail")
        return True

    def mark_link_recovered(self, u: int, v: int) -> bool:
        key = _canonical(u, v)
        if key not in self._failed_links:
            return False
        self._failed_links.discard(key)
        self._sync_dead(key)
        self.count("faults.link_recover")
        return True

    def mark_link_degraded(self, u: int, v: int, factor: float) -> bool:
        """Set the link's capacity factor; False when already at ``factor``.

        Factor 1.0 restores nominal capacity (counted as a restore); any
        value below 1.0 is a degradation episode.
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"link degrade factor must be in [0, 1], got {factor}")
        key = _canonical(u, v)
        current = self._degraded_links.get(key, 1.0)
        if current == factor:
            return False
        if factor == 1.0:
            self._degraded_links.pop(key, None)
            self.count("faults.link_restore")
        else:
            self._degraded_links[key] = factor
            self.count("faults.link_degrade")
        self._sync_dead(key)
        return True

    def assert_path_clear(self, path: Sequence[int]) -> None:
        """Hard guard: no path may traverse a currently-dead element.

        Called by the engine on every path install/reroute while faults are
        live; a violation is a recovery-layer bug, so it raises
        :class:`~repro.simulator.errors.RoutingViolation` rather than
        degrades.
        """
        dead = self.first_dead(path)
        if dead is not None:
            raise RoutingViolation(
                f"routing violation: path {tuple(path)} traverses {dead}"
            )

    # -------------------------------------------------------- parked dwell
    def note_parked(self, flow_id: int, now: float) -> None:
        """A flow was parked (no live route) at sim-time ``now``."""
        self._park_time.setdefault(flow_id, now)

    def note_resumed(self, flow_id: int, now: float) -> None:
        """A parked flow left the park (resumed or killed) at ``now``.

        Accumulates the flow's sim-time dwell into ``parked_dwell`` /
        the ``faults.parked_dwell`` summary entry.
        """
        start = self._park_time.pop(flow_id, None)
        if start is not None:
            self.parked_dwell += now - start

    def gauges(self) -> dict[str, float]:
        """Instantaneous fault-state gauges for the telemetry plane.

        Pure reads of the live failed-element sets — sampling them cannot
        perturb a run (the non-perturbation contract of
        :mod:`repro.obs.timeline`).
        """
        return {
            "failed_servers": float(len(self._failed_servers)),
            "failed_switches": float(len(self._failed_switches)),
            "failed_links": float(len(self._failed_links)),
            "degraded_links": float(len(self._degraded_links)),
            "parked_dwell": self.parked_dwell,
        }

    def provenance_context(self) -> dict[str, int]:
        """Failure-state snapshot for reroute/park decision records.

        Pure read of the live failed-element sets; attached by the engine
        so each repair decision records the fault pressure it was taken
        under."""
        return {
            "failed_servers": len(self._failed_servers),
            "failed_switches": len(self._failed_switches),
            "failed_links": len(self._failed_links),
            "degraded_links": len(self._degraded_links),
        }

    # -------------------------------------------------------------- counters
    def count(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def summary(self) -> dict[str, int]:
        """Counter snapshot (sorted keys, for stable reports).

        Includes the cumulative ``faults.parked_dwell`` sim-time (a float)
        whenever any flow was ever parked.
        """
        out: dict[str, int] = dict(self.counters)
        if "faults.flows_parked" in out:
            out["faults.parked_dwell"] = round(self.parked_dwell, 9)  # type: ignore[assignment]
        return dict(sorted(out.items()))
