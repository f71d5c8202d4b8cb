"""Declarative fault timelines.

A fault timeline is an ordered tuple of :class:`FaultSpec` records — "at
time *t*, element *x* fails / recovers / slows down".  Timelines come from
three sources, all deterministic:

* hand-written specs (tests, the CI smoke run, scripted scenarios);
* JSON-lines fault files (:func:`load_fault_file` / :func:`save_fault_file`),
  the CLI's ``--faults FILE``;
* seeded exponential MTBF/MTTR sampling (:func:`generate_timeline`), the
  CLI's ``--mtbf``/``--mttr`` — the classic memoryless machine-availability
  model used throughout the MapReduce-under-failure literature.

The same timeline can be replayed against every scheduler, which is what
makes degradation comparisons (``repro.experiments.faults``) apples-to-
apples: each baseline sees byte-identical failures.

Beyond whole-server/whole-switch faults, the taxonomy covers:

* **link faults** (``link-fail``/``link-recover``/``link-degrade``) — a
  single physical link dies or runs at a fraction of nominal bandwidth
  (fail-slow NICs, oversubscribed uplinks), addressed by its two endpoint
  node ids (``target``/``target2``);
* **correlated failure domains** (``domain-fail``/``domain-recover``) — a
  whole rack/pod/power domain (:mod:`repro.faults.domains`) fails at once;
  the injector expands one domain spec deterministically into per-element
  server/switch events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .domains import DOMAIN_KINDS, domains_of

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..topology.base import Topology

__all__ = [
    "FaultKind",
    "FaultSpec",
    "generate_timeline",
    "load_fault_file",
    "save_fault_file",
    "validate_timeline",
]


class FaultKind(Enum):
    """The fault taxonomy (see ``docs/fault_model.md``)."""

    SERVER_FAIL = "server-fail"
    SERVER_RECOVER = "server-recover"
    SWITCH_FAIL = "switch-fail"
    SWITCH_RECOVER = "switch-recover"
    #: Straggler injection: the target server's compute speed is divided by
    #: ``factor`` for tasks launched after the event (factor 1.0 restores).
    TASK_SLOWDOWN = "task-slowdown"
    #: The physical link ``target``—``target2`` dies outright (carries no
    #: traffic until the matching ``link-recover``).
    LINK_FAIL = "link-fail"
    LINK_RECOVER = "link-recover"
    #: Fail-slow link: capacity scales to ``factor`` × nominal (0.0 = dead,
    #: 1.0 restores nominal bandwidth).
    LINK_DEGRADE = "link-degrade"
    #: Correlated outage of failure domain ``domain``/``target`` (a rack,
    #: pod or power domain index from :func:`repro.faults.domains.domains_of`).
    DOMAIN_FAIL = "domain-fail"
    DOMAIN_RECOVER = "domain-recover"


#: Kinds whose target must be a server node.
_SERVER_KINDS = frozenset(
    {FaultKind.SERVER_FAIL, FaultKind.SERVER_RECOVER, FaultKind.TASK_SLOWDOWN}
)
#: Kinds whose target must be a switch node.
_SWITCH_KINDS = frozenset({FaultKind.SWITCH_FAIL, FaultKind.SWITCH_RECOVER})
#: Kinds whose (target, target2) must name a physical link.
_LINK_KINDS = frozenset(
    {FaultKind.LINK_FAIL, FaultKind.LINK_RECOVER, FaultKind.LINK_DEGRADE}
)
#: Kinds whose (domain, target) must name a failure domain.
_DOMAIN_FAULT_KINDS = frozenset({FaultKind.DOMAIN_FAIL, FaultKind.DOMAIN_RECOVER})


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *target* experiences *kind* at *time*.

    ``factor`` matters for :attr:`FaultKind.TASK_SLOWDOWN` (a factor of 2.0
    halves the server's compute speed; 1.0 restores nominal speed) and for
    :attr:`FaultKind.LINK_DEGRADE` (the link runs at ``factor`` × nominal
    capacity, so 0.0 kills it and 1.0 restores it).

    ``duration`` (slowdown-only) makes the degradation *timed*: a
    positive value schedules the matching restore (factor 1.0) at
    ``time + duration`` automatically, so transient stragglers — the common
    case in production traces — need one spec instead of a hand-paired
    slowdown/restore.  Zero means the slowdown holds until another spec
    changes the server's speed.

    ``target2`` is the far endpoint for link kinds (unused otherwise), and
    ``domain`` names the failure-domain kind (``rack``/``pod``/``power``)
    for domain kinds, in which case ``target`` is the domain *index*.
    """

    time: float
    kind: FaultKind
    target: int
    factor: float = 1.0
    duration: float = 0.0
    target2: int = -1
    domain: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.target < 0:
            raise ValueError(f"fault target must be a node id, got {self.target}")
        if self.kind is FaultKind.LINK_DEGRADE:
            if not 0.0 <= self.factor <= 1.0:
                raise ValueError(
                    f"link degrade factor must be in [0, 1], got {self.factor}"
                )
        elif self.factor <= 0:
            raise ValueError(f"slowdown factor must be positive, got {self.factor}")
        if self.duration < 0:
            raise ValueError(
                f"slowdown duration must be non-negative, got {self.duration}"
            )
        if self.duration > 0 and self.kind is not FaultKind.TASK_SLOWDOWN:
            raise ValueError(
                f"duration only applies to task-slowdown specs, "
                f"got {self.kind.value}"
            )
        if self.kind in _LINK_KINDS:
            if self.target2 < 0:
                raise ValueError(
                    f"{self.kind.value} needs target2 (the far link endpoint)"
                )
        elif self.target2 != -1:
            raise ValueError(
                f"target2 only applies to link specs, got {self.kind.value}"
            )
        if self.kind in _DOMAIN_FAULT_KINDS:
            if self.domain not in DOMAIN_KINDS:
                raise ValueError(
                    f"{self.kind.value} needs domain in {DOMAIN_KINDS}, "
                    f"got {self.domain!r}"
                )
        elif self.domain:
            raise ValueError(
                f"domain only applies to domain specs, got {self.kind.value}"
            )

    # ------------------------------------------------------------- serialise
    def as_dict(self) -> dict[str, object]:
        record: dict[str, object] = {
            "time": self.time,
            "kind": self.kind.value,
            "target": self.target,
        }
        if self.kind is FaultKind.TASK_SLOWDOWN:
            record["factor"] = self.factor
            if self.duration > 0:
                record["duration"] = self.duration
        if self.kind in _LINK_KINDS:
            record["target2"] = self.target2
            if self.kind is FaultKind.LINK_DEGRADE:
                record["factor"] = self.factor
        if self.kind in _DOMAIN_FAULT_KINDS:
            record["domain"] = self.domain
        return record

    @classmethod
    def from_dict(cls, record: dict[str, object]) -> "FaultSpec":
        try:
            kind = FaultKind(str(record["kind"]))
            return cls(
                time=float(record["time"]),  # type: ignore[arg-type]
                kind=kind,
                target=int(record["target"]),  # type: ignore[arg-type]
                factor=float(record.get("factor", 1.0)),  # type: ignore[arg-type]
                duration=float(record.get("duration", 0.0)),  # type: ignore[arg-type]
                target2=int(record.get("target2", -1)),  # type: ignore[arg-type]
                domain=str(record.get("domain", "")),
            )
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed fault record {record!r}: {exc}") from exc


def validate_timeline(
    topology: "Topology", specs: Iterable[FaultSpec]
) -> tuple[FaultSpec, ...]:
    """Check every spec against the fabric and return the sorted timeline.

    Targets must exist and be of the right node class (server kinds target
    servers, switch kinds switches, link kinds physical links, domain kinds
    valid domain indices).  Sorting is by (time, original order) so
    same-instant faults keep their authored order; the event queue's kind
    priority then decides recovery-vs-failure ordering.
    """
    domain_counts: dict[str, int] = {}
    out = []
    for spec in specs:
        if spec.kind in _SERVER_KINDS and not topology.is_server(spec.target):
            raise ValueError(
                f"{spec.kind.value} targets node {spec.target}, "
                f"which is not a server"
            )
        if spec.kind in _SWITCH_KINDS and not topology.is_switch(spec.target):
            raise ValueError(
                f"{spec.kind.value} targets node {spec.target}, "
                f"which is not a switch"
            )
        if spec.kind in _LINK_KINDS and not topology.has_link(
            spec.target, spec.target2
        ):
            raise ValueError(
                f"{spec.kind.value} targets ({spec.target}, {spec.target2}), "
                f"which is not a physical link"
            )
        if spec.kind in _DOMAIN_FAULT_KINDS:
            if spec.domain not in domain_counts:
                domain_counts[spec.domain] = len(domains_of(topology, spec.domain))
            if spec.target >= domain_counts[spec.domain]:
                raise ValueError(
                    f"{spec.kind.value} targets {spec.domain} domain "
                    f"{spec.target}, but the fabric only has "
                    f"{domain_counts[spec.domain]} {spec.domain} domains"
                )
        out.append(spec)
    out.sort(key=lambda s: s.time)
    return tuple(out)


# --------------------------------------------------------------- fault files
def save_fault_file(path: str, specs: Sequence[FaultSpec]) -> None:
    """Write a timeline as JSON lines (one fault per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for spec in specs:
            handle.write(json.dumps(spec.as_dict(), sort_keys=True) + "\n")


def load_fault_file(path: str) -> tuple[FaultSpec, ...]:
    """Read a JSON-lines fault file written by :func:`save_fault_file`."""
    specs: list[FaultSpec] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            specs.append(FaultSpec.from_dict(record))
    specs.sort(key=lambda s: s.time)
    return tuple(specs)


# ----------------------------------------------------- partition safety pass
def _canonical(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass
class _Outage:
    """One fail→recover episode of a fabric element (or element set)."""

    start: float
    end: float
    servers: frozenset[int]
    switches: frozenset[int]
    links: frozenset[tuple[int, int]]
    droppable: bool
    specs: tuple[FaultSpec, ...]


def _reachable(
    topology: "Topology",
    adjacency: dict[int, tuple[int, ...]],
    start: int,
    down_servers: dict[int, int],
    down_switches: dict[int, int],
    down_links: dict[tuple[int, int], int],
) -> set[int]:
    """Every node reachable from ``start`` over up elements; live servers
    relay like switches."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adjacency[u]:
            if v in seen:
                continue
            if down_switches.get(v, 0) > 0:
                continue
            if down_links.get(_canonical(u, v), 0) > 0:
                continue
            if topology.is_server(v) and down_servers.get(v, 0) > 0:
                continue
            seen.add(v)
            stack.append(v)
    return seen


def _live_servers_connected(
    topology: "Topology",
    adjacency: dict[int, tuple[int, ...]],
    down_servers: dict[int, int],
    down_switches: dict[int, int],
    down_links: dict[tuple[int, int], int],
) -> bool:
    """True when every currently-live server can reach every other one."""
    live = [s for s in topology.server_ids if down_servers.get(s, 0) == 0]
    if len(live) <= 1:
        return True
    seen = _reachable(
        topology, adjacency, live[0], down_servers, down_switches, down_links
    )
    return all(s in seen for s in live)


def _components(
    topology: "Topology",
    adjacency: dict[int, tuple[int, ...]],
    servers: list[int],
    down_servers: dict[int, int],
    down_switches: dict[int, int],
    down_links: dict[tuple[int, int], int],
) -> int:
    """How many connected components ``servers`` fall into."""
    count = 0
    seen: set[int] = set()
    for sid in servers:
        if sid not in seen:
            count += 1
            seen |= _reachable(
                topology, adjacency, sid, down_servers, down_switches, down_links
            )
    return count


def _prune_partitioning_outages(
    topology: "Topology", outages: list[_Outage], allow_partition: bool
) -> list[_Outage]:
    """Drop droppable outages so that, at every instant of the timeline,
    they separate no live servers that the open non-droppable outages alone
    would leave connected.

    Non-droppable outages are plain server crashes (and element-less link
    degradations).  The BFS walks through live servers, so on a fabric whose
    servers relay traffic (BCube) crashed servers can cut live ones off, and
    no drop heals that; the guard then judges each state against the
    connectivity those crashes alone allow: it passes when the live servers
    fall into as many components as under the crashes alone.  With no
    non-droppable outage open, or on a fabric where servers are leaves, this
    is plain connectivity of the live servers.

    Boundaries are replayed in time order (recoveries before failures at
    ties, matching the event queue's kind priority; outage order breaks
    exact ties) and the state — the fabric minus all currently-down
    elements — is checked after every boundary that can break it: every
    onset, and every recovery that revives a server.  Checking those
    recoveries matters: a server (or whole domain) coming back while some
    other outage still holds its last uplink down materialises a partition
    at the recovery instant, not at either onset.  The other boundaries
    cannot break a state that passed, so they are not checked: a recovery of
    switches or links only adds paths, and both boundaries of an outage with
    no elements (a link degradation to a factor above 0) change nothing.

    When a state fails, the guard drops — whole, as if its elements had
    stayed up — a droppable outage open at that instant: preferably the
    latest-starting one whose removal alone makes the state pass, else the
    latest-starting one.  The replay then resumes at the dropped outage's
    onset: every boundary before it saw the same down-state and already
    passed, so the down-counters are rewound to there without BFS and only
    the boundaries after it are checked again.  The loop terminates: every
    drop is permanent.
    """
    if allow_partition:
        return outages
    adjacency = {
        node: topology.neighbors(node)
        for node in (*topology.server_ids, *topology.switch_ids)
    }
    # (time, 0 = recovery / 1 = onset, outage index), sorted once.
    boundaries = sorted(
        boundary
        for idx, outage in enumerate(outages)
        for boundary in ((outage.end, 0, idx), (outage.start, 1, idx))
    )
    onset_at = {b[2]: pos for pos, b in enumerate(boundaries) if b[1]}
    dropped: set[int] = set()
    down_servers: dict[int, int] = {}
    down_switches: dict[int, int] = {}
    down_links: dict[tuple[int, int], int] = {}
    # Servers held down by open non-droppable outages (no zero entries).
    crashed: dict[int, int] = {}
    open_now: set[int] = set()
    # Kept boundaries applied so far; the untouched fabric before the
    # first one was never checked, so nothing may be skipped there.
    depth = 0

    def apply(outage: _Outage, delta: int) -> None:
        for sid in outage.servers:
            down_servers[sid] = down_servers.get(sid, 0) + delta
            if not outage.droppable:
                count = crashed.get(sid, 0) + delta
                if count:
                    crashed[sid] = count
                else:
                    del crashed[sid]
        for wid in outage.switches:
            down_switches[wid] = down_switches.get(wid, 0) + delta
        for key in outage.links:
            down_links[key] = down_links.get(key, 0) + delta

    def step(pos: int, sign: int) -> None:
        """Apply boundary ``pos`` (``sign`` +1) or undo it (-1)."""
        nonlocal depth
        _, is_start, idx = boundaries[pos]
        delta = sign if is_start else -sign
        apply(outages[idx], delta)
        if delta > 0:
            open_now.add(idx)
        else:
            open_now.discard(idx)
        depth += sign

    def passes() -> bool:
        if _live_servers_connected(
            topology, adjacency, down_servers, down_switches, down_links
        ):
            return True
        if not crashed:
            return False
        live = [s for s in topology.server_ids if down_servers.get(s, 0) == 0]
        return _components(
            topology, adjacency, live, down_servers, down_switches, down_links
        ) == _components(topology, adjacency, live, crashed, {}, {})

    def fixes(idx: int) -> bool:
        apply(outages[idx], -1)
        fixed = passes()
        apply(outages[idx], +1)
        return fixed

    pos = 0
    while pos < len(boundaries):
        _, is_start, idx = boundaries[pos]
        pos += 1
        if idx in dropped:
            continue
        step(pos - 1, +1)
        outage = outages[idx]
        can_break = outage.servers or (
            is_start and (outage.switches or outage.links)
        )
        if (depth > 1 and not can_break) or passes():
            continue
        # Latest-start first: the most recent cause is the natural
        # culprit, and index breaks exact-tie starts deterministically.
        candidates = sorted(
            (i for i in open_now if outages[i].droppable),
            key=lambda i: (outages[i].start, i),
            reverse=True,
        )
        if not candidates:
            # Only a fabric split with no element down gets here: no drop
            # can help.
            break
        # No single removal fixes it (stacked causes): drop the most
        # recent and re-examine from its onset.
        victim = next((i for i in candidates if fixes(i)), candidates[0])
        resume = onset_at[victim]
        for back in range(pos - 1, resume - 1, -1):
            if boundaries[back][2] not in dropped:
                step(back, -1)
        dropped.add(victim)
        pos = resume + 1
    return [o for i, o in enumerate(outages) if i not in dropped]


# ---------------------------------------------------------------- generation
def generate_timeline(
    topology: "Topology",
    *,
    seed: int,
    horizon: float,
    server_mtbf: float | None = None,
    server_mttr: float = 1.0,
    switch_mtbf: float | None = None,
    switch_mttr: float = 1.0,
    max_concurrent_switch_failures: int = 1,
    slowdown_mtbf: float | None = None,
    slowdown_mttr: float = 0.5,
    slowdown_factor: float = 4.0,
    link_mtbf: float | None = None,
    link_mttr: float = 1.0,
    domain_mtbf: float | None = None,
    domain_mttr: float = 1.0,
    domain_kind: str = "rack",
    link_degrade_mtbf: float | None = None,
    link_degrade_mttr: float = 0.5,
    link_degrade_factor: float = 0.25,
    allow_partition: bool = False,
) -> tuple[FaultSpec, ...]:
    """Sample a fail/recover timeline from exponential MTBF/MTTR draws.

    Each element class is enabled by setting its ``*_mtbf``: servers and
    switches (whole-element crash/repair), physical links (``link_mtbf``),
    failure domains (``domain_mtbf`` over the ``domain_kind`` domains of the
    fabric — one draw stream per domain, expanded by the injector into
    correlated per-element events) and link degradation episodes
    (``link_degrade_mtbf``; each episode scales one link to
    ``link_degrade_factor`` × nominal and restores it afterwards).  Up-times
    are ``Exp(mtbf)``-distributed, down-times ``Exp(mttr)``-distributed,
    clocks start at 0 and events past ``horizon`` are dropped — except that
    every failure drawn before the horizon always gets its matching recovery
    (even past the horizon), so a sampled timeline never strands the fabric
    permanently degraded.  An MTTR of exactly 0 is allowed and means
    "instant repair": such outages are dropped whole at sampling time (the
    element never observably fails).

    ``max_concurrent_switch_failures`` caps how many switches may be down at
    once by *skipping* excess failure draws (the element just stays up).
    Independently, a **partition guard** drops sampled switch, link and
    domain outages that would disconnect the currently-live servers from
    each other (beyond what server crashes alone do on a server-relaying
    fabric such as BCube), so a sampled timeline can only partition the
    fabric when ``allow_partition=True``.

    ``slowdown_mtbf`` additionally samples transient straggler episodes:
    each server alternates nominal/degraded with ``Exp(slowdown_mtbf)``
    healthy stretches and ``Exp(slowdown_mttr)`` degraded stretches, emitted
    as *timed* :attr:`FaultKind.TASK_SLOWDOWN` specs (``factor =
    slowdown_factor``, ``duration`` = the degraded stretch) whose restores
    the injector synthesises.

    Draw order is fixed (servers, switches, links, domains, degradations,
    slowdowns), so enabling a new class never perturbs the seeded streams of
    the classes before it; with only the pre-existing knobs set the sampled
    timeline is byte-identical to what earlier versions produced.

    All randomness comes from one ``numpy`` generator seeded with ``seed``;
    identical inputs give byte-identical timelines.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    rng = np.random.default_rng(seed)

    def check_rates(label: str, mtbf: float, mttr: float) -> None:
        if mtbf <= 0 or mttr < 0:
            raise ValueError(
                f"{label} MTBF/MTTR must be positive (MTTR 0 = instant repair)"
            )

    def sample_outages(mtbf: float, mttr: float) -> list[tuple[float, float]]:
        """(start, down-duration) episodes; zero-duration ones dropped."""
        episodes: list[tuple[float, float]] = []
        clock = float(rng.exponential(mtbf))
        while clock < horizon:
            down = float(rng.exponential(mttr))
            if down > 0.0:
                episodes.append((clock, down))
            clock += down + float(rng.exponential(mtbf))
        return episodes

    def pair(start: float, down: float, fail: FaultKind, recover: FaultKind,
             target: int, **kw: object) -> tuple[FaultSpec, FaultSpec]:
        return (
            FaultSpec(start, fail, target, **kw),  # type: ignore[arg-type]
            FaultSpec(start + down, recover, target, **kw),  # type: ignore[arg-type]
        )

    outages: list[_Outage] = []

    if server_mtbf is not None:
        check_rates("server", server_mtbf, server_mttr)
        for sid in topology.server_ids:
            for start, down in sample_outages(server_mtbf, server_mttr):
                outages.append(
                    _Outage(
                        start, start + down,
                        servers=frozenset({sid}), switches=frozenset(),
                        links=frozenset(), droppable=False,
                        specs=pair(start, down, FaultKind.SERVER_FAIL,
                                   FaultKind.SERVER_RECOVER, sid),
                    )
                )

    if switch_mtbf is not None:
        check_rates("switch", switch_mtbf, switch_mttr)
        switch_events: list[tuple[float, FaultSpec]] = []
        for wid in topology.switch_ids:
            for start, down in sample_outages(switch_mtbf, switch_mttr):
                fail, recover = pair(start, down, FaultKind.SWITCH_FAIL,
                                     FaultKind.SWITCH_RECOVER, wid)
                switch_events.append((start, fail))
                switch_events.append((start + down, recover))
        # Enforce the concurrency cap in time order: an outage that would
        # push the number of simultaneously-down switches past the cap is
        # dropped whole (its fail *and* its matching recovery), as if the
        # switch had simply stayed up.  Per-switch streams alternate
        # fail/recover strictly in time, so "matching recovery" is always
        # the switch's next recovery event.
        switch_events.sort(key=lambda p: p[0])
        down_set: set[int] = set()
        skip_recovery: set[int] = set()
        open_fail: dict[int, FaultSpec] = {}
        for _, spec in switch_events:
            if spec.kind is FaultKind.SWITCH_FAIL:
                if len(down_set) >= max_concurrent_switch_failures:
                    skip_recovery.add(spec.target)
                    continue
                down_set.add(spec.target)
                open_fail[spec.target] = spec
            else:
                if spec.target in skip_recovery:
                    skip_recovery.discard(spec.target)
                    continue
                down_set.discard(spec.target)
                fail = open_fail.pop(spec.target)
                outages.append(
                    _Outage(
                        fail.time, spec.time,
                        servers=frozenset(),
                        switches=frozenset({spec.target}),
                        links=frozenset(), droppable=True,
                        specs=(fail, spec),
                    )
                )

    if link_mtbf is not None:
        check_rates("link", link_mtbf, link_mttr)
        for link in topology.links:
            u, v = link.key
            for start, down in sample_outages(link_mtbf, link_mttr):
                outages.append(
                    _Outage(
                        start, start + down,
                        servers=frozenset(), switches=frozenset(),
                        links=frozenset({(u, v)}), droppable=True,
                        specs=pair(start, down, FaultKind.LINK_FAIL,
                                   FaultKind.LINK_RECOVER, u, target2=v),
                    )
                )

    if domain_mtbf is not None:
        check_rates("domain", domain_mtbf, domain_mttr)
        for dom in domains_of(topology, domain_kind):
            for start, down in sample_outages(domain_mtbf, domain_mttr):
                outages.append(
                    _Outage(
                        start, start + down,
                        servers=frozenset(dom.servers),
                        switches=frozenset(dom.switches),
                        links=frozenset(), droppable=True,
                        specs=pair(start, down, FaultKind.DOMAIN_FAIL,
                                   FaultKind.DOMAIN_RECOVER, dom.index,
                                   domain=dom.kind),
                    )
                )

    if link_degrade_mtbf is not None:
        check_rates("link degrade", link_degrade_mtbf, link_degrade_mttr)
        if not 0.0 <= link_degrade_factor < 1.0:
            raise ValueError("link degrade factor must be in [0, 1)")
        dead = link_degrade_factor == 0.0
        for link in topology.links:
            u, v = link.key
            for start, down in sample_outages(link_degrade_mtbf,
                                              link_degrade_mttr):
                outages.append(
                    _Outage(
                        start, start + down,
                        servers=frozenset(), switches=frozenset(),
                        links=frozenset({(u, v)}) if dead else frozenset(),
                        droppable=dead,
                        specs=(
                            FaultSpec(start, FaultKind.LINK_DEGRADE, u,
                                      factor=link_degrade_factor, target2=v),
                            FaultSpec(start + down, FaultKind.LINK_DEGRADE, u,
                                      factor=1.0, target2=v),
                        ),
                    )
                )

    outages = _prune_partitioning_outages(topology, outages, allow_partition)
    specs: list[FaultSpec] = [s for outage in outages for s in outage.specs]

    if slowdown_mtbf is not None:
        check_rates("slowdown", slowdown_mtbf, slowdown_mttr)
        if slowdown_factor <= 1.0:
            raise ValueError("slowdown factor must exceed 1.0")
        for sid in topology.server_ids:
            clock = float(rng.exponential(slowdown_mtbf))
            while clock < horizon:
                degraded = float(rng.exponential(slowdown_mttr))
                if degraded > 0.0:
                    specs.append(
                        FaultSpec(
                            clock,
                            FaultKind.TASK_SLOWDOWN,
                            sid,
                            factor=slowdown_factor,
                            duration=degraded,
                        )
                    )
                clock += degraded + float(rng.exponential(slowdown_mtbf))

    return validate_timeline(topology, specs)
