"""The partition guard against its restart-from-scratch predecessor.

``_restart_guard`` below is the guard as it was before it learned to resume
after a drop and to skip the boundaries that cannot break connectivity: it
replays every kept outage from t = 0 after each drop and BFS-checks every
boundary.  The fast guard must keep and drop exactly the same outages, so
the sampled timelines are compared byte for byte (by the sha256 of their
``repr``: two timelines built by different code paths are compared as
text, never with ``==`` or ``hash``).  The BFS-call counts are pinned so a
return of the quadratic replay fails here.

The one intended difference: on BCube, whose servers relay traffic, server
crashes alone can split live servers.  The restart guard then stopped
checking for good, and later partitions that a drop would heal survived; the
guard now judges each state against what the crashes alone allow.  BCube
with server faults is therefore held to that property instead of the oracle.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.configs import build_fabric
from repro.faults import FaultKind, domains_of, generate_timeline
from repro.faults import spec as fault_spec
from repro.faults.spec import _live_servers_connected, _Outage
from repro.topology import TreeConfig, build_tree
from repro.topology.base import Link, Server, Switch, Tier, Topology


def _restart_guard(topology, outages, allow_partition):
    """The guard before the single-replay rewrite, verbatim."""
    if allow_partition:
        return outages
    adjacency = {
        node: topology.neighbors(node)
        for node in (*topology.server_ids, *topology.switch_ids)
    }
    dropped: set[int] = set()

    def replay() -> int | None:
        """Replay kept outages; return the index to drop, or None if the
        whole timeline keeps live servers connected."""
        boundaries = sorted(
            (
                boundary
                for idx, outage in enumerate(outages)
                if idx not in dropped
                for boundary in (
                    (outage.end, 0, idx),
                    (outage.start, 1, idx),
                )
            ),
            key=lambda b: (b[0], b[1]),
        )
        down_servers: dict[int, int] = {}
        down_switches: dict[int, int] = {}
        down_links: dict[tuple[int, int], int] = {}
        open_now: set[int] = set()

        def apply(outage: _Outage, delta: int) -> None:
            for sid in outage.servers:
                down_servers[sid] = down_servers.get(sid, 0) + delta
            for wid in outage.switches:
                down_switches[wid] = down_switches.get(wid, 0) + delta
            for key in outage.links:
                down_links[key] = down_links.get(key, 0) + delta

        def connected() -> bool:
            return _live_servers_connected(
                topology, adjacency, down_servers, down_switches, down_links
            )

        for _, is_start, idx in boundaries:
            outage = outages[idx]
            if is_start:
                apply(outage, +1)
                open_now.add(idx)
            else:
                apply(outage, -1)
                open_now.discard(idx)
            if connected():
                continue
            # Latest-start first: the most recent cause is the natural
            # culprit, and index breaks exact-tie starts deterministically.
            candidates = sorted(
                (i for i in open_now if outages[i].droppable),
                key=lambda i: (outages[i].start, i),
                reverse=True,
            )
            for i in candidates:
                apply(outages[i], -1)
                fixed = connected()
                apply(outages[i], +1)
                if fixed:
                    return i
            # No single removal fixes it (stacked causes): drop the most
            # recent and re-examine on the next replay.
            return candidates[0] if candidates else None
        return None

    while True:
        victim = replay()
        if victim is None:
            break
        dropped.add(victim)
    return [o for i, o in enumerate(outages) if i not in dropped]


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _oracle_timeline(monkeypatch, topology, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(fault_spec, "_prune_partitioning_outages", _restart_guard)
        return generate_timeline(topology, **kwargs)


FABRICS = {
    "testbed": lambda: build_fabric("testbed"),
    "fattree-k4": lambda: build_fabric({"name": "fattree", "k": 4}),
    "fig8b-vl2": lambda: build_fabric("fig8b-vl2"),
    "bcube": lambda: build_fabric("bcube"),
}

#: The ``tree64-hit-faults-audited`` bench workload's fault knobs.
TREE64_MIX = dict(
    switch_mtbf=10.0,
    switch_mttr=0.5,
    link_mtbf=40.0,
    link_mttr=0.5,
    link_degrade_mtbf=40.0,
)
#: Every outage class the guard sees, two switches down at once.
ALL_CLASSES = dict(
    server_mtbf=8.0,
    server_mttr=0.5,
    switch_mtbf=10.0,
    switch_mttr=0.5,
    max_concurrent_switch_failures=2,
    link_mtbf=40.0,
    link_mttr=0.5,
    domain_mtbf=40.0,
    domain_mttr=0.5,
)
MIXES = {
    "tree64-bench": TREE64_MIX,
    "all-classes": ALL_CLASSES,
    "dead-degrade": dict(
        link_mtbf=40.0,
        link_mttr=0.5,
        link_degrade_mtbf=40.0,
        link_degrade_mttr=0.5,
        link_degrade_factor=0.0,
    ),
    "allow-partition": dict(ALL_CLASSES, allow_partition=True),
}

#: Short enough that the restart oracle stays quick on the 128-server VL2.
HORIZON = 12.0


#: Every (fabric, mix) but BCube under server crashes (see the module doc).
ORACLE_CASES = [
    (fabric, mix)
    for fabric in sorted(FABRICS)
    for mix in sorted(MIXES)
    if (fabric, mix) != ("bcube", "all-classes")
]


@pytest.mark.parametrize("fabric,mix", ORACLE_CASES)
def test_timelines_match_the_restart_guard(monkeypatch, fabric, mix):
    topology = FABRICS[fabric]()
    kwargs = dict(horizon=HORIZON, **MIXES[mix])
    for seed in range(8):
        fast = generate_timeline(topology, seed=seed, **kwargs)
        slow = _oracle_timeline(monkeypatch, topology, seed=seed, **kwargs)
        assert _digest(fast) == _digest(slow), f"seed {seed}"


def _outage(start, end, *, servers=(), switches=(), links=(), droppable=True):
    """A hand-built outage; the guard never reads its specs."""
    return _Outage(
        start,
        end,
        servers=frozenset(servers),
        switches=frozenset(switches),
        links=frozenset(links),
        droppable=droppable,
        specs=(),
    )


def test_recovery_and_onset_at_one_instant():
    """Both replicas of one access switch: the first recovers at the instant
    the second fails.  Recoveries go first at ties, so neither outage
    partitions the rack and both are kept; a third, overlapping outage of
    the first replica is dropped."""
    topology = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2))
    server = topology.server_ids[0]
    first, second = topology.neighbors(server)[:2]
    outages = [
        _outage(1.0, 2.0, switches=[first]),
        _outage(2.0, 3.0, switches=[second]),
        _outage(2.5, 4.0, switches=[first]),
    ]
    fast = fault_spec._prune_partitioning_outages(topology, outages, False)
    slow = _restart_guard(topology, outages, False)
    assert _digest(fast) == _digest(slow)
    assert fast == outages[:2]


def test_fabric_partitioned_before_any_fault():
    """A fabric that is split with every element up (server 2 has no link):
    no boundary is skipped until one has been checked, so the first,
    element-less boundary stops the guard exactly as the restart guard
    stopped, and the later switch outage is kept."""
    topology = Topology(
        [Server(0, "s0"), Server(1, "s1"), Server(2, "s2")],
        [Switch(3, "w3", Tier.ACCESS, capacity=1.0)],
        [Link(0, 3, 1.0), Link(1, 3, 1.0)],
    )
    outages = [
        # A link degradation to a factor above 0: no element goes down.
        _outage(1.0, 2.0, droppable=False),
        _outage(1.5, 1.7, switches=[3]),
    ]
    fast = fault_spec._prune_partitioning_outages(topology, outages, False)
    slow = _restart_guard(topology, outages, False)
    assert _digest(fast) == _digest(slow)
    assert fast == outages


class TestBfsWork:
    """The number of BFS connectivity checks one timeline costs.  The
    restart guard took 2,082 checks for the first case and 144,520 for the
    second; both counts are deterministic."""

    @pytest.fixture
    def count_checks(self, monkeypatch):
        calls = [0]

        def counted(*args):
            calls[0] += 1
            return _live_servers_connected(*args)

        monkeypatch.setattr(fault_spec, "_live_servers_connected", counted)
        return calls

    def test_tree64_bench_timeline(self, count_checks):
        generate_timeline(build_fabric("testbed"), seed=0, horizon=40.0, **TREE64_MIX)
        assert count_checks[0] == 267

    def test_fattree_k8_all_classes(self, count_checks):
        topology = build_fabric({"name": "fattree", "k": 8})
        generate_timeline(topology, seed=0, horizon=40.0, **ALL_CLASSES)
        assert count_checks[0] == 1970


# ------------------------------------------- server-relaying fabric (BCube)
_ONSETS = {
    FaultKind.SERVER_FAIL: "server",
    FaultKind.SWITCH_FAIL: "switch",
    FaultKind.LINK_FAIL: "link",
    FaultKind.DOMAIN_FAIL: "domain",
}
_RECOVERIES = {
    FaultKind.SERVER_RECOVER: "server",
    FaultKind.SWITCH_RECOVER: "switch",
    FaultKind.LINK_RECOVER: "link",
    FaultKind.DOMAIN_RECOVER: "domain",
}


def _healable_partitions(topology, timeline) -> int:
    """Independent replay of a timeline's fail/recover specs (recoveries
    first at ties): the number of instants at which live servers are split
    although removing one open switch, link or domain outage would
    reconnect them."""

    def key(spec, family):
        if family == "link":
            return (family, *sorted((spec.target, spec.target2)))
        if family == "domain":
            return (family, spec.domain, spec.target)
        return (family, spec.target)

    def split(open_outages) -> bool:
        servers, switches, links = set(), set(), set()
        for outage, count in open_outages.items():
            if count <= 0:
                continue
            if outage[0] == "server":
                servers.add(outage[1])
            elif outage[0] == "switch":
                switches.add(outage[1])
            elif outage[0] == "link":
                links.add(outage[1:])
            else:
                domain = domains_of(topology, outage[1])[outage[2]]
                servers |= set(domain.servers)
                switches |= set(domain.switches)
        live = [s for s in topology.server_ids if s not in servers]
        if len(live) <= 1:
            return False
        seen, stack = {live[0]}, [live[0]]
        while stack:
            node = stack.pop()
            for peer in topology.neighbors(node):
                if peer in seen or peer in switches or peer in servers:
                    continue
                if tuple(sorted((node, peer))) in links:
                    continue
                seen.add(peer)
                stack.append(peer)
        return not all(s in seen for s in live)

    open_outages: dict[tuple, int] = {}
    healable = 0
    for spec in sorted(timeline, key=lambda s: (s.time, s.kind in _ONSETS)):
        if spec.kind in _ONSETS:
            outage = key(spec, _ONSETS[spec.kind])
            open_outages[outage] = open_outages.get(outage, 0) + 1
        elif spec.kind in _RECOVERIES:
            open_outages[key(spec, _RECOVERIES[spec.kind])] -= 1
        else:
            continue
        if not split(open_outages):
            continue
        for outage, count in open_outages.items():
            if count > 0 and outage[0] != "server":
                without = dict(open_outages)
                without[outage] -= 1
                if not split(without):
                    healable += 1
                    break
    return healable


class TestServerRelayFabric:
    """BCube(4, 1) under heavy server, switch and link faults."""

    KNOBS = dict(
        horizon=20.0,
        server_mtbf=2.0,
        server_mttr=1.0,
        switch_mtbf=4.0,
        switch_mttr=1.0,
        link_mtbf=4.0,
        link_mttr=1.0,
    )
    SEEDS = range(20)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_partition_a_drop_would_heal(self, seed):
        topology = build_fabric("bcube")
        timeline = generate_timeline(topology, seed=seed, **self.KNOBS)
        assert _healable_partitions(topology, timeline) == 0

    def test_restart_guard_left_healable_partitions(self, monkeypatch):
        """The property above is not vacuous: once crashed servers alone
        split the fabric, the restart guard stopped checking, and later
        partitions that a drop would heal survived on most seeds."""
        topology = build_fabric("bcube")
        hits = sum(
            _healable_partitions(
                topology,
                _oracle_timeline(monkeypatch, topology, seed=seed, **self.KNOBS),
            )
            > 0
            for seed in self.SEEDS
        )
        assert hits >= len(self.SEEDS) // 2

    # BCube(4, 1): server 4r + c hangs off row switch 16 + r and column
    # switch 20 + c, and relays between them.
    def test_drop_judged_against_the_crashes_alone(self):
        """Crashes of 1, 2, 3, 4, 8 and 12 cut server 0 off for good.  When
        server 5 recovers behind its two dead links, dropping one of them
        heals what the crashes left connected; the switch-16 outage that
        started later changes nothing and is kept."""
        topology = build_fabric("bcube")
        crashes = [
            _outage(0.0, 10.0, servers=[s], droppable=False)
            for s in (1, 2, 3, 4, 8, 12)
        ]
        outages = crashes + [
            _outage(0.0, 3.0, servers=[5], droppable=False),
            _outage(1.0, 5.0, links=[(5, 17)]),
            _outage(1.5, 5.0, links=[(5, 21)]),
            _outage(2.0, 5.0, switches=[16]),
        ]
        kept = fault_spec._prune_partitioning_outages(topology, outages, False)
        assert kept == outages[:8] + outages[9:]

    def test_dead_domain_server_is_no_relay_of_the_baseline(self):
        """Server 4 relays server 0's only live path (1, 2, 3, 8 and 12
        crashed).  Its rack domain (server 4, switches 17 and 20) is a
        droppable outage, so the crashes alone leave server 0 connected,
        and the domain outage that cuts it off is dropped."""
        topology = build_fabric("bcube")
        crashes = [
            _outage(0.0, 10.0, servers=[s], droppable=False)
            for s in (1, 2, 3, 8, 12)
        ]
        domain = _outage(1.0, 2.0, servers=[4], switches=[17, 20])
        kept = fault_spec._prune_partitioning_outages(
            topology, crashes + [domain], False
        )
        assert kept == crashes
