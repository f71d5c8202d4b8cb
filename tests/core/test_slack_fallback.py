"""Alg-1's slack fallback and the bounded BFS that rules it out.

``PolicyController._optimal_path_impl`` runs one frontier BFS over usable
nodes before enumerating slack-extended paths, and raises straight away when
the destination is out of reach.  ``reference_optimal_path`` below is the
pre-BFS implementation kept verbatim; the BFS must never change a result:
same path, same cost, or the same ``NoFeasiblePathError``.  Soundness is
checked directly as well: whenever the BFS says unreachable, an unbounded
enumeration finds no path that is both alive and feasible.
"""

from __future__ import annotations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core import NoFeasiblePathError, PolicyController
from repro.obs import Tracer, observe
from repro.topology import (
    BCubeConfig,
    FatTreeConfig,
    Link,
    Server,
    Switch,
    Tier,
    Topology,
    TreeConfig,
    VL2Config,
    build_bcube,
    build_fattree,
    build_tree,
    build_vl2,
    enumerate_paths,
)

_INF = float("inf")


def reference_optimal_path(controller, src_server, dst_server, rate, enforce_capacity):
    """The pre-BFS ``_optimal_path_impl``, verbatim."""
    self = controller
    path = self._dag_best_path(src_server, dst_server, rate, enforce_capacity)
    if path is not None:
        return path, self.path_cost(path, rate)
    if enforce_capacity or self._failed_switches or self._failed_links:
        broken = bool(self._failed_switches or self._failed_links)
        for slack in range(1, self.max_slack + 1):
            best = None
            best_cost = _INF
            for candidate in enumerate_paths(
                self.topology, src_server, dst_server, slack=slack, limit=512
            ):
                if broken and not self._path_alive(candidate):
                    continue
                if enforce_capacity and not self._path_feasible(candidate, rate):
                    continue
                cost = self.path_cost(candidate, rate)
                if cost < best_cost:
                    best, best_cost = candidate, cost
            if best is not None:
                return best, best_cost
    raise NoFeasiblePathError(
        f"no feasible path for rate {rate} between servers "
        f"{src_server} and {dst_server}"
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except NoFeasiblePathError:
        return "infeasible"


FABRICS = {
    "tree-r1": build_tree(TreeConfig(depth=2, fanout=3, redundancy=1)),
    "tree-r2": build_tree(TreeConfig(depth=2, fanout=3, redundancy=2)),
    "fattree-k4": build_fattree(FatTreeConfig(k=4)),
    "vl2": build_vl2(
        VL2Config(
            num_intermediate=2, num_aggregation=2, num_tor=4, servers_per_tor=2
        )
    ),
    # BCube servers relay traffic: "servers are always usable" matters here.
    "bcube": build_bcube(BCubeConfig(n=3, k=1)),
}

#: Background load as a fraction of capacity: idle, loaded, near-saturated.
LOAD_FRACTIONS = (0.0, 0.5, 0.9, 0.95, 0.98, 1.0)


@st.composite
def scenarios(draw):
    kind = draw(st.sampled_from(sorted(FABRICS)))
    topology = FABRICS[kind]
    controller = PolicyController(topology)
    for w in topology.switch_ids:
        frac = draw(st.sampled_from(LOAD_FRACTIONS))
        controller.set_base_load(w, topology.switch(w).capacity * frac)
    failed = st.lists(st.sampled_from(topology.switch_ids), max_size=3, unique=True)
    for w in draw(failed):
        controller.fail_switch(w)
    links = [link.key for link in topology.links]
    for u, v in draw(st.lists(st.sampled_from(links), max_size=3, unique=True)):
        controller.fail_link(u, v)
    servers = topology.server_ids
    src = draw(st.sampled_from(servers))
    dst = draw(st.sampled_from([s for s in servers if s != src]))
    rate = draw(st.sampled_from((0.5, 2.0, 5.0, 12.0)))
    enforce = draw(st.booleans())
    return kind, controller, src, dst, rate, enforce


def assert_sound(controller, src, dst, rate, enforce):
    """BFS unreachable => no enumerated path is alive and feasible."""
    if controller._slack_reachable(src, dst, rate, enforce):
        return
    for candidate in enumerate_paths(
        controller.topology, src, dst, slack=controller.max_slack, limit=10**6
    ):
        alive = controller._path_alive(candidate)
        feasible = not enforce or controller._path_feasible(candidate, rate)
        assert not (alive and feasible), candidate


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_optimal_path_matches_pre_bfs_fallback(scenario):
    kind, controller, src, dst, rate, enforce = scenario
    expected = outcome(reference_optimal_path, controller, src, dst, rate, enforce)
    got = outcome(controller.optimal_path, src, dst, rate, enforce)
    assert got == expected, (kind, src, dst, rate, enforce)
    if controller._dag_best_path(src, dst, rate, enforce) is None:
        reachable = controller._slack_reachable(src, dst, rate, enforce)
        event(f"fallback: bfs {'pass' if reachable else 'prune'}, {expected!r:.10}")
    assert_sound(controller, src, dst, rate, enforce)


@pytest.mark.parametrize("kind", sorted(FABRICS))
def test_bfs_sound_on_every_pair(kind):
    """Exhaustive over server pairs with a fixed saturated/failed fabric."""
    topology = FABRICS[kind]
    controller = PolicyController(topology)
    switches = topology.switch_ids
    for i, w in enumerate(switches):
        frac = LOAD_FRACTIONS[i % len(LOAD_FRACTIONS)]
        controller.set_base_load(w, topology.switch(w).capacity * frac)
    controller.fail_switch(switches[-1])
    links = topology.links
    link = links[len(links) // 2]
    controller.fail_link(link.u, link.v)
    branches = {True: 0, False: 0}
    servers = topology.server_ids
    for src in servers:
        for dst in servers:
            if src == dst:
                continue
            for enforce in (False, True):
                for rate in (0.5, 5.0):
                    assert outcome(
                        controller.optimal_path, src, dst, rate, enforce
                    ) == outcome(
                        reference_optimal_path, controller, src, dst, rate, enforce
                    )
                    assert_sound(controller, src, dst, rate, enforce)
                    if controller._dag_best_path(src, dst, rate, enforce) is None:
                        reachable = controller._slack_reachable(src, dst, rate, enforce)
                        branches[reachable] += 1
    assert branches[False] > 0, "the fixed fabric never exercised the BFS prune"
    if kind == "bcube":
        # Server relays give detours the shortest-path DAG lacks.
        assert branches[True] > 0


# --------------------------------------------------------- hand-built fabrics
def ladder(middle: int) -> tuple[Topology, list[int], list[int]]:
    """Servers 0 and 1 behind access switches A and B.

    ``middle`` fully meshed switches M each link A and B (the shortest
    paths, 4 hops); a chain A-X-Y-Z-B of higher-id switches is the only
    6-hop detour around them.  The DFS in :func:`enumerate_paths` visits
    A's neighbours in id order, so every M-rooted path comes before the
    chain.  Returns the topology, the M ids and the chain ids.
    """
    servers = [Server(0, "s0"), Server(1, "s1")]
    a, b = 2, 3
    ms = list(range(4, 4 + middle))
    chain = [4 + middle, 5 + middle, 6 + middle]
    switches = [
        Switch(node, f"w{node}", Tier.ACCESS, 100.0) for node in (a, b)
    ] + [Switch(node, f"w{node}", Tier.CORE, 100.0) for node in ms + chain]
    edges = [(0, a), (1, b)]
    edges += [(a, m) for m in ms] + [(m, b) for m in ms]
    edges += [(m, n) for i, m in enumerate(ms) for n in ms[i + 1:]]
    edges += list(zip([a, *chain], [*chain, b]))
    links = [Link(u, v, bandwidth=10.0) for u, v in edges]
    return Topology(servers, switches, links, name="ladder"), ms, chain


def saturated_ladder(middle: int):
    topology, ms, chain = ladder(middle)
    controller = PolicyController(topology)
    for m in ms:
        controller.set_base_load(m, 100.0)
    return controller, chain


def test_bfs_passes_and_loop_finds_the_detour():
    controller, chain = saturated_ladder(middle=3)
    assert controller._dag_best_path(0, 1, 1.0, True) is None
    assert controller._slack_reachable(0, 1, 1.0, True)
    expected = reference_optimal_path(controller, 0, 1, 1.0, True)
    assert expected[0] == (0, 2, *chain, 3, 1)
    assert controller.optimal_path(0, 1, 1.0) == expected


def test_bfs_passes_but_truncated_loop_finds_nothing():
    """The detour exists but lies past the loop's 512-path cut, so both
    implementations raise; the BFS alone must not claim otherwise."""
    controller, chain = saturated_ladder(middle=9)
    topology = controller.topology
    detour = (0, 2, *chain, 3, 1)
    assert detour not in enumerate_paths(topology, 0, 1, slack=2, limit=512)
    assert detour in enumerate_paths(topology, 0, 1, slack=2, limit=10**6)
    assert controller._slack_reachable(0, 1, 1.0, True)
    with pytest.raises(NoFeasiblePathError):
        reference_optimal_path(controller, 0, 1, 1.0, True)
    with pytest.raises(NoFeasiblePathError):
        controller.optimal_path(0, 1, 1.0)


def test_bfs_prunes_a_blocked_chain():
    controller, chain = saturated_ladder(middle=3)
    controller.set_base_load(chain[1], 100.0)
    assert not controller._slack_reachable(0, 1, 1.0, True)
    assert_sound(controller, 0, 1, 1.0, True)
    # Dead middle switches, then a dead chain link: pruned without capacity
    # enforcement too.
    topology, ms, chain = ladder(middle=3)
    controller = PolicyController(topology)
    for m in ms:
        controller.fail_switch(m)
    assert controller._slack_reachable(0, 1, 1.0, False)
    controller.fail_link(chain[0], chain[1])
    assert not controller._slack_reachable(0, 1, 1.0, False)
    assert_sound(controller, 0, 1, 1.0, False)
    with pytest.raises(NoFeasiblePathError):
        controller.optimal_path(0, 1, 1.0, enforce_capacity=False)


def test_bfs_respects_the_hop_budget():
    """A usable route longer than shortest + max_slack is out of budget."""
    controller, chain = saturated_ladder(middle=3)
    controller.max_slack = 1  # the chain needs slack 2
    assert not controller._slack_reachable(0, 1, 1.0, True)
    with pytest.raises(NoFeasiblePathError):
        controller.optimal_path(0, 1, 1.0)


def test_fallback_counters():
    """``alg1.slack_fallback`` counts every fallback; ``alg1.slack_pruned``
    only those the BFS rules out."""
    controller, chain = saturated_ladder(middle=3)
    tracer = Tracer()
    with observe(tracer=tracer):
        controller.optimal_path(0, 1, 1.0)  # fallback, detour found
        controller.set_base_load(chain[1], 100.0)
        with pytest.raises(NoFeasiblePathError):
            controller.optimal_path(0, 1, 1.0)  # fallback, pruned
        controller.optimal_path(0, 1, 1.0, enforce_capacity=False)  # no fallback
    assert tracer.counters["alg1.slack_fallback"] == 2
    assert tracer.counters["alg1.slack_pruned"] == 1
    assert tracer.counters["alg1.no_feasible_path"] == 1
