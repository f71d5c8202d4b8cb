"""Batched rankings and the float proposal loop equal the per-item originals.

``PreferenceMatrix`` ranks every server with one row-wise stable argsort and
every container with one column-wise stable argsort; ``stable_match`` runs
its proposals on ``(memory, vcores)`` float pairs.  The references below are
the per-server and per-column argsorts and the ``Resources``-based loop
they replaced, kept verbatim so any divergence — in a tie break, a sentinel
rank, a prefix cut or a float residue — shows up as a failed equality.
"""

from collections import deque

import numpy as np
import pytest

from repro.cluster import ClusterState, Container, Resources
from repro.core.matching import stable_match
from repro.core.preference import PreferenceMatrix
from repro.topology import Link, Server, Switch, Tier, Topology


# ------------------------------------------------------------- references
def reference_server_rank_array(pref: PreferenceMatrix, server_id: int):
    """One server's stable argsort over its own utility row."""
    i = pref.server_index[server_id]
    with np.errstate(invalid="ignore"):
        utilities = np.where(
            np.isfinite(pref.current_cost),
            pref.current_cost - pref.cost[i, :],
            -pref.cost[i, :],
        )
    utilities = np.nan_to_num(utilities, nan=-np.inf)
    n = len(pref.container_ids)
    order = np.argsort(-utilities, kind="stable")
    feasible_in_order = order[np.isfinite(pref.cost[i, order])]
    ranks = np.full(n, n + 1, dtype=np.int64)
    ranks[feasible_in_order] = np.arange(feasible_in_order.size)
    return ranks


def reference_server_ranking(pref: PreferenceMatrix, server_id: int):
    ranks = reference_server_rank_array(pref, server_id)
    n = len(pref.container_ids)
    feasible = [j for j in range(n) if ranks[j] < n]
    return [pref.container_ids[j] for j in sorted(feasible, key=lambda j: ranks[j])]


def reference_container_ranking(pref: PreferenceMatrix, container_id: int):
    """One container's stable argsort over its cost column, finite only."""
    column = pref.cost[:, pref.container_index[container_id]]
    order = np.argsort(column, kind="stable")
    order = order[np.isfinite(column[order])]
    return np.asarray(pref.server_ids)[order].tolist()


def reference_stable_match(pref: PreferenceMatrix, cluster: ClusterState):
    """Algorithm 2 on ``Resources`` objects and per-server argsorts."""
    container_ids = list(pref.container_ids)
    in_matrix = set(container_ids)
    zero = Resources.zero()
    pref_lists = {c: reference_container_ranking(pref, c) for c in container_ids}
    cursors = {c: 0 for c in container_ids}
    cidx = pref.container_index
    unrejected = len(container_ids) + 1
    rank_arrays: dict[int, np.ndarray] = {}
    rejected_top: dict[int, int] = {}
    capacity: dict[int, Resources] = {}
    used: dict[int, Resources] = {}
    accepted: dict[int, set[int]] = {}
    matched_to: dict[int, int] = {}
    demand = {c: cluster.container(c).demand for c in container_ids}
    free = deque(container_ids)
    proposals = evictions = 0
    while free:
        c = free.popleft()
        while cursors[c] < len(pref_lists[c]):
            s = pref_lists[c][cursors[c]]
            cursors[c] += 1
            if s not in rank_arrays:
                rank_arrays[s] = reference_server_rank_array(pref, s)
            ranks = rank_arrays[s]
            if int(ranks[cidx[c]]) >= rejected_top.get(s, unrejected):
                continue
            proposals += 1
            if s not in capacity:
                capacity[s] = cluster.capacity(s) - cluster.load_excluding(
                    s, in_matrix
                )
                accepted[s] = set()
            hosted = accepted[s]
            hosted.add(c)
            matched_to[c] = s
            load = used.get(s, zero) + demand[c]
            while not load.fits_in(capacity[s]):
                worst = max(hosted, key=lambda x: ranks[cidx[x]])
                hosted.discard(worst)
                load = load - demand[worst]
                del matched_to[worst]
                evictions += 1
                rejected_top[s] = min(
                    rejected_top.get(s, unrejected), int(ranks[cidx[worst]])
                )
                if worst != c:
                    free.append(worst)
            used[s] = load
            if c in hosted:
                break
    unmatched = [c for c in container_ids if c not in matched_to]
    return dict(matched_to), unmatched, proposals, evictions


# -------------------------------------------------------------- instances
FRACTIONS = (0.1, 0.3, 0.7)


def random_matrix(rng, server_ids, container_ids):
    """Costs on a coarse grid (many ties), some inf, some unplaced."""
    m, n = len(server_ids), len(container_ids)
    cost = rng.integers(0, 4, size=(m, n)) * 0.5
    cost[rng.random((m, n)) < 0.2] = np.inf
    current = rng.integers(0, 6, size=n) * 0.5
    current[rng.random(n) < 0.3] = np.inf
    return PreferenceMatrix(
        server_ids=tuple(server_ids),
        container_ids=tuple(container_ids),
        cost=cost,
        current_cost=current,
    )


def build_cluster(capacities, demands) -> ClusterState:
    """A star fabric: one server per ``(memory, vcores)`` capacity, and one
    unplaced container per ``(memory, vcores)`` demand, ids from 0."""
    m = len(capacities)
    servers = [
        Server(i, f"s{i}", resource_capacity=cap)
        for i, cap in enumerate(capacities)
    ]
    switch = Switch(m, "w", Tier.ACCESS, 100.0)
    cluster = ClusterState(
        Topology(servers, [switch], [Link(i, m, 10.0) for i in range(m)])
    )
    for cid, demand in enumerate(demands):
        cluster.add_container(Container(cid, Resources(*demand)))
    return cluster


def random_instance(seed: int):
    """Fractional two-component demands, tight capacities, and fixed
    containers outside the matrix already placed on some servers."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 11))
    fixed = int(rng.integers(0, 4))
    sizes = (0.5, 1.0, 1.5)
    cluster = build_cluster(
        [
            (float(rng.choice(sizes)), float(rng.choice(sizes)))
            for _ in range(m)
        ],
        [
            (float(rng.choice(FRACTIONS)), float(rng.choice(FRACTIONS)))
            for _ in range(n + fixed)
        ],
    )
    # The matrix covers a shuffled subset; the rest are fixed tenants.
    ids = rng.permutation(n + fixed).tolist()
    in_matrix, outside = ids[:n], ids[n:]
    for cid in outside:
        for sid in rng.permutation(m).tolist():
            if cluster.fits(cid, sid):
                cluster.place(cid, sid)
                break
    return random_matrix(rng, cluster.server_ids, in_matrix), cluster


# ------------------------------------------------------------------ tests
@pytest.mark.parametrize("seed", range(60))
def test_batched_ranks_equal_per_item_argsorts(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 12))
    server_ids = sorted(rng.choice(100, size=m, replace=False).tolist())
    container_ids = rng.choice(1000, size=n, replace=False).tolist()
    pref = random_matrix(rng, server_ids, container_ids)
    for s in server_ids:
        ranks = pref.server_rank_array(s)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, reference_server_rank_array(pref, s)), s
        assert pref.server_ranking(s) == reference_server_ranking(pref, s), s
    for c in container_ids:
        assert pref.container_ranking(c) == reference_container_ranking(pref, c)


@pytest.mark.parametrize("seed", range(120))
def test_float_loop_equals_resources_loop(seed):
    pref, cluster = random_instance(seed)
    result = stable_match(pref, cluster)
    assignment, unmatched, proposals, evictions = reference_stable_match(
        pref, cluster
    )
    # In order: the caller places the assignment in its iteration order.
    assert list(result.assignment.items()) == list(assignment.items())
    assert result.unmatched == unmatched
    assert result.proposals == proposals
    assert result.evictions == evictions


def test_instances_exercise_evictions_and_unmatched():
    """The random instances reach the loop's eviction and exhaustion paths."""
    outcomes = [reference_stable_match(*random_instance(s)) for s in range(120)]
    assert sum(evictions > 0 for *_, evictions in outcomes) >= 20
    assert sum(bool(unmatched) for _, unmatched, *_ in outcomes) >= 10


def test_clamped_residue_decides_a_later_fit():
    """Evicting 0.3 then 0.6 from ``0.3 + 0.6`` leaves -1.1e-16.  Clamped to
    zero, a later 0.5 does not fit a server just under 0.5; left negative,
    it would."""
    cluster = build_cluster(
        [(float(np.nextafter(0.5, 0.0)), 1.0)],
        [(0.3, 0.0), (0.6, 0.0), (0.5, 0.0)],
    )
    # The server prefers container 2, then 1, then 0.
    pref = PreferenceMatrix(
        server_ids=(0,),
        container_ids=(0, 1, 2),
        cost=np.array([[3.0, 2.0, 1.0]]),
        current_cost=np.full(3, np.inf),
    )
    result = stable_match(pref, cluster)
    assert reference_stable_match(pref, cluster) == ({}, [0, 1, 2], 3, 3)
    assert (result.assignment, result.unmatched) == ({}, [0, 1, 2])
    assert (result.proposals, result.evictions) == (3, 3)
