"""A Hit wave costs the size of the wave, not the size of the run's history.

The simulator's shared :class:`ClusterState` keeps every container a run has
ever created; finished tasks' containers are unplaced but never removed.
These tests build a planning instance over a cluster that also holds
hundreds of such finished containers plus another job's placed containers,
and check that:

* the wave's result is the one it gets on the same cluster without the
  history;
* nothing outside the wave moves;
* no step of the wave (and no ``stable_match`` call) scans the whole
  cluster — the three whole-cluster accessors are patched to raise.

A second group checks that ``stable_match``'s per-server fixed load is
bit-identical to the global scan it replaced, with fractional demands.
"""

import numpy as np
import pytest

from repro.cluster import ClusterState, Container, Resources, TaskKind, TaskRef
from repro.core import (
    HitConfig,
    HitOptimizer,
    TAAInstance,
    build_preference_matrix,
    find_blocking_pairs,
    stable_match,
)
from repro.core.preference import PreferenceMatrix
from repro.mapreduce import build_flows
from repro.obs import observe
from repro.topology import TreeConfig, build_tree

from ..conftest import make_job
from .test_matching import make_cluster

FINISHED = 600
UNIT = Resources(1.0, 0.0)
WHOLE_CLUSTER_SCANS = ("containers", "placement_snapshot", "unplaced_containers")


def forbid_whole_cluster_scans(monkeypatch):
    def scan(self, *args, **kwargs):
        raise AssertionError("whole-cluster scan during a wave")

    for name in WHOLE_CLUSTER_SCANS:
        monkeypatch.setattr(ClusterState, name, scan)


def planning_instance(with_history: bool, seed: int):
    """A new job's planning instance over a shared, busy cluster.

    Ids ``0 .. FINISHED-1`` are finished containers of earlier jobs
    (registered, unplaced) when ``with_history``; the next six belong to a
    running job placed on servers 0-5; the new job's containers follow.
    Ids are the same with and without the history.
    """
    topology = build_tree(TreeConfig(depth=2, fanout=4, redundancy=2))
    cluster = ClusterState(topology)
    if with_history:
        for cid in range(FINISHED):
            kind = TaskKind.MAP if cid % 3 else TaskKind.REDUCE
            cluster.add_container(
                Container(cid, UNIT, TaskRef(1 + cid // 6, kind, cid % 6))
            )
    running = list(range(FINISHED, FINISHED + 6))
    for i, cid in enumerate(running):
        kind = TaskKind.MAP if i < 4 else TaskKind.REDUCE
        cluster.add_container(
            Container(cid, UNIT, TaskRef(500, kind, i % 4), server_id=i)
        )
    job = make_job(job_id=501, num_maps=6, num_reduces=2, skew=0.5)
    first = FINISHED + len(running)
    map_ids = list(range(first, first + job.num_maps))
    reduce_ids = list(range(first + job.num_maps, first + job.num_maps + 2))
    containers = [
        Container(cid, UNIT, TaskRef(job.job_id, TaskKind.MAP, i))
        for i, cid in enumerate(map_ids)
    ] + [
        Container(cid, UNIT, TaskRef(job.job_id, TaskKind.REDUCE, i))
        for i, cid in enumerate(reduce_ids)
    ]
    flows = build_flows(job, map_ids, reduce_ids, rng=np.random.default_rng(seed))
    taa = TAAInstance(topology, containers, flows, cluster=cluster)
    return taa, map_ids, reduce_ids, running


def all_servers(cluster: ClusterState) -> dict[int, int | None]:
    return {c.container_id: c.server_id for c in cluster.containers()}


@pytest.mark.parametrize("seed", range(6))
def test_wave_ignores_history(seed, monkeypatch):
    bare, *_ = planning_instance(with_history=False, seed=seed)
    taa, map_ids, reduce_ids, running = planning_instance(True, seed)
    wave = map_ids + reduce_ids
    before = all_servers(taa.cluster)
    expected = HitOptimizer(bare, HitConfig(seed=seed)).optimize_initial_wave(wave)
    with observe(checker=None), monkeypatch.context() as patch:
        forbid_whole_cluster_scans(patch)
        optimizer = HitOptimizer(taa, HitConfig(seed=seed))
        result = optimizer.optimize_initial_wave(wave)
        subsequent = optimizer.optimize_subsequent_wave(map_ids)
    assert result.cost_trace == expected.cost_trace
    assert result.placement == expected.placement
    assert sorted(result.placement) == sorted(wave)
    assert sorted(subsequent.placement) == sorted(map_ids)

    after = all_servers(taa.cluster)
    outside = set(before) - set(wave)
    assert {c: after[c] for c in outside} == {c: before[c] for c in outside}
    assert all(after[c] is None for c in range(FINISHED))
    assert [after[c] for c in running] == list(range(6))
    taa.cluster.validate()


def test_some_seed_restores_a_regressed_placement(monkeypatch):
    """Keeps the scoped ``_restore`` path covered by the test above."""
    restored = []
    restore = HitOptimizer._restore

    def recording(self, placement):
        restored.append(sorted(placement))
        restore(self, placement)

    monkeypatch.setattr(HitOptimizer, "_restore", recording)
    waves = []
    for seed in range(6):
        taa, map_ids, reduce_ids, _ = planning_instance(True, seed)
        waves.append(sorted(map_ids + reduce_ids))
        HitOptimizer(taa, HitConfig(seed=seed)).optimize_initial_wave(
            map_ids + reduce_ids
        )
    assert restored
    assert all(placement in waves for placement in restored)


def test_stable_match_ignores_history(monkeypatch):
    taa, map_ids, reduce_ids, _ = planning_instance(with_history=True, seed=0)
    HitOptimizer(taa, HitConfig(seed=0)).random_initial_placement(
        map_ids + reduce_ids
    )
    taa.install_all_policies()
    preferences = build_preference_matrix(taa, container_ids=map_ids)
    with observe(checker=None), monkeypatch.context() as patch:
        forbid_whole_cluster_scans(patch)
        result = stable_match(preferences, taa.cluster)
        assert find_blocking_pairs(result, preferences, taa.cluster) == []
    assert set(result.assignment) | set(result.unmatched) == set(map_ids)


# --------------------------------------------------- fixed-load equivalence
FRACTIONS = (0.1, 0.3, 0.7)


def global_scan_fixed_load(cluster, in_matrix, server_index):
    """The fixed-load formula ``stable_match`` used before it went per
    server: one ascending-id pass over every container of the cluster."""
    zero = Resources.zero()
    fixed_used: dict[int, Resources] = {}
    for other in cluster.containers():
        sid = other.server_id
        if other.container_id in in_matrix or sid is None:
            continue
        if sid in server_index:
            fixed_used[sid] = fixed_used.get(sid, zero) + other.demand
    return fixed_used


def fractional_case(seed: int):
    """Servers pre-loaded with fractional fixed containers, placed in a
    shuffled order, plus a matrix of containers sharing one demand."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(3, 7))
    fixed = int(rng.integers(m, 4 * m))
    n = int(rng.integers(2, 10))
    demands = [float(rng.choice(FRACTIONS)) for _ in range(fixed)]
    demands += [float(rng.choice(FRACTIONS))] * n
    cluster = make_cluster([2.0] * m, demands)
    for cid in rng.permutation(fixed).tolist():
        servers = [s for s in rng.permutation(m).tolist() if cluster.fits(cid, s)]
        if servers:
            cluster.place(cid, servers[0])
    matrix_ids = tuple(range(fixed, fixed + n))
    preferences = PreferenceMatrix(
        server_ids=tuple(range(m)),
        container_ids=matrix_ids,
        cost=rng.uniform(0.0, 10.0, size=(m, n)),
        current_cost=np.where(
            rng.random(n) < 0.5, rng.uniform(0.0, 12.0, n), np.inf
        ),
    )
    return preferences, cluster


@pytest.mark.parametrize("seed", range(80))
def test_fixed_load_matches_global_scan(seed, monkeypatch):
    preferences, cluster = fractional_case(seed)
    in_matrix = set(preferences.container_ids)
    expected = global_scan_fixed_load(cluster, in_matrix, preferences.server_index)

    # Per proposed server, the fixed load is bit-identical to the scan's.
    computed: dict[int, Resources] = {}
    load_excluding = ClusterState.load_excluding

    def recording(self, server_id, excluded):
        load = load_excluding(self, server_id, excluded)
        computed[server_id] = load
        return load

    monkeypatch.setattr(ClusterState, "load_excluding", recording)
    result = stable_match(preferences, cluster)
    assert computed
    for sid, load in computed.items():
        scan = expected.get(sid, Resources.zero())
        assert load.as_tuple() == scan.as_tuple()
        assert (cluster.capacity(sid) - load).as_tuple() == (
            cluster.capacity(sid) - scan
        ).as_tuple()

    # The matching over the scan's capacities is the same matching.
    monkeypatch.setattr(
        ClusterState,
        "load_excluding",
        lambda self, sid, excluded: expected.get(sid, Resources.zero()),
    )
    reference = stable_match(preferences, cluster)
    assert result.assignment == reference.assignment
    assert result.unmatched == reference.unmatched
    monkeypatch.undo()
    assert find_blocking_pairs(result, preferences, cluster) == []
