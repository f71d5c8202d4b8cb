"""Incremental-vs-full allocator equivalence (the bit-identity contract).

The incremental water-filling allocator refills only the sharing-graph
component(s) touched since the last recompute.  Its correctness claim is not
"close enough" but **bit-identical**: every flow rate, every aggregate
resource load, every completion horizon must match a full progressive fill
byte for byte, whatever sequence of add/remove/reroute/park-resume churn
preceded it and wherever the fallback threshold happens to sit.  These tests
drive randomized op sequences across Tree/FatTree/VL2 fabrics against
mirrored networks in every allocator mode, and run whole simulations under
``network_incremental`` True/False expecting byte-identical records.

Both modes share one CSR assembly and one filling loop, so mode-vs-mode
comparisons cannot catch an error they have in common.  The module therefore
also keeps the pre-``incidence_csr`` fill (``np.unique`` relabel plus an
int64 stable argsort) verbatim as an independent oracle, unit-tests
``incidence_csr`` against that assembly (including keys too wide for NumPy's
radix sort), and pins the closure walk's early exit at the fallback
threshold.

Also here: the degenerate-capacity regression for the ``level > 0`` drain
guard (zero-capacity resources must pin their flows at exactly 0.0 without
perturbing any other resource's remaining capacity).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultKind, FaultSpec
from repro.mapreduce import WorkloadGenerator
from repro.schedulers import make_scheduler
from repro.simulator import FlowNetwork, MapReduceSimulator, SimulationConfig
from repro.simulator.network import incidence_csr
from repro.speculation import SpeculationConfig
from repro.topology import (
    FatTreeConfig,
    Link,
    Server,
    Switch,
    Tier,
    Topology,
    TreeConfig,
    VL2Config,
    build_fattree,
    build_tree,
    build_vl2,
)
from repro.topology.routing import enumerate_paths


def make_topology(kind: str) -> Topology:
    if kind == "tree":
        return build_tree(TreeConfig(depth=2, fanout=3, redundancy=2))
    if kind == "fattree":
        return build_fattree(FatTreeConfig(k=4))
    return build_vl2(VL2Config(num_intermediate=2, num_aggregation=2,
                               num_tor=4, servers_per_tor=2))


TOPOLOGIES = ("tree", "fattree", "vl2")

#: Allocator variants compared against the full-recompute reference: never
#: fall back (pure component refills), always fall back (pure full refills
#: through the incremental bookkeeping), and the default mixed regime.
VARIANTS = (
    {"incremental": True, "incremental_threshold": 10.0},
    {"incremental": True, "incremental_threshold": 0.0},
    {"incremental": True},
)


def assert_networks_bit_identical(ref: FlowNetwork, other: FlowNetwork) -> None:
    ref_flows = {f.flow_id: f for f in ref.active_flows}
    other_flows = {f.flow_id: f for f in other.active_flows}
    assert ref_flows.keys() == other_flows.keys()
    fids = sorted(ref_flows)
    ref_rates = np.array([ref_flows[fid].rate for fid in fids])
    other_rates = np.array([other_flows[fid].rate for fid in fids])
    assert ref_rates.tobytes() == other_rates.tobytes()
    ref_rem = np.array([ref_flows[fid].remaining for fid in fids])
    other_rem = np.array([other_flows[fid].remaining for fid in fids])
    assert ref_rem.tobytes() == other_rem.tobytes()
    assert ref.resource_rates().tobytes() == other.resource_rates().tobytes()
    assert ref.completed_flows() == other.completed_flows()
    ref_t = ref.time_to_next_completion()
    other_t = other.time_to_next_completion()
    if ref_t is None:
        assert other_t is None
    else:
        assert np.float64(ref_t).tobytes() == np.float64(other_t).tobytes()


def churn_sequence(nets, topology, seed, n_ops):
    """Drive an identical random op sequence through every mirrored net."""
    rng = np.random.default_rng(seed)
    servers = list(topology.server_ids)
    live: dict[int, tuple[tuple[int, ...], float]] = {}
    next_fid = 0
    now = 0.0
    for _ in range(n_ops):
        op = rng.random()
        if op < 0.45 or not live:
            src, dst = rng.choice(servers, size=2, replace=False)
            path = topology.shortest_path(int(src), int(dst))
            size = float(rng.uniform(1.0, 50.0))
            for net in nets:
                net.add_flow(next_fid, path, size, now=now)
            live[next_fid] = (path, size)
            next_fid += 1
        elif op < 0.65:
            fid = int(rng.choice(sorted(live)))
            for net in nets:
                net.remove_flow(fid)
            del live[fid]
        elif op < 0.80:
            fid = int(rng.choice(sorted(live)))
            path, _ = live[fid]
            candidates = enumerate_paths(
                topology, path[0], path[-1], slack=1, limit=16
            )
            new_path = candidates[int(rng.integers(len(candidates)))]
            for net in nets:
                net.reroute_flow(fid, new_path)
            live[fid] = (new_path, live[fid][1])
        elif op < 0.90:
            # Park-resume: remove, then re-add preserving remaining bytes
            # (the fault-recovery round trip).
            fid = int(rng.choice(sorted(live)))
            removed = [net.remove_flow(fid) for net in nets]
            path, size = live.pop(fid)
            remaining = removed[0].remaining
            if 0.0 < remaining <= size:
                for net in nets:
                    net.add_flow(fid, path, size, now=now, remaining=remaining)
                live[fid] = (path, size)
        else:
            dt = float(rng.uniform(0.0, 0.5))
            now += dt
            for net in nets:
                net.advance(dt)
            completed = nets[0].completed_flows()
            for fid in completed:
                for net in nets:
                    net.remove_flow(fid)
                live.pop(fid, None)
        for net in nets:
            net.recompute_rates()
        yield


class TestIncrementalEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(TOPOLOGIES))
    def test_property_churn_is_bit_identical(self, seed, kind):
        """Random add/remove/reroute/park-resume churn: every allocator
        variant stays bit-identical to the full recompute after each op."""
        topology = make_topology(kind)
        full = FlowNetwork(topology, incremental=False)
        others = [FlowNetwork(topology, **kw) for kw in VARIANTS]
        for _ in churn_sequence([full, *others], topology, seed, n_ops=40):
            for other in others:
                assert_networks_bit_identical(full, other)

    def test_threshold_fallback_is_transparent(self):
        """Crossing the fallback threshold mid-sequence changes nothing."""
        topology = make_topology("fattree")
        full = FlowNetwork(topology, incremental=False)
        # Threshold 0.4: early ops refill components, dense phases fall back.
        mixed = FlowNetwork(topology, incremental=True,
                            incremental_threshold=0.4)
        for _ in churn_sequence([full, mixed], topology, seed=7, n_ops=80):
            assert_networks_bit_identical(full, mixed)

    def test_emptied_resources_snap_to_exact_zero(self):
        """Removing every flow leaves the aggregate array all-+0.0 — the
        incremental removal refunds must not strand float drift."""
        topology = make_topology("tree")
        net = FlowNetwork(topology)
        servers = list(topology.server_ids)
        rng = np.random.default_rng(3)
        for fid in range(20):
            src, dst = rng.choice(servers, size=2, replace=False)
            net.add_flow(fid, topology.shortest_path(int(src), int(dst)),
                         float(rng.uniform(1.0, 9.0)))
        net.recompute_rates()
        for fid in range(20):
            net.remove_flow(fid)
        net.recompute_rates()
        rates = net.resource_rates()
        assert rates.tobytes() == np.zeros_like(rates).tobytes()


def reference_csr(flat_global, lengths):
    """The CSR assembly ``incidence_csr`` replaced, kept verbatim: sort the
    global ids with ``np.unique`` and group flows with an int64 stable
    argsort."""
    res_ids, flat_local = np.unique(flat_global, return_inverse=True)
    n_res = res_ids.size
    n_flows = lengths.size
    flow_col = np.repeat(np.arange(n_flows), lengths)
    counts = np.bincount(flat_local, minlength=n_res)
    res_ptr = np.zeros(n_res + 1, dtype=np.int64)
    np.cumsum(counts, out=res_ptr[1:])
    res_flows = flow_col[np.argsort(flat_local, kind="stable")]
    return res_ids, flat_local, flow_col, counts, res_ptr, res_flows


def reference_fill(net: FlowNetwork) -> tuple[np.ndarray, ...]:
    """Full progressive fill of ``net``'s active flows as the allocator ran
    it before ``incidence_csr``: ``(slots, rates, aggregate)``.

    Reads each flow's resource row (not the padded incidence matrix) and
    shares no code with the allocator, so it checks both modes at once.
    """
    slots = np.array([f._slot for f in net._flows.values()], dtype=np.int64)
    rows = [net._slot_res[slot] for slot in slots]
    lengths = np.array([row.size for row in rows], dtype=np.int64)
    flat_global = np.concatenate(rows)
    res_ids, flat_local, flow_col, counts, res_ptr, res_flows = reference_csr(
        flat_global, lengths
    )
    n_res = res_ids.size
    n_flows = slots.size
    flow_ptr = np.zeros(n_flows + 1, dtype=np.int64)
    np.cumsum(lengths, out=flow_ptr[1:])
    remaining = net.resource_capacities[res_ids].copy()
    frozen = np.zeros(n_flows, dtype=bool)
    rates = np.zeros(n_flows, dtype=np.float64)
    unfrozen = n_flows
    with np.errstate(divide="ignore", invalid="ignore"):
        fair = np.where(counts > 0, remaining / counts, np.inf)
        while unfrozen:
            bottleneck = int(fair.argmin())
            level = fair[bottleneck]
            members = res_flows[res_ptr[bottleneck] : res_ptr[bottleneck + 1]]
            to_freeze = members[~frozen[members]]
            rates[to_freeze] = level
            frozen[to_freeze] = True
            unfrozen -= to_freeze.size
            lens = lengths[to_freeze]
            seg_end = np.cumsum(lens)
            idx = np.repeat(
                flow_ptr[to_freeze] - (seg_end - lens), lens
            ) + np.arange(seg_end[-1])
            drained = np.bincount(flat_local[idx], minlength=n_res)
            counts -= drained
            touched = np.flatnonzero(drained)
            if level > 0.0:
                remaining[touched] = np.maximum(
                    remaining[touched] - level * drained[touched], 0.0
                )
            tc = counts[touched]
            fair[touched] = np.where(tc > 0, remaining[touched] / tc, np.inf)
    agg = np.zeros(len(net.resource_capacities), dtype=np.float64)
    agg[res_ids] = np.bincount(
        flat_local, weights=rates[flow_col], minlength=n_res
    )
    return slots, rates, agg


class TestReferenceOracle:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), kind=st.sampled_from(TOPOLOGIES))
    def test_churn_matches_pre_change_fill(self, seed, kind):
        """After every churn op, every allocator mode's rates and aggregate
        loads are byte-equal to the pre-change full fill."""
        topology = make_topology(kind)
        nets = [FlowNetwork(topology, incremental=False)]
        nets += [FlowNetwork(topology, **kw) for kw in VARIANTS]
        for _ in churn_sequence(nets, topology, seed, n_ops=40):
            if not nets[0]._flows:
                continue
            for net in nets:
                slots, rates, agg = reference_fill(net)
                assert net._rate_arr[slots].tobytes() == rates.tobytes()
                assert net._agg.tobytes() == agg.tobytes()


class TestIncidenceCSR:
    """``incidence_csr`` against the ``np.unique``/argsort assembly."""

    @staticmethod
    def check(rows: np.ndarray, m: int) -> None:
        mark = np.zeros(m + 1, dtype=bool)
        lut = np.empty(m + 1, dtype=np.intp)
        res_ids, local, counts, res_ptr, res_flows = incidence_csr(
            rows, mark, lut
        )
        pad = rows != m
        ref_ids, ref_local, _, ref_counts, ref_ptr, ref_flows = reference_csr(
            rows[pad], pad.sum(axis=1)
        )
        assert res_ids.tobytes() == ref_ids.tobytes()
        assert local[pad].tobytes() == ref_local.tobytes()
        assert (local[~pad] == res_ids.size).all()
        assert counts.tobytes() == ref_counts.tobytes()
        assert res_ptr.tobytes() == ref_ptr.tobytes()
        assert res_flows.tobytes() == ref_flows.tobytes()
        assert not mark.any()

    def test_keys_wider_than_16_bits(self):
        """> 65,535 component resources: the keys need 32 bits, so the
        stable sort is NumPy's non-radix one."""
        m = 70_000
        n_flows, width = 10_000, 12
        rng = np.random.default_rng(11)
        lengths = rng.integers(4, width + 1, size=n_flows)
        lengths[0] = width  # a full-width row: no padding at all
        total = int(lengths.sum())
        flat = np.concatenate(
            [rng.permutation(m), rng.integers(0, m, size=total - m)]
        )
        rows = np.full((n_flows, width), m, dtype=np.int64)
        rows[np.arange(width) < lengths[:, None]] = flat
        n_res = np.unique(flat).size
        assert n_res > 65_535
        assert np.min_scalar_type(n_res).itemsize > 2
        self.check(rows, m)

    def test_single_resource_component(self):
        m = 40
        rows = np.array([[17, m, m], [17, m, m], [17, m, m]], dtype=np.int64)
        self.check(rows, m)

    def test_full_width_rows(self):
        m = 9
        rows = np.array([[8, 0, 3], [3, 5, 0]], dtype=np.int64)
        self.check(rows, m)


def chain_topology(n_servers: int, n_chains: int = 1) -> Topology:
    """``n_chains`` disjoint switch chains; server ``i`` of a chain hangs
    off switch ``i``.  A flow between neighbouring servers shares a switch
    only with the flows to either side, so the closure walk reaches one
    more flow per round."""
    servers, switches, links = [], [], []
    for c in range(n_chains):
        for i in range(n_servers):
            s, w = chain_path(c, i, n_servers, n_chains)[:2]
            servers.append(Server(s, f"s{s}"))
            switches.append(Switch(w, f"w{w}", Tier.ACCESS, 100.0))
            links.append(Link(s, w, 10.0))
            if i:
                links.append(Link(w - 1, w, 10.0))
    return Topology(servers, switches, links)


def chain_path(
    chain: int, i: int, n_servers: int, n_chains: int = 1
) -> tuple[int, ...]:
    """Server ``i`` -> server ``i + 1`` of ``chain`` (servers are numbered
    before switches)."""
    s = chain * n_servers + i
    w = n_chains * n_servers + s
    return (s, w, w + 1, s + 1)


def walk_rounds(net: FlowNetwork, seeds: set[int]) -> list[int]:
    """Cumulative flows reached after each round of the closure walk,
    recomputed with plain Python sets."""
    visited = set(seeds)
    reached: set[int] = set()
    counts: list[int] = []
    while True:
        new = {
            fid for fid, f in net._flows.items()
            if fid not in reached and visited.intersection(f.resources)
        }
        if not new:
            return counts
        reached |= new
        for fid in new:
            visited.update(net._flows[fid].resources)
        counts.append(len(reached))


class TestClosureEarlyExit:
    N = 10  # servers per chain: 9 flows per chain

    def chain_nets(self, threshold: float, n_chains: int = 1):
        topology = chain_topology(self.N, n_chains)
        full = FlowNetwork(topology, incremental=False)
        inc = FlowNetwork(topology, incremental_threshold=threshold)
        fid = 0
        for chain in range(n_chains):
            for i in range(self.N - 1):
                path = chain_path(chain, i, self.N, n_chains)
                for net in (full, inc):
                    net.add_flow(fid, path, 5.0)
                fid += 1
        for net in (full, inc):
            net.recompute_rates()
        return full, inc

    @pytest.mark.parametrize(
        "threshold, exit_round", [(0.15, 1), (0.45, 3), (0.85, 7)]
    )
    def test_exit_round_is_bit_identical(self, threshold, exit_round):
        """A fresh flow at the chain's head dirties resources shared with
        one old flow; the walk passes the threshold in round
        ``exit_round`` and the fallback fill matches a full recompute."""
        full, inc = self.chain_nets(threshold)
        for net in (full, inc):
            net.add_flow(100, chain_path(0, 0, self.N), 3.0)
        seeds = set(inc._seed_res)
        rounds = walk_rounds(inc, seeds)
        limit = threshold * len(inc._flows)
        assert next(r for r, n in enumerate(rounds, 1) if n > limit) == (
            exit_round
        )
        expected = inc._ordered()[0].copy()
        assert inc._closure_slots(seeds).tobytes() == expected.tobytes()
        for net in (full, inc):
            net.recompute_rates()
        assert_networks_bit_identical(full, inc)

    def stacked_nets(self, threshold: float, extra: int):
        """One chain plus ``extra`` more flows on its first hop's path, the
        last of them just added (and not yet recomputed).  Switch ``w1``
        then carries ``extra + 2`` flows: the stacked ones and flows 0 and
        1 of the chain."""
        full, inc = self.chain_nets(threshold)
        for fid in range(100, 100 + extra):
            for net in (full, inc):
                if fid > 100:
                    net.recompute_rates()
                net.add_flow(fid, chain_path(0, 0, self.N), 3.0)
        return full, inc

    def closure_with_walk_reads(self, net, seeds):
        """``_closure_slots(seeds)`` and how often the walk read the
        incidence matrix (0 when it decided without walking)."""
        reads = []
        real = net._inc

        class Spy:
            def __getitem__(self, key):
                reads.append(key)
                return real[key]

        net._inc = Spy()
        try:
            slots = net._closure_slots(seeds)
        finally:
            net._inc = real
        return slots, len(reads)

    def test_seed_resource_over_threshold_skips_the_walk(self):
        """A seed resource alone carries more than the threshold: the full
        fill is returned before any walk, and it is the walk's decision."""
        full, inc = self.stacked_nets(0.4, extra=3)
        seeds = set(inc._seed_res)
        limit = 0.4 * len(inc._flows)
        assert inc._res_nflows[sorted(seeds)].max() == 5 > limit
        assert walk_rounds(inc, seeds)[0] > limit
        expected = inc._ordered()[0].copy()
        slots, reads = self.closure_with_walk_reads(inc, seeds)
        assert reads == 0
        assert slots.tobytes() == expected.tobytes()
        for net in (full, inc):
            net.recompute_rates()
        assert_networks_bit_identical(full, inc)

    def test_seed_resource_at_threshold_still_walks(self):
        """At exactly the threshold the seed's flows do not decide it: the
        walk runs and passes the threshold one round later."""
        full, inc = self.stacked_nets(0.5, extra=5)
        seeds = set(inc._seed_res)
        limit = 0.5 * len(inc._flows)
        assert inc._res_nflows[sorted(seeds)].max() == 7 == limit
        rounds = walk_rounds(inc, seeds)
        assert rounds[0] == 7 and rounds[1] > limit
        expected = inc._ordered()[0].copy()
        slots, reads = self.closure_with_walk_reads(inc, seeds)
        assert reads == 1
        assert slots.tobytes() == expected.tobytes()
        for net in (full, inc):
            net.recompute_rates()
        assert_networks_bit_identical(full, inc)

    def test_sub_threshold_closure_is_the_component_in_seq_order(self):
        """Below the threshold the walk returns exactly the seeded chain's
        flows, ordered by insertion even when recycled slots scramble the
        slot order."""
        full, inc = self.chain_nets(0.6, n_chains=2)
        # Park-resume three chain-0 flows in reverse: their new slots come
        # off the freelist, so slot order no longer follows insertion.
        for fid in (2, 1, 0):
            for net in (full, inc):
                net.remove_flow(fid)
                net.recompute_rates()
        for fid in (2, 1, 0):
            for net in (full, inc):
                net.add_flow(fid, chain_path(0, fid, self.N, 2), 5.0)
        seeds = set(inc._seed_res)
        slots = inc._closure_slots(seeds)
        chain0 = [f for f in inc._flows.values() if f.flow_id < self.N - 1]
        expected = sorted(chain0, key=lambda f: inc._slot_seq[f._slot])
        assert slots.tolist() == [f._slot for f in expected]
        assert slots.tolist() != sorted(slots.tolist())
        assert walk_rounds(inc, seeds)[-1] == len(chain0)
        assert len(chain0) <= 0.6 * len(inc._flows)
        for net in (full, inc):
            net.recompute_rates()
        assert_networks_bit_identical(full, inc)


def _faults(topology):
    switch = topology.switch_ids[0]
    return (
        FaultSpec(0.4, FaultKind.SERVER_FAIL, 2),
        FaultSpec(0.6, FaultKind.TASK_SLOWDOWN, 5, factor=5.0, duration=1.5),
        FaultSpec(0.8, FaultKind.SWITCH_FAIL, switch),
        FaultSpec(1.3, FaultKind.SWITCH_RECOVER, switch),
        FaultSpec(1.4, FaultKind.SERVER_RECOVER, 2),
    )


def _run(seed: int, scenario: str, incremental: bool):
    scheduler = "hit-online"
    topology = build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )
    extra = {}
    if scenario == "capacity-fattree":
        # Capacity spreads shuffles across the core, so dirty closures
        # cover the fabric and recomputes take the full-fill fallback.
        scheduler = "capacity"
        topology = build_fattree(FatTreeConfig(k=4))
    elif scenario != "plain":
        extra = {"faults": _faults(topology), "max_task_retries": 10}
        if scenario == "faults+speculation":
            extra["speculation"] = SpeculationConfig()
    config = SimulationConfig(
        seed=seed,
        server_speed_spread=0.2,
        network_incremental=incremental,
        **extra,
    )
    sim = MapReduceSimulator(
        topology, make_scheduler(scheduler, seed=seed), jobs_for(seed), config
    )
    metrics = sim.run()
    return sim, metrics


def jobs_for(seed: int):
    return WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(4, interarrival=0.3)


def _astuples(records):
    return [dataclasses.astuple(r) for r in records]


class TestEngineByteIdentity:
    """Whole-simulation equivalence of the allocator modes: flow reroutes,
    parks and resumes all route through the incremental path, so a full run
    exercises it far beyond what unit churn can."""

    @pytest.mark.parametrize(
        "scenario",
        ("plain", "faults", "faults+speculation", "capacity-fattree"),
    )
    @pytest.mark.parametrize("seed", [0, 3])
    def test_runs_byte_identical(self, scenario, seed, monkeypatch):
        fallbacks = []
        closure = FlowNetwork._closure_slots

        def counting_closure(net, seeds):
            slots = closure(net, seeds)
            if slots.size > net.incremental_threshold * len(net._flows):
                fallbacks.append(slots.size)
            return slots

        monkeypatch.setattr(FlowNetwork, "_closure_slots", counting_closure)
        inc_sim, inc = _run(seed, scenario, incremental=True)
        if scenario == "capacity-fattree":
            assert fallbacks, "no recompute reached the full-fill fallback"
        full_sim, full = _run(seed, scenario, incremental=False)
        assert _astuples(inc.jobs) == _astuples(full.jobs)
        assert _astuples(inc.tasks) == _astuples(full.tasks)
        assert _astuples(inc.flows) == _astuples(full.flows)
        assert inc_sim.events_processed == full_sim.events_processed
        assert inc.summary() == full.summary()


class TestDegenerateCapacity:
    """Zero/drained-capacity resources and the ``level > 0`` drain guard."""

    @staticmethod
    def _dumbbell_with_dead_switch():
        """s0,s1 -- w4(capacity zeroed) -- w5 -- s2,s3, plus a private
        s0-w6-s1 leg through a healthy switch that must stay unperturbed.

        ``Topology`` rejects non-positive capacities at construction, so the
        degenerate resource is injected straight into the allocator's
        capacity array — exactly the state a zero-capacity resource would
        put it in.
        """
        servers = [Server(i, f"s{i}") for i in range(4)]
        switches = [
            Switch(4, "w4", Tier.ACCESS, 100.0),
            Switch(5, "w5", Tier.ACCESS, 100.0),
            Switch(6, "w6", Tier.ACCESS, 100.0),
        ]
        links = [
            Link(0, 4, 10.0),
            Link(1, 4, 10.0),
            Link(4, 5, 10.0),
            Link(5, 2, 10.0),
            Link(5, 3, 10.0),
            Link(0, 6, 10.0),
            Link(6, 1, 10.0),
        ]
        net = FlowNetwork(Topology(servers, switches, links))
        net._caps[net._switch_resource[4]] = 0.0
        return net

    def test_zero_capacity_switch_pins_flows_to_exact_zero(self):
        net = self._dumbbell_with_dead_switch()
        net.add_flow(0, (0, 4, 5, 2), 100.0)
        net.add_flow(1, (0, 6, 1), 100.0)
        net.recompute_rates()
        rates = {f.flow_id: f.rate for f in net.active_flows}
        assert rates[0] == 0.0
        assert np.float64(rates[0]).tobytes() == np.float64(0.0).tobytes()
        # The healthy leg is untouched by the degenerate bottleneck: its
        # flow takes the full link bandwidth, bit-exactly.
        assert rates[1] == 10.0

    def test_zero_capacity_survives_repeated_churn(self):
        """Churning flows on/off the dead switch never lets drift leak into
        other resources (the guard skips the 0.0-level drain outright)."""
        net = self._dumbbell_with_dead_switch()
        net.add_flow(0, (0, 6, 1), 100.0)
        for round_ in range(25):
            fid = 100 + round_
            net.add_flow(fid, (0, 4, 5, 2), 7.0)
            net.recompute_rates()
            assert net.active_flows[-1].rate == 0.0
            assert net.active_flows[0].rate == 10.0
            net.remove_flow(fid)
            net.recompute_rates()
        assert net.switch_utilisation(4) == 0.0
        assert net.switch_utilisation(6) == pytest.approx(10.0 / 100.0)

    def test_fully_drained_resource_freezes_leftover_flows_at_zero(self):
        """A resource drained to exactly its capacity by earlier freezes
        yields level 0.0 for its stragglers — they must read exactly 0.0."""
        servers = [Server(0, "s0"), Server(1, "s1"), Server(2, "s2")]
        switches = [Switch(3, "w3", Tier.ACCESS, 100.0)]
        # s0-w3 carries two flows; s1-w3 carries one of them alone and is
        # narrower, so that flow freezes first and exactly exhausts s0-w3.
        links = [Link(0, 3, 10.0), Link(3, 1, 5.0), Link(3, 2, 5.0)]
        net = FlowNetwork(Topology(servers, switches, links))
        net.add_flow(0, (0, 3, 1), 100.0)
        net.add_flow(1, (0, 3, 2), 100.0)
        net.recompute_rates()
        rates = {f.flow_id: f.rate for f in net.active_flows}
        assert rates[0] == 5.0
        assert rates[1] == 5.0
        # Both directed halves of s0-w3 sum to 10.0 == bandwidth: saturated
        # with zero drift.
        assert net.utilisation_by_link()[(0, 3)] == 1.0


def dict_ordered(net: FlowNetwork) -> tuple[np.ndarray, np.ndarray]:
    """The flow-dict ``_ordered`` the slot arrays replaced, kept verbatim:
    flow ids and slots in the dict's insertion order."""
    n = len(net._flows)
    fids = np.fromiter(net._flows.keys(), dtype=np.int64, count=n)
    slots = np.fromiter(
        (f._slot for f in net._flows.values()), dtype=np.int64, count=n
    )
    return slots, fids


class TestSlotOrder:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", TOPOLOGIES)
    def test_order_matches_flow_dict(self, kind, seed):
        """After every add, remove, reroute and park-resume, the order built
        from the slot arrays equals the flow dict's insertion order."""
        topology = make_topology(kind)
        net = FlowNetwork(topology)
        for _ in churn_sequence([net], topology, seed, n_ops=150):
            slots, fids = net._ordered()
            ref_slots, ref_fids = dict_ordered(net)
            assert slots.dtype == ref_slots.dtype
            assert slots.tolist() == ref_slots.tolist()
            assert fids.tolist() == ref_fids.tolist()
