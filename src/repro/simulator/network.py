"""Flow-level network model with max-min fair bandwidth sharing.

Replaces the paper's Mininet + D-ITG measurement plane.  Active shuffle
flows share the fabric; each flow's instantaneous rate is the classic
max-min fair allocation (progressive filling) over two families of
capacitated resources:

* **directed links** — each undirected physical link offers its bandwidth
  independently per direction (full duplex);
* **switches** — a switch's ``capacity`` bounds the total rate it forwards,
  which is the paper's fifth constraint of Eq 3 and the mechanism behind the
  overloaded-``w_1`` motivation of Figure 2.

The model is a fluid simulation: rates stay constant between events; the
engine advances remaining sizes by ``rate * dt`` and asks for the earliest
completion.  A per-flow *packet delay* estimate (Figure 7b's metric) is
derived from an M/M/1-style utilisation curve on the switches the flow
traverses, evaluated when the flow starts.

Allocator architecture (the datacenter-scale rework):

Flow state lives in contiguous slot arrays (``remaining``/``rate``/per-slot
resource index rows) rather than per-object Python attributes, so
``advance``/``time_to_next_completion``/``completed_flows`` are single
vectorised passes.  ``recompute_rates`` is **incremental**: every
``add_flow``/``remove_flow``/``reroute_flow`` records the touched resource
indices as *seeds*, and the next recompute runs progressive filling only
over the connected component(s) of the flow↔resource sharing graph reachable
from those seeds.  Max-min fairness decomposes exactly over connected
components — a component's levels, freeze order and ``remaining -= level *
counts`` updates never read or write another component's state (the
cross-component subtractions of the monolithic fill are exact float no-ops,
``x - level * 0 == x``), and the bottleneck ``argmin`` tie-break (lowest
resource index) is preserved because component resources are kept sorted by
global index — so the restricted fill is **bit-identical** to a full
recompute (property-tested in ``tests/simulator/test_network_incremental``).
When the dirty closure exceeds ``incremental_threshold`` of the active
flows, the allocator falls back to one full fill, which is transparent for
the same reason.  The closure only grows, so the walk stops at the first
round whose running count passes the threshold instead of finishing a
component it would then discard.

Each fill assembles its CSR views without sorting resource ids
(:func:`incidence_csr`): the component's resources are marked in a
boolean array over the global ids and relabelled through a lookup table,
which yields the ascending order ``np.unique`` would; the flows are then
grouped by resource with a stable argsort whose keys are narrowed to the
smallest dtype that holds them (NumPy radix-sorts keys of 16 bits or less;
a stable sort's permutation is unique, so the narrowing is exact).

An aggregate per-resource rate array is refreshed from the refilled
component at each recompute (and adjusted incrementally on remove/reroute in
between), serving ``switch_utilisation``/``resource_rates``/
``utilisation_by_*`` in O(1)/O(resources) instead of a per-flow scan — this
is what keeps flow admission (``_estimate_delay``) off the O(switches ×
flows) path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..topology.base import Topology

__all__ = ["ActiveFlow", "FlowNetwork", "DelayModel", "incidence_csr"]

#: Sub-this remaining bytes count as finished (absorbs rate*dt rounding).
_COMPLETION_EPS = 1e-12


def incidence_csr(
    rows: np.ndarray, mark: np.ndarray, lut: np.ndarray
) -> tuple[np.ndarray, ...]:
    """CSR views of a padded flow↔resource incidence, without sorting ids.

    Row ``i`` of ``rows`` holds flow ``i``'s global resource ids, padded with
    the sentinel ``m = mark.size - 1``.  ``mark`` (bool, all-False on entry
    and on return) and ``lut`` (intp) are caller-owned scratch buffers of
    size ``m + 1``.  Returns ``(res_ids, local, counts, res_ptr,
    res_flows)``:

    * ``res_ids`` — the distinct resources, ascending (what ``np.unique``
      returns);
    * ``local`` — ``rows`` relabelled to positions in ``res_ids``, padding
      to ``n_res``;
    * ``counts``/``res_ptr`` — flows per resource and the CSR pointers;
    * ``res_flows`` — the flows grouped by resource, ascending in a group.
    """
    m = mark.size - 1
    mark[rows] = True
    mark[m] = False
    res_ids = np.flatnonzero(mark)
    mark[res_ids] = False
    n_res = res_ids.size
    lut[res_ids] = np.arange(n_res)
    lut[m] = n_res
    local = lut[rows]
    keys = local.ravel()
    counts = np.bincount(keys, minlength=n_res + 1)[:n_res]
    res_ptr = np.zeros(n_res + 1, dtype=np.int64)
    np.cumsum(counts, out=res_ptr[1:])
    # Padding keys (n_res) sort last.  A stable sort's permutation is
    # unique, so narrowing the keys cannot change it; NumPy radix-sorts
    # keys of 16 bits or less.
    order = np.argsort(keys.astype(np.min_scalar_type(n_res)), kind="stable")
    res_flows = order[: res_ptr[-1]] // rows.shape[1]
    return res_ids, local, counts, res_ptr, res_flows


@dataclass(frozen=True)
class DelayModel:
    """Per-packet delay parameters (microseconds).

    ``switch_service_us`` is the nominal per-switch forwarding latency;
    queueing inflates it by ``1 / (1 - rho)`` with utilisation capped at
    ``max_utilisation``; ``link_propagation_us`` adds per-hop wire delay.
    """

    switch_service_us: float = 25.0
    link_propagation_us: float = 2.0
    max_utilisation: float = 0.9


class ActiveFlow:
    """A shuffle flow in flight.

    ``remaining`` and ``rate`` are views into the owning network's slot
    arrays while the flow is active; :meth:`FlowNetwork.remove_flow`
    detaches the object, materialising both values so callers can keep
    reading them after removal (the engine records completion metrics off
    the returned object).
    """

    __slots__ = (
        "flow_id",
        "path",
        "resources",
        "start_time",
        "start_delay_us",
        "num_switches",
        "_net",
        "_slot",
        "_remaining",
        "_rate",
    )

    def __init__(
        self,
        flow_id: int,
        path: tuple[int, ...],
        resources: tuple[int, ...],
        start_time: float,
        num_switches: int,
        net: "FlowNetwork",
        slot: int,
    ) -> None:
        self.flow_id = flow_id
        self.path = path
        self.resources = resources
        self.start_time = start_time
        self.start_delay_us = 0.0
        self.num_switches = num_switches
        self._net: FlowNetwork | None = net
        self._slot = slot
        self._remaining = 0.0
        self._rate = 0.0

    @property
    def remaining(self) -> float:
        net = self._net
        if net is None:
            return self._remaining
        return float(net._rem[self._slot])

    @remaining.setter
    def remaining(self, value: float) -> None:
        net = self._net
        if net is None:
            self._remaining = value
        else:
            net._rem[self._slot] = value

    @property
    def rate(self) -> float:
        net = self._net
        if net is None:
            return self._rate
        return float(net._rate_arr[self._slot])

    @rate.setter
    def rate(self, value: float) -> None:
        net = self._net
        if net is None:
            self._rate = value
        else:
            net._rate_arr[self._slot] = value

    def _detach(self) -> None:
        """Freeze the array-backed fields into the object (on removal)."""
        net = self._net
        if net is not None:
            self._remaining = float(net._rem[self._slot])
            self._rate = float(net._rate_arr[self._slot])
            self._net = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ActiveFlow(flow_id={self.flow_id}, path={self.path}, "
            f"remaining={self.remaining}, rate={self.rate})"
        )


class FlowNetwork:
    """Max-min fair fluid network over a topology.

    ``incremental`` selects the component-restricted allocator (the
    default); ``incremental=False`` forces a full progressive fill on every
    recompute.  Both modes produce bit-identical rates and aggregate
    loads — the flag exists for verification and benchmarking.
    ``incremental_threshold`` is the dirty-closure fraction of active flows
    beyond which an incremental recompute falls back to one full fill.
    """

    def __init__(
        self,
        topology: Topology,
        delay_model: DelayModel | None = None,
        *,
        incremental: bool = True,
        incremental_threshold: float = 0.5,
    ) -> None:
        self.topology = topology
        self.delay_model = delay_model or DelayModel()
        self.incremental = incremental
        self.incremental_threshold = incremental_threshold
        # Resource index space: directed links first, then switches.
        self._link_index: dict[tuple[int, int], int] = {}
        caps: list[float] = []
        for link in topology.links:
            self._link_index[(link.u, link.v)] = len(caps)
            caps.append(link.bandwidth)
            self._link_index[(link.v, link.u)] = len(caps)
            caps.append(link.bandwidth)
        self._switch_resource: dict[int, int] = {}
        for w in topology.switch_ids:
            self._switch_resource[w] = len(caps)
            caps.append(topology.switch(w).capacity)
        self._caps = np.asarray(caps, dtype=np.float64)
        # Nominal capacities; ``_caps`` is ``_base_caps`` scaled by the
        # current per-link degradation factors (fault plane).
        self._base_caps = self._caps.copy()
        # Optional callback mapping a flow id to a human-readable owner
        # description ("job 3 map 7 -> reduce 1"); installed by the engine so
        # unknown-flow/duplicate-flow errors name the owning job/stage.
        self.flow_describer = None  # type: ignore[var-annotated]
        m = len(caps)
        # Aggregate allocated rate per resource (kept in lockstep with the
        # last recompute, minus the rates of flows removed/rerouted since).
        self._agg = np.zeros(m, dtype=np.float64)
        # Active-flow count per resource, for cheap emptiness tests.
        self._res_nflows = np.zeros(m, dtype=np.int64)
        # Scratch for ``incidence_csr``'s dense relabel, allocated once so
        # a small component on a large fabric pays no O(m) allocation.
        self._res_mark = np.zeros(m + 1, dtype=bool)
        self._res_lut = np.empty(m + 1, dtype=np.intp)
        # Slot-array flow state, grown by doubling; a freelist recycles
        # vacated slots so churny workloads stay compact.
        cap0 = 64
        self._rem = np.zeros(cap0, dtype=np.float64)
        self._rate_arr = np.zeros(cap0, dtype=np.float64)
        self._slot_seq = np.zeros(cap0, dtype=np.int64)
        self._slot_fid = np.zeros(cap0, dtype=np.int64)
        self._slot_res: list[np.ndarray | None] = [None] * cap0
        self._slot_flow: list[ActiveFlow | None] = [None] * cap0
        # Padded resource-incidence matrix: row ``s`` holds slot ``s``'s
        # resource indices padded with the sentinel ``m``, so the closure
        # BFS and the fill's CSR assembly run as whole-array gathers
        # instead of per-flow walks; it is as wide as the longest row.
        # ``_in_use`` gates vacated rows (their stale contents are ignored).
        self._inc_stride = 8
        self._inc = np.full((cap0, self._inc_stride), m, dtype=np.int64)
        self._in_use = np.zeros(cap0, dtype=bool)
        self._free: list[int] = []
        self._n_slots = 0
        self._seq = 0
        self._flows: dict[int, ActiveFlow] = {}
        # Dirty-tracking: resources touched since the last recompute.
        self._dirty = False
        self._seed_res: set[int] = set()
        # Lazy caches over the active flow set.
        self._order_slots: np.ndarray | None = None
        self._order_fids: np.ndarray | None = None
        self._active_cache: tuple[ActiveFlow, ...] | None = None

    # ------------------------------------------------------------- resources
    def _path_resources(self, path: Sequence[int]) -> tuple[int, ...]:
        res: list[int] = []
        for a, b in zip(path, path[1:]):
            idx = self._link_index.get((a, b))
            if idx is None:
                raise ValueError(f"hop {a}->{b} is not a physical link")
            res.append(idx)
        for node in path:
            if node in self._switch_resource:
                res.append(self._switch_resource[node])
        return tuple(res)

    @property
    def resource_capacities(self) -> np.ndarray:
        """Capacity per resource index (directed links, then switches).

        Read-only view for verification code; mutating it would corrupt the
        allocator.
        """
        return self._caps

    def set_link_capacity_factor(self, u: int, v: int, factor: float) -> None:
        """Scale the physical link ``u``—``v`` to ``factor`` × nominal.

        Applies to both directed resources of the link (full duplex degrades
        symmetrically).  Factor 0.0 models a dead link (flows still routed
        over it would allocate rate 0.0 — the engine reroutes or parks them
        instead), 1.0 restores nominal bandwidth.  The touched resources are
        seeded dirty so the next recompute refills the affected max-min
        component(s).
        """
        if not 0.0 <= factor <= 1.0:
            raise ValueError(f"link capacity factor must be in [0, 1], got {factor}")
        fwd = self._link_index.get((u, v))
        if fwd is None:
            raise ValueError(f"({u}, {v}) is not a physical link")
        rev = self._link_index[(v, u)]
        for res in (fwd, rev):
            self._caps[res] = self._base_caps[res] * factor
        self._seed_res.update((fwd, rev))
        self._dirty = True

    def link_capacity_factor(self, u: int, v: int) -> float:
        """Current capacity factor of the physical link ``u``—``v``."""
        res = self._link_index.get((u, v))
        if res is None:
            raise ValueError(f"({u}, {v}) is not a physical link")
        base = self._base_caps[res]
        return float(self._caps[res] / base) if base > 0 else 1.0

    def ensure_rates(self) -> None:
        """Recompute max-min rates if the flow set changed since the last
        allocation — lets external checks read consistent rates."""
        if self._dirty:
            self.recompute_rates()

    def switch_utilisation(self, switch_id: int) -> float:
        """Current rate through a switch divided by its capacity.

        Served from the allocator's aggregate-rate array — O(1), not a scan
        over active flows.
        """
        res = self._switch_resource[switch_id]
        cap = self._caps[res]
        return float(self._agg[res] / cap) if cap > 0 else 0.0

    def resource_rates(self) -> np.ndarray:
        """Aggregate allocated rate per resource index (read-only snapshot).

        Index space matches :attr:`resource_capacities` — directed links
        first, then switches.  Callers wanting a *consistent* snapshot (the
        telemetry plane) should call :meth:`ensure_rates` first; this method
        itself never recomputes, so it is side-effect free.
        """
        return self._agg.copy()

    def switch_resource_ids(self, switch_ids: Iterable[int]) -> np.ndarray:
        """Resource indices of the given switches, in the given order."""
        return np.fromiter(
            (self._switch_resource[w] for w in switch_ids), dtype=np.intp
        )

    def link_resource_ids(
        self, links: Iterable[tuple[int, int]]
    ) -> np.ndarray:
        """Resource indices of the given *directed* links ``(u, v)``."""
        return np.fromiter(
            (self._link_index[key] for key in links), dtype=np.intp
        )

    def utilisation(self, resources: np.ndarray) -> np.ndarray:
        """Allocated rate / capacity per resource index (0.0 where the
        capacity is 0) — one gather, no recompute."""
        caps = self._caps[resources]
        out = np.zeros(caps.shape, dtype=np.float64)
        np.divide(self._agg[resources], caps, out=out, where=caps > 0)
        return out

    def utilisation_by_switch(self) -> dict[int, float]:
        """``{switch_id: rate / capacity}`` over every switch of the fabric."""
        ids = tuple(self._switch_resource)
        util = self.utilisation(self.switch_resource_ids(ids))
        return dict(zip(ids, util.tolist()))

    def utilisation_by_link(self) -> dict[tuple[int, int], float]:
        """``{(u, v): rate / bandwidth}`` per *directed* link."""
        keys = tuple(self._link_index)
        util = self.utilisation(self.link_resource_ids(keys))
        return dict(zip(keys, util.tolist()))

    # ------------------------------------------------------------ slot admin
    def _alloc_slot(self) -> int:
        if self._free:
            return self._free.pop()
        slot = self._n_slots
        if slot == len(self._rem):
            new_cap = 2 * len(self._rem)
            for name in (
                "_rem", "_rate_arr", "_slot_seq", "_slot_fid", "_in_use"
            ):
                old = getattr(self, name)
                grown = np.zeros(new_cap, dtype=old.dtype)
                grown[: len(old)] = old
                setattr(self, name, grown)
            inc = np.full(
                (new_cap, self._inc_stride), len(self._caps), dtype=np.int64
            )
            inc[: len(self._inc)] = self._inc
            self._inc = inc
            self._slot_res.extend([None] * (new_cap - len(self._slot_res)))
            self._slot_flow.extend([None] * (new_cap - len(self._slot_flow)))
        self._n_slots += 1
        return slot

    def _set_inc_row(self, slot: int, res_arr: np.ndarray) -> None:
        """Write a slot's incidence row, widening the padded matrix when a
        path touches more resources than any seen before."""
        k = res_arr.size
        m = len(self._caps)
        if k > self._inc_stride:
            # Exactly the longest row: every gather over the matrix pays
            # for its width, and path lengths are bounded by the fabric.
            grown = np.full((len(self._inc), k), m, dtype=np.int64)
            grown[:, : self._inc_stride] = self._inc
            self._inc, self._inc_stride = grown, k
        row = self._inc[slot]
        row[:k] = res_arr
        row[k:] = m

    def _free_slot(self, slot: int) -> None:
        self._rem[slot] = 0.0
        self._rate_arr[slot] = 0.0
        self._slot_res[slot] = None
        self._slot_flow[slot] = None
        self._in_use[slot] = False
        self._free.append(slot)

    def _invalidate_flow_caches(self) -> None:
        self._order_slots = None
        self._order_fids = None
        self._active_cache = None

    def _ordered(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, flow_ids) of the active flows in insertion order.

        Slot sequence numbers grow with every add, so the in-use slots
        sorted by sequence are the flow dict's insertion order.
        """
        if self._order_slots is None:
            slots = np.flatnonzero(self._in_use[: self._n_slots])
            slots = slots[np.argsort(self._slot_seq[slots], kind="stable")]
            self._order_slots = slots
            self._order_fids = self._slot_fid[slots]
        return self._order_slots, self._order_fids

    # ----------------------------------------------------------------- flows
    @property
    def num_active_flows(self) -> int:
        """``len(active_flows)`` without building the sorted tuple."""
        return len(self._flows)

    @property
    def active_flows(self) -> tuple[ActiveFlow, ...]:
        if self._active_cache is None:
            self._active_cache = tuple(
                self._flows[fid] for fid in sorted(self._flows)
            )
        return self._active_cache

    def _lookup(self, flow_id: int, operation: str) -> ActiveFlow:
        """Active flow by id, or a diagnosable KeyError naming the id and
        how many flows are live (typos and double-removals both surface as
        "unknown flow" — the count distinguishes an empty network from a
        wrong id)."""
        flow = self._flows.get(flow_id)
        if flow is None:
            raise KeyError(
                f"{operation}: unknown flow {flow_id}"
                f"{self._describe(flow_id)} "
                f"({len(self._flows)} active flows)"
            )
        return flow

    def _describe(self, flow_id: int) -> str:
        """`` [job …]`` suffix from :attr:`flow_describer`, or ``""``."""
        if self.flow_describer is None:
            return ""
        try:
            described = self.flow_describer(flow_id)
        except Exception:  # pragma: no cover - diagnostics must not mask
            return ""
        return f" [{described}]" if described else ""

    def add_flow(
        self,
        flow_id: int,
        path: Sequence[int],
        size: float,
        now: float = 0.0,
        remaining: float | None = None,
    ) -> ActiveFlow:
        """Start a flow; co-located endpoints (single-node path) are
        rejected — the engine should complete them instantly instead.

        ``remaining`` (defaults to ``size``) lets the fault-recovery layer
        resume a parked flow with its transferred bytes preserved.
        """
        if flow_id in self._flows:
            raise ValueError(
                f"flow {flow_id}{self._describe(flow_id)} already active"
            )
        if len(path) < 2:
            raise ValueError("network flows need a multi-node path")
        if size <= 0:
            raise ValueError("flow size must be positive")
        if remaining is None:
            remaining = size
        if not 0 < remaining <= size:
            raise ValueError("remaining must be in (0, size]")
        resources = self._path_resources(path)
        slot = self._alloc_slot()
        flow = ActiveFlow(
            flow_id=flow_id,
            path=tuple(path),
            resources=resources,
            start_time=now,
            num_switches=sum(1 for n in path if n in self._switch_resource),
            net=self,
            slot=slot,
        )
        self._rem[slot] = remaining
        self._rate_arr[slot] = 0.0
        self._slot_seq[slot] = self._seq
        self._seq += 1
        self._slot_fid[slot] = flow_id
        res_arr = np.asarray(resources, dtype=np.int64)
        self._slot_res[slot] = res_arr
        self._slot_flow[slot] = flow
        self._set_inc_row(slot, res_arr)
        self._in_use[slot] = True
        self._res_nflows[res_arr] += 1
        self._flows[flow_id] = flow
        self._seed_res.update(resources)
        self._dirty = True
        self._invalidate_flow_caches()
        # The new flow contributes rate 0.0 until the next recompute, so the
        # aggregate array already reflects the utilisation its own delay
        # estimate should see.
        flow.start_delay_us = self._estimate_delay(flow)
        return flow

    def remove_flow(self, flow_id: int) -> ActiveFlow:
        flow = self._lookup(flow_id, "remove_flow")
        slot = flow._slot
        rate = self._rate_arr[slot]
        res_arr = self._slot_res[slot]
        assert res_arr is not None
        if rate != 0.0:
            self._agg[res_arr] -= rate
        self._res_nflows[res_arr] -= 1
        self._seed_res.update(flow.resources)
        flow._detach()
        del self._flows[flow_id]
        self._free_slot(slot)
        self._dirty = True
        self._invalidate_flow_caches()
        return flow

    def reroute_flow(self, flow_id: int, path: Sequence[int]) -> ActiveFlow:
        """Migrate a live flow onto a new path, preserving its remaining
        bytes (the online-rebalancing hook of Section 5.1.1)."""
        flow = self._lookup(flow_id, "reroute_flow")
        if len(path) < 2:
            raise ValueError("network flows need a multi-node path")
        if path[0] != flow.path[0] or path[-1] != flow.path[-1]:
            raise ValueError("reroute must preserve the flow's endpoints")
        new_resources = self._path_resources(path)
        slot = flow._slot
        rate = self._rate_arr[slot]
        old_arr = self._slot_res[slot]
        assert old_arr is not None
        new_arr = np.asarray(new_resources, dtype=np.int64)
        if rate != 0.0:
            self._agg[old_arr] -= rate
            self._agg[new_arr] += rate
        self._res_nflows[old_arr] -= 1
        self._seed_res.update(flow.resources)
        flow.path = tuple(path)
        flow.resources = new_resources
        flow.num_switches = sum(
            1 for n in path if n in self._switch_resource
        )
        self._slot_res[slot] = new_arr
        self._set_inc_row(slot, new_arr)
        self._res_nflows[new_arr] += 1
        self._seed_res.update(new_resources)
        self._dirty = True
        return flow

    def _estimate_delay(self, flow: ActiveFlow) -> float:
        """Packet-delay estimate (us) along the flow's path at start time."""
        dm = self.delay_model
        delay = dm.link_propagation_us * (len(flow.path) - 1)
        if flow.num_switches == 0:
            return delay
        res_arr = self._slot_res[flow._slot]
        assert res_arr is not None
        # Switch resources sit after the per-hop link entries of the row.
        sw = res_arr[len(flow.path) - 1 :]
        caps = self._caps[sw]
        util = np.zeros(sw.size, dtype=np.float64)
        positive = caps > 0
        np.divide(self._agg[sw], caps, out=util, where=positive)
        # Aggregate entries can drift a few ulps below zero between
        # recomputes (float removal refunds); clamp like the capped side.
        rho = np.clip(util, 0.0, dm.max_utilisation)
        return float(delay + (dm.switch_service_us / (1.0 - rho)).sum())

    # ------------------------------------------------------------ rate logic
    def recompute_rates(self) -> None:
        """Max-min fair allocation via (incremental) progressive filling.

        Consumes the accumulated dirty-resource seeds: in incremental mode
        only the connected component(s) of the flow↔resource sharing graph
        reachable from a seed are refilled (falling back to one full fill
        when the closure covers more than ``incremental_threshold`` of the
        active flows); otherwise every active flow is refilled.  Both paths
        produce bit-identical rates and aggregates.
        """
        seeds = self._seed_res
        self._seed_res = set()
        self._dirty = False
        if not self._flows:
            if seeds:
                self._agg[np.fromiter(seeds, dtype=np.int64)] = 0.0
            return
        if self.incremental and seeds:
            slots = self._closure_slots(seeds)
        else:
            slots = self._ordered()[0]
        self._fill(slots, seeds)

    def _closure_slots(self, seeds: set[int]) -> np.ndarray:
        """Slots of every flow in a sharing-graph component touching a seed
        resource, in insertion (sequence) order — or every active slot, in
        the same order, once the closure covers more than
        ``incremental_threshold`` of the active flows.

        Whole-array BFS over the padded incidence matrix: each round marks
        the in-use slots touching a visited resource, then marks those
        slots' resources visited.  Rounds are bounded by the sharing graph's
        diameter, and each one is a few vectorised gathers — no per-flow
        Python loop.  The closure only grows, so the walk stops at the
        first round whose running count passes the threshold: the fallback
        decision is the one the finished walk would reach.  When one seed
        resource alone carries more than the threshold, its flows are all in
        the closure, so that decision is known before any walk.
        """
        limit = self.incremental_threshold * len(self._flows)
        seed_ids = np.fromiter(seeds, dtype=np.int64, count=len(seeds))
        if self._res_nflows[seed_ids].max() > limit:
            return self._ordered()[0]
        m = len(self._caps)
        inc = self._inc[: self._n_slots]
        in_use = self._in_use[: self._n_slots]
        # Entry ``m`` is the padding sentinel and must stay unvisited, or
        # every padded row would read as touching a visited resource.
        visited_res = np.zeros(m + 1, dtype=bool)
        visited_res[seed_ids] = True
        visited_slot = np.zeros(self._n_slots, dtype=bool)
        reached = 0
        while True:
            new = visited_res[inc].any(axis=1)
            new &= in_use
            new &= ~visited_slot
            n_new = np.count_nonzero(new)
            if not n_new:
                break
            reached += n_new
            if reached > limit:
                return self._ordered()[0]
            visited_slot |= new
            visited_res[inc[new]] = True
            visited_res[m] = False
        slots = np.flatnonzero(visited_slot)
        # Seq order == insertion order: keeps freeze bookkeeping and the
        # aggregate bincount accumulation order identical to a full fill.
        return slots[np.argsort(self._slot_seq[slots], kind="stable")]

    def _fill(self, slots: np.ndarray, seeds: set[int]) -> None:
        """Progressive filling restricted to ``slots`` (insertion order).

        ``seeds`` are the dirty resources accumulated since the previous
        recompute; any seed left without users is snapped to aggregate 0.0
        so incremental removal refunds cannot strand float drift on an
        otherwise idle resource.
        """
        if slots.size:
            # Component resources sorted ascending: preserves the global
            # lowest-index argmin tie-break of the monolithic fill.
            res_ids, local, counts, res_ptr, res_flows = incidence_csr(
                self._inc[slots], self._res_mark, self._res_lut
            )
            n_res = res_ids.size
            n_flows = slots.size
            remaining = self._caps[res_ids].copy()
            frozen = np.zeros(n_flows, dtype=bool)
            rates = np.zeros(n_flows, dtype=np.float64)
            unfrozen = n_flows
            with np.errstate(divide="ignore", invalid="ignore"):
                fair = np.where(counts > 0, remaining / counts, np.inf)
                while unfrozen:
                    bottleneck = int(fair.argmin())
                    level = fair[bottleneck]
                    if not np.isfinite(level):
                        # Shouldn't happen (every flow uses >= 1 resource),
                        # but avoid spinning if it does.
                        rates[~frozen] = np.inf
                        break
                    members = res_flows[
                        res_ptr[bottleneck] : res_ptr[bottleneck + 1]
                    ]
                    to_freeze = members[~frozen[members]]
                    rates[to_freeze] = level
                    frozen[to_freeze] = True
                    unfrozen -= to_freeze.size
                    # Padding lands in the spare bin ``n_res``.
                    drained = np.bincount(
                        local[to_freeze].ravel(), minlength=n_res + 1
                    )[:n_res]
                    counts -= drained
                    # Charge the frozen flows against the resources they
                    # drain; every other entry subtracts an exact 0.0 and
                    # re-divides the same floats, so whole-array updates
                    # equal updates restricted to the drained resources.  A
                    # level of exactly 0.0 (zero-capacity or fully drained
                    # bottleneck) is skipped outright: the subtraction
                    # would be an exact no-op, and skipping it guarantees
                    # degenerate resources can never accumulate
                    # signed-zero/drift artefacts however often the
                    # incremental allocator reruns the loop.
                    if level > 0.0:
                        remaining -= level * drained
                        np.maximum(remaining, 0.0, out=remaining)
                    np.divide(remaining, counts, out=fair)
                    fair[counts == 0] = np.inf
            self._rate_arr[slots] = rates
            # Aggregate refresh for the refilled component: bincount
            # accumulates sequentially in input (insertion) order, so a
            # component-local refresh writes byte-identical sums to the ones
            # a full-network refresh would.  Padding accumulates into the
            # discarded bin ``n_res``.
            self._agg[res_ids] = np.bincount(
                local.ravel(),
                weights=np.repeat(rates, local.shape[1]),
                minlength=n_res + 1,
            )[:n_res]
        for r in seeds:
            if self._res_nflows[r] == 0:
                self._agg[r] = 0.0

    def advance(self, dt: float) -> None:
        """Progress every active flow by ``dt`` at its current rate."""
        if dt < 0:
            raise ValueError("cannot advance time backwards")
        if self._dirty:
            self.recompute_rates()
        rem = self._rem
        rem -= self._rate_arr * dt
        rem[rem < _COMPLETION_EPS] = 0.0

    def completed_flows(self) -> list[int]:
        slots, fids = self._ordered()
        return [int(fid) for fid in fids[self._rem[slots] <= 0.0]]

    def time_to_next_completion(self) -> float | None:
        """Earliest completion horizon at current rates (None when idle)."""
        if self._dirty:
            self.recompute_rates()
        slots, _ = self._ordered()
        rates = self._rate_arr[slots]
        positive = rates > 0.0
        if not positive.any():
            return None
        return float((self._rem[slots][positive] / rates[positive]).min())
