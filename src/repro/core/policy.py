"""Network policies and the Policy Optimization Algorithm (Algorithm 1).

A *policy* ``p_k`` (Section 3.1) is the ordered list of switches a shuffle
flow must traverse, each with a required type; a policy is **satisfied** when
every allocated switch matches its required type in order.  Policies and
flows are one-to-one.

The :class:`PolicyController` plays the role of the paper's centralised
OpenFlow controller: it tracks the rate load ``sum(f.rate for p in A(w))`` on
every switch, exposes the candidate-switch set of Eq 4, and computes the
optimal routing path of a flow (Algorithm 1, line 5) as a shortest-path
dynamic program over the equal-cost stage DAG between the two end servers.
Rescheduling a switch ``p.list[i] -> w_hat`` (Eq 5) falls out of the DP: the
returned path differs from the current one exactly in the switches whose
replacement has positive utility.

Cost model: traversing switch ``w`` costs ``rate * unit_cost(w)`` where
``unit_cost`` is the per-switch delay unit ``c_s`` (1 T in the case study of
Section 2.3) times an optional tier weight, plus an optional congestion term
proportional to the switch's current utilisation.  With the defaults the
model reduces to the paper's "cost = rate x number of switches traversed",
and the congestion term only breaks ties toward less-loaded switches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..mapreduce.shuffle import ShuffleFlow
from ..obs.runtime import STATE as _OBS
from ..topology.base import Tier, Topology
from ..topology.routing import (
    RoutePlan,
    attach_table,
    enumerate_paths,
    node_ints,
    route_plan,
    route_plans,
)

__all__ = ["Policy", "CostModel", "PolicyController", "NoFeasiblePathError"]

_INF = float("inf")


def _link_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key of an undirected physical link."""
    return (u, v) if u <= v else (v, u)


#: The controller attributes an install writes (plus ``last_route``):
#: what :meth:`PolicyController.snapshot_routes` copies.
_ROUTE_STATE = (
    "_policies",
    "_flow_rates",
    "_capacitated",
    "_load",
    "_base_load",
    "_flows_on",
    "_cap_load",
    "_cap_flows_on",
    "_cost_arr",
    "_headroom",
)


class NoFeasiblePathError(RuntimeError):
    """Raised when no policy can carry a flow within switch capacities."""


@dataclass(frozen=True)
class Policy:
    """A satisfied policy: the route of one flow.

    ``path`` is the full node sequence (servers included); ``switch_list``
    the switches in traversal order (the paper's ``p.list``) and ``types``
    their required types (``p.type``).
    """

    flow_id: int
    path: tuple[int, ...]
    switch_list: tuple[int, ...]
    types: tuple[str, ...]

    @property
    def length(self) -> int:
        """``p.len`` — the number of switches on the route."""
        return len(self.switch_list)

    def is_satisfied_by(self, topology: Topology) -> bool:
        """Sixth constraint of Eq 3: every switch matches its required type."""
        return all(
            topology.switch(w).switch_type == t
            for w, t in zip(self.switch_list, self.types)
        )


@dataclass(frozen=True)
class CostModel:
    """Per-switch traversal cost parameters.

    ``unit_cost`` is ``c_s``; ``tier_weights`` lets experiments price core
    switches differently; ``congestion_weight`` adds
    ``congestion_weight * load / capacity`` per switch so that, at equal hop
    count, the optimiser prefers idle switches (this is what makes policy
    optimisation useful on symmetric fabrics, mirroring Figure 2's overloaded
    ``w_1``).
    """

    unit_cost: float = 1.0
    tier_weights: Mapping[Tier, float] = field(
        default_factory=lambda: {
            Tier.ACCESS: 1.0,
            Tier.AGGREGATION: 1.0,
            Tier.CORE: 1.0,
        }
    )
    congestion_weight: float = 0.25

    def switch_cost(self, topology: Topology, switch_id: int, load: float) -> float:
        """Cost contribution of traversing one switch at the given load."""
        switch = topology.switch(switch_id)
        base = self.unit_cost * self.tier_weights.get(switch.tier, 1.0)
        if self.congestion_weight > 0 and switch.capacity > 0:
            base += self.congestion_weight * (load / switch.capacity)
        return base


class PolicyController:
    """Central policy manager: switch loads, Eq 4 candidates, Algorithm 1.

    The controller owns the mutable network side of a TAA instance.  The
    compute side (container placement) lives in
    :class:`~repro.cluster.state.ClusterState`; the two meet in
    :class:`~repro.core.taa.TAAInstance`.
    """

    def __init__(
        self,
        topology: Topology,
        cost_model: CostModel | None = None,
        max_slack: int = 2,
    ) -> None:
        self.topology = topology
        self.cost_model = cost_model or CostModel()
        self.max_slack = max_slack
        self._load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._base_load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._policies: dict[int, Policy] = {}
        self._flow_rates: dict[int, float] = {}
        # Per-switch count of installed flows traversing it: when a switch
        # empties, its incremental load is snapped back to exactly 0.0 so
        # repeated assign/release round-trips cannot accumulate float drift.
        self._flows_on: dict[int, int] = {w: 0 for w in topology.switch_ids}
        # Capacity-negotiated accounting (Eq 4): flows routed with the
        # capacity constraint enforced.  Baseline policies (static/ECMP) and
        # the saturation fallback are installed uncapacitated and are exempt
        # from the switch-capacity invariant by design.
        self._capacitated: set[int] = set()
        self._cap_load: dict[int, float] = {w: 0.0 for w in topology.switch_ids}
        self._cap_flows_on: dict[int, int] = {w: 0 for w in topology.switch_ids}
        # Monotone counter bumped on every load mutation; consumers that
        # cache load-derived quantities (the all-pairs unit-cost matrix)
        # compare it to decide when to invalidate.
        self._load_version: int = 0
        # Switches currently failed (fault injection).  A failed switch is
        # unroutable for *every* path computation — including the
        # capacity-relaxed fallback: saturation degrades a route, a dead
        # switch forbids it.  Kept as both a set (queries) and a node mask
        # (the vectorised DP); empty in normal operation so the hot path
        # pays one truthiness check.
        self._failed_switches: set[int] = set()
        self._failed_mask = np.zeros(topology.num_nodes, dtype=bool)
        # Decision-provenance breadcrumb channel: when the engine's audit
        # plane enables `provenance_notes`, every `route_flow` leaves the
        # path cost and capacity mode it decided with in `last_route`.  A
        # pure annotation — routing never reads it — so enabling it cannot
        # perturb a run.
        self.provenance_notes = False
        self.last_route: dict[str, object] | None = None
        # Physical links currently failed (canonical (min, max) keys) plus a
        # dense (n, n) boolean hop mask for the vectorised DP.  The mask is
        # allocated lazily on the first link failure, so fabrics that never
        # see link faults pay nothing.
        self._failed_links: set[tuple[int, int]] = set()
        self._failed_link_mask: np.ndarray | None = None
        # Static per-node tables, as plain Python values so the bookkeeping
        # loops (make_policy, assign, release, _reprice, policy_cost) never
        # call back into the topology or read NumPy scalars: whether a node
        # is a switch, its type, its tier base cost and its capacity.
        n = topology.num_nodes
        self._is_switch = [False] * n
        self._type_of: list[str | None] = [None] * n
        self._base_cost = [0.0] * n
        self._capacity = [0.0] * n
        cm = self.cost_model
        for w in topology.switch_ids:
            switch = topology.switch(w)
            self._is_switch[w] = True
            self._type_of[w] = switch.switch_type
            self._base_cost[w] = float(
                cm.unit_cost * cm.tier_weights.get(switch.tier, 1.0)
            )
            self._capacity[w] = float(switch.capacity)
        # Per-node traversal cost and capacity headroom ``capacity - (load +
        # base)`` under *current* loads, maintained incrementally: only the
        # switches a mutation touches are re-priced, so the DP gathers both
        # without rebuilding anything from the load dicts.  Servers cost 0.0
        # and have infinite headroom.  Failed switches keep their finite
        # price here — the infinite mask is applied at gather time.
        self._cost_arr = np.array(self._base_cost, dtype=np.float64)
        self._headroom = np.full(n, _INF, dtype=np.float64)
        self._reprice(topology.switch_ids)
        # The route plans and the server attach table of this topology,
        # looked up once rather than through the per-topology memos on
        # every route.
        self._plans = route_plans(topology)
        self._attach = attach_table(topology)
        # The topology's shared node-id ints, fetched by the first stage DP
        # (a run that routes no multi-path plan never allocates them).
        self._node_ints: tuple[int, ...] | None = None

    @property
    def load_version(self) -> int:
        """Bumped whenever any switch load changes (install/release/base)."""
        return self._load_version

    # ------------------------------------------------------------------ state
    def load(self, switch_id: int) -> float:
        """Aggregate rate currently routed through a switch (incl. base load)."""
        return self._load[switch_id] + self._base_load[switch_id]

    def base_load(self, switch_id: int) -> float:
        """The external (background) component of a switch's load."""
        return self._base_load[switch_id]

    def capacitated_load(self, switch_id: int) -> float:
        """Load from capacity-negotiated flows only (what Eq 4 bounds),
        including the base load the negotiation had to route around."""
        return self._cap_load[switch_id] + self._base_load[switch_id]

    def negotiated_load(self, switch_id: int) -> float:
        """Rate of the capacity-negotiated flows through a switch, base load
        excluded: exactly ``0.0`` once the last of them is released."""
        return self._cap_load[switch_id]

    def is_capacitated(self, flow_id: int) -> bool:
        """Whether a flow's policy was installed under the Eq 4 constraint."""
        return flow_id in self._capacitated

    def flow_rate(self, flow_id: int) -> float:
        """Rate an installed flow is charged at (KeyError when absent)."""
        return self._flow_rates[flow_id]

    def recomputed_loads(self) -> dict[int, float]:
        """Per-switch load re-derived from scratch off the installed
        policies — the ground truth the incremental ``_load`` accounting is
        verified against by the switch-load-consistency invariant."""
        loads = {w: 0.0 for w in self.topology.switch_ids}
        for fid, policy in self._policies.items():
            rate = self._flow_rates[fid]
            for w in policy.switch_list:
                loads[w] += rate
        return loads

    def _reprice(self, switches: Iterable[int]) -> None:
        """Refresh ``_headroom`` and ``_cost_arr`` for the switches whose
        load just changed.

        The price mirrors :meth:`CostModel.switch_cost` operation for
        operation, and the headroom is :meth:`residual`'s expression, so the
        stored floats stay bit-identical to a from-scratch pricing.
        """
        cw = self.cost_model.congestion_weight
        load, base = self._load, self._base_load
        capacity, base_cost = self._capacity, self._base_cost
        headroom, cost = self._headroom, self._cost_arr
        for w in switches:
            total = load[w] + base[w]
            cap = capacity[w]
            headroom[w] = cap - total
            if cw > 0 and cap > 0:
                cost[w] = base_cost[w] + cw * (total / cap)

    def set_base_load(self, switch_id: int, rate: float) -> None:
        """External (background) load on a switch.

        Planning instances use this to mirror the traffic other jobs already
        impose on the fabric without importing their flows.
        """
        if rate < 0:
            raise ValueError("base load must be non-negative")
        self._base_load[switch_id] = rate
        self._reprice((switch_id,))
        self._load_version += 1

    def base_loads_from(self, other: "PolicyController") -> None:
        """Copy another controller's *total* loads in as base load."""
        for w in self.topology.switch_ids:
            self._base_load[w] = other.load(w)
        self._reprice(self.topology.switch_ids)
        self._load_version += 1

    def residual(self, switch_id: int) -> float:
        if switch_id in self._failed_switches:
            return float("-inf")
        return self._capacity[switch_id] - self.load(switch_id)

    # --------------------------------------------------------- failure state
    @property
    def failed_switches(self) -> frozenset[int]:
        """Switches currently failed (empty when no faults are live)."""
        return frozenset(self._failed_switches)

    def is_switch_failed(self, switch_id: int) -> bool:
        return switch_id in self._failed_switches

    def fail_switch(self, switch_id: int) -> None:
        """Mark a switch failed: every path query routes around it.

        Bumps :attr:`load_version` so cached load/cost-derived structures
        (the all-pairs unit-cost matrix behind the preference grading) are
        rebuilt with the switch priced unroutable.  Installed policies that
        traverse the switch are *not* touched here — the simulator's
        recovery layer reroutes or parks the affected flows.
        """
        if switch_id not in self._load:
            raise KeyError(f"unknown switch {switch_id}")
        if switch_id in self._failed_switches:
            return
        self._failed_switches.add(switch_id)
        self._failed_mask[switch_id] = True
        self._load_version += 1

    def recover_switch(self, switch_id: int) -> None:
        """Return a failed switch to service (idempotent)."""
        if switch_id not in self._load:
            raise KeyError(f"unknown switch {switch_id}")
        if switch_id not in self._failed_switches:
            return
        self._failed_switches.discard(switch_id)
        self._failed_mask[switch_id] = False
        self._load_version += 1

    # ------------------------------------------------------ link failure state
    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        """Physical links currently failed, as canonical (min, max) keys."""
        return frozenset(self._failed_links)

    def is_link_failed(self, u: int, v: int) -> bool:
        return _link_key(u, v) in self._failed_links

    def fail_link(self, u: int, v: int) -> None:
        """Mark the physical link ``u``—``v`` unroutable.

        Every path computation — the stage DP, the slack fallback, ECMP
        candidate filtering — routes around it.  (Preference *grading* keeps
        using the unit-cost matrix, which only prices dead switches; the
        grading may rank an affected pairing optimistically, but installed
        routes are always link-safe because routing itself is masked.)
        Bumps :attr:`load_version`; installed policies over the link are
        rerouted or parked by the simulator's recovery layer.
        """
        if not self.topology.has_link(u, v):
            raise KeyError(f"no physical link between {u} and {v}")
        key = _link_key(u, v)
        if key in self._failed_links:
            return
        self._failed_links.add(key)
        if self._failed_link_mask is None:
            n = self.topology.num_nodes
            self._failed_link_mask = np.zeros((n, n), dtype=bool)
        self._failed_link_mask[key[0], key[1]] = True
        self._failed_link_mask[key[1], key[0]] = True
        self._load_version += 1

    def recover_link(self, u: int, v: int) -> None:
        """Return a failed link to service (idempotent)."""
        if not self.topology.has_link(u, v):
            raise KeyError(f"no physical link between {u} and {v}")
        key = _link_key(u, v)
        if key not in self._failed_links:
            return
        self._failed_links.discard(key)
        if self._failed_link_mask is not None:
            self._failed_link_mask[key[0], key[1]] = False
            self._failed_link_mask[key[1], key[0]] = False
        self._load_version += 1

    def sync_failures_from(self, other: "PolicyController") -> None:
        """Mirror another controller's failed-switch/failed-link sets
        (planning instances must see the same dead fabric as the live
        controller)."""
        if (
            other._failed_switches == self._failed_switches
            and other._failed_links == self._failed_links
        ):
            return
        self._failed_switches = set(other._failed_switches)
        self._failed_mask[:] = False
        for w in self._failed_switches:
            self._failed_mask[w] = True
        self._failed_links = set(other._failed_links)
        if self._failed_link_mask is not None:
            self._failed_link_mask[:] = False
        if self._failed_links:
            if self._failed_link_mask is None:
                n = self.topology.num_nodes
                self._failed_link_mask = np.zeros((n, n), dtype=bool)
            for a, b in self._failed_links:
                self._failed_link_mask[a, b] = True
                self._failed_link_mask[b, a] = True
        self._load_version += 1

    def policy_of(self, flow_id: int) -> Policy | None:
        return self._policies.get(flow_id)

    def policies(self) -> dict[int, Policy]:
        return dict(self._policies)

    # ------------------------------------------------------------ Eq 4 helper
    def candidate_switches(self, policy: Policy, position: int, rate: float) -> list[int]:
        """Eq 4: same-type switches with residual capacity for the flow.

        ``position`` indexes ``policy.switch_list``.  The current switch is
        excluded, exactly as in the paper (``w_hat in W \\ p.list[i]``).
        """
        required_type = policy.types[position]
        current = policy.switch_list[position]
        return [
            w
            for w in self.topology.switch_ids
            if w != current
            and self._type_of[w] == required_type
            and self.residual(w) >= rate
        ]

    # -------------------------------------------------------------- mutation
    def assign(
        self, flow: ShuffleFlow, policy: Policy, *, capacitated: bool = True
    ) -> None:
        """Install a policy for a flow, charging its rate to the switches.

        ``capacitated`` records whether the route was negotiated under the
        Eq 4 capacity constraint; uncapacitated installs (baselines, the
        saturation fallback) are exempt from the switch-capacity invariant.
        """
        if flow.flow_id in self._policies:
            self.release(flow.flow_id)
        rate = flow.rate
        switch_list = policy.switch_list
        load, flows_on = self._load, self._flows_on
        for w in switch_list:
            load[w] += rate
            flows_on[w] += 1
        self._reprice(switch_list)
        self._load_version += 1
        if capacitated:
            self._capacitated.add(flow.flow_id)
            cap_load, cap_flows_on = self._cap_load, self._cap_flows_on
            for w in switch_list:
                cap_load[w] += rate
                cap_flows_on[w] += 1
        self._policies[flow.flow_id] = policy
        self._flow_rates[flow.flow_id] = flow.rate
        if _OBS.enabled:
            _OBS.tracer.count("alg1.assign")
            if _OBS.checker is not None:
                _OBS.checker.check_switch_capacity(
                    self,
                    where=f"assign flow {flow.flow_id}",
                    switches=policy.switch_list,
                )

    def release(self, flow_id: int) -> None:
        """Remove a flow's policy, refunding its rate.

        Loads are snapped back to exactly ``0.0`` whenever a switch's last
        flow leaves, so assign→release round-trips restore ``_load`` to its
        base value bit-for-bit (no float drift, no stale entries).
        """
        policy = self._policies.pop(flow_id, None)
        if policy is None:
            return
        rate = self._flow_rates.pop(flow_id)
        capacitated = flow_id in self._capacitated
        if capacitated:
            self._capacitated.discard(flow_id)
        load, flows_on = self._load, self._flows_on
        cap_load, cap_flows_on = self._cap_load, self._cap_flows_on
        for w in policy.switch_list:
            flows_on[w] -= 1
            if flows_on[w] <= 0:
                flows_on[w] = 0
                load[w] = 0.0
            else:
                load[w] = max(load[w] - rate, 0.0)
            if capacitated:
                cap_flows_on[w] -= 1
                if cap_flows_on[w] <= 0:
                    cap_flows_on[w] = 0
                    cap_load[w] = 0.0
                else:
                    cap_load[w] = max(cap_load[w] - rate, 0.0)
        self._reprice(policy.switch_list)
        self._load_version += 1
        if _OBS.enabled:
            _OBS.tracer.count("alg1.release")

    def clear(self) -> None:
        """Drop every installed policy and reset loads to exactly zero."""
        self._policies.clear()
        self._flow_rates.clear()
        self._capacitated.clear()
        for w in self.topology.switch_ids:
            self._load[w] = 0.0
            self._cap_load[w] = 0.0
            self._flows_on[w] = 0
            self._cap_flows_on[w] = 0
        self._reprice(self.topology.switch_ids)
        self._load_version += 1

    def snapshot_routes(self) -> dict[str, Any]:
        """The installed routing state: every policy and flow rate, and every
        load, flow count, price and headroom they determine.
        :meth:`restore_routes` puts it back."""
        state: dict[str, Any] = {
            name: getattr(self, name).copy() for name in _ROUTE_STATE
        }
        state["last_route"] = self.last_route
        return state

    def restore_routes(self, snapshot: dict[str, Any]) -> None:
        """Reinstate a :meth:`snapshot_routes` state and bump
        :attr:`load_version`.

        Routing is a pure function of the placement, the base loads, the
        failure sets and the cost model.  While the failure sets and the
        cost model are those of the snapshot, restoring it therefore leaves
        exactly the state that re-routing the snapshot's placement would.
        """
        for name in _ROUTE_STATE:
            setattr(self, name, snapshot[name].copy())
        self.last_route = snapshot["last_route"]
        self._load_version += 1

    # --------------------------------------------------------- cost queries
    def path_cost(self, path: Sequence[int], rate: float) -> float:
        """Cost of carrying ``rate`` along a node path under current loads."""
        arr = self._cost_arr
        is_switch = self._is_switch
        total = 0.0
        for n in path:
            if is_switch[n]:
                total += arr[n]
        return float(rate * total)

    def all_node_costs(self) -> np.ndarray:
        """Traversal-cost vector over every node id (the batched solver's
        input); recompute after any load mutation (see :attr:`load_version`)."""
        costs = self._cost_arr.copy()
        if self._failed_switches:
            costs[self._failed_mask] = _INF
        return costs

    def policy_cost(self, flow: ShuffleFlow) -> float:
        """Shuffle cost of a flow under its installed policy (Eq 2).

        The flow's own load is excluded from the congestion term so the cost
        is comparable with candidate paths it is *not* yet installed on.
        """
        policy = self._policies.get(flow.flow_id)
        if policy is None:
            raise KeyError(f"flow {flow.flow_id} has no policy")
        # CostModel.switch_cost at load ``self.load(w) - rate``, read from
        # the per-node tables.
        cw = self.cost_model.congestion_weight
        load, base_load = self._load, self._base_load
        rate = flow.rate
        total = 0.0
        for w in policy.switch_list:
            cost = self._base_cost[w]
            cap = self._capacity[w]
            if cw > 0 and cap > 0:
                cost += cw * ((load[w] + base_load[w] - rate) / cap)
            total += cost
        return rate * total

    # ------------------------------------------------- Algorithm 1 machinery
    def optimal_path(
        self,
        src_server: int,
        dst_server: int,
        rate: float,
        enforce_capacity: bool = True,
    ) -> tuple[tuple[int, ...], float]:
        """Optimal shuffle path between two servers (Algorithm 1, line 5).

        Runs a forward DP over the equal-cost stage DAG; when capacities
        prune every shortest path, retries slack-extended paths up to
        ``max_slack`` extra hops before raising
        :class:`NoFeasiblePathError` (a bounded BFS over usable nodes
        raises first when no such path can exist).  Returns
        ``(path, cost)`` where cost is ``rate``-scaled per the cost model.
        """
        if src_server == dst_server:
            return ((src_server,), 0.0)
        if _OBS.enabled:
            return self._optimal_path_traced(
                src_server, dst_server, rate, enforce_capacity
            )
        return self._optimal_path_impl(
            src_server, dst_server, rate, enforce_capacity
        )

    def _optimal_path_traced(
        self, src_server: int, dst_server: int, rate: float,
        enforce_capacity: bool,
    ) -> tuple[tuple[int, ...], float]:
        tracer = _OBS.tracer
        tracer.count("alg1.optimal_path")
        with tracer.timeit("alg1.optimal_path"):
            try:
                return self._optimal_path_impl(
                    src_server, dst_server, rate, enforce_capacity
                )
            except NoFeasiblePathError:
                tracer.count("alg1.no_feasible_path")
                raise

    def _optimal_path_impl(
        self, src_server: int, dst_server: int, rate: float,
        enforce_capacity: bool,
    ) -> tuple[tuple[int, ...], float]:
        path = self._dag_best_path(src_server, dst_server, rate, enforce_capacity)
        if path is not None:
            return path, self.path_cost(path, rate)
        # Slack-extended retry: normally only worth it when capacity pruning
        # emptied the DAG, but with failed switches even the *uncapacitated*
        # DP can come back empty (every shortest path crosses a dead switch)
        # while a slightly longer live detour exists.
        if enforce_capacity or self._failed_switches or self._failed_links:
            if _OBS.enabled:
                _OBS.tracer.count("alg1.slack_fallback")
            if self._slack_reachable(
                src_server, dst_server, rate, enforce_capacity
            ):
                broken = bool(self._failed_switches or self._failed_links)
                for slack in range(1, self.max_slack + 1):
                    best: tuple[int, ...] | None = None
                    best_cost = _INF
                    for candidate in enumerate_paths(
                        self.topology, src_server, dst_server, slack=slack,
                        limit=512,
                    ):
                        if broken and not self._path_alive(candidate):
                            continue
                        if enforce_capacity and not self._path_feasible(
                            candidate, rate
                        ):
                            continue
                        cost = self.path_cost(candidate, rate)
                        if cost < best_cost:
                            best, best_cost = candidate, cost
                    if best is not None:
                        return best, best_cost
            elif _OBS.enabled:
                _OBS.tracer.count("alg1.slack_pruned")
        raise NoFeasiblePathError(
            f"no feasible path for rate {rate} between servers "
            f"{src_server} and {dst_server}"
        )

    def _path_alive(self, path: Sequence[int]) -> bool:
        """True when the path crosses no failed switch and no failed link."""
        if any(n in self._failed_switches for n in path):
            return False
        if self._failed_links:
            for a, b in zip(path, path[1:]):
                if _link_key(a, b) in self._failed_links:
                    return False
        return True

    def _path_feasible(self, path: Sequence[int], rate: float) -> bool:
        return all(
            self.residual(n) >= rate
            for n in path
            if self.topology.is_switch(n)
        )

    def _slack_reachable(
        self, src: int, dst: int, rate: float, enforce_capacity: bool
    ) -> bool:
        """Whether the slack fallback can find any path at all.

        One frontier BFS from ``src`` for at most ``hop_distance +
        max_slack`` hops over the nodes a fallback candidate may use:
        servers, and switches that are alive and, under ``enforce_capacity``,
        keep ``residual >= rate`` (the DP's pruning expression); failed links
        are not crossed.  Every candidate that passes :meth:`_path_alive` and
        :meth:`_path_feasible` is such a walk, so when ``dst`` stays
        unreached the enumeration cannot succeed and is skipped.
        """
        topo = self.topology
        n = topo.num_nodes
        blocked = self._failed_mask.copy()
        if enforce_capacity:
            blocked |= self._headroom < rate
        # One trailing closed slot absorbs the neighbour table's padding.
        open_ = np.zeros(n + 1, dtype=bool)
        open_[:n] = ~blocked
        open_[src] = False
        table = topo.neighbor_table()
        frontier = np.array([src], dtype=np.intp)
        for _ in range(topo.hop_distance(src, dst) + self.max_slack):
            reach = table[frontier]
            rows, cols = np.nonzero(open_[reach])
            step = reach[rows, cols]
            if self._failed_links:
                step = step[~self._failed_link_mask[frontier[rows], step]]
            if (step == dst).any():
                return True
            if not step.size:
                return False
            open_[step] = False
            frontier = np.unique(step)
        return False

    def _dag_best_path(
        self,
        src: int,
        dst: int,
        rate: float,
        enforce_capacity: bool,
    ) -> tuple[int, ...] | None:
        """Min-plus DP over the memoised flat stage DAG (:func:`route_plan`).

        One gather prices every plan node; failed switches and, under
        ``enforce_capacity``, switches whose headroom is below ``rate`` are
        priced ``inf``, which leaves them — and every node reachable only
        through them — at an infinite total.  Per stage, each node's
        candidate totals are its parents' totals plus its own cost, read
        through the plan's parent tables; ``argmin`` over a row picks the
        first minimum, i.e. the lowest-id parent, reproducing the scalar
        tie-break.  A plan with one node per stage is a single path and is
        walked in order instead, with the same checks and the same sum.
        Servers single-homed on different switches share their switch
        pair's plan (:func:`~repro.topology.routing.plan_endpoints`) and are
        attached at both ends.  Returns ``None`` when ``dst`` ends at an
        infinite total (pruning or failures emptied a stage).
        """
        if src == dst:
            return (src,)
        # plan_endpoints(), read from the attach table held since __init__.
        head, tail = self._attach[src], self._attach[dst]
        if head < 0 or tail < 0 or head == tail:
            head, tail = src, dst
        failed_links = self._failed_links
        if head != src and failed_links and (
            _link_key(src, head) in failed_links
            or _link_key(tail, dst) in failed_links
        ):
            return None
        plan = self._plans.get((head, tail))
        if plan is None:
            plan = route_plan(self.topology, head, tail)
        if plan.path is not None:
            path = self._single_path(
                plan.path, rate, enforce_capacity, head != src
            )
        else:
            path = self._stage_dp(plan, rate, enforce_capacity, head != src)
        if path is None or head == src:
            return path
        return (src, *path, dst)

    def _single_path(
        self,
        ids: tuple[int, ...],
        rate: float,
        enforce_capacity: bool,
        priced_head: bool,
    ) -> tuple[int, ...] | None:
        """The stage DP on a plan with one node per stage: ``ids`` itself,
        unless a node is failed or (under ``enforce_capacity``) short of
        headroom, a hop crosses a failed link, or the total, summed in path
        order from the DP's start value, is not finite."""
        costs, headroom = self._cost_arr, self._headroom
        failed, failed_links = self._failed_switches, self._failed_links
        prev = ids[0]
        if prev in failed or (enforce_capacity and headroom[prev] < rate):
            return None
        total = costs[prev] if priced_head else 0.0
        for node in ids[1:]:
            if node in failed or (enforce_capacity and headroom[node] < rate):
                return None
            if failed_links and _link_key(prev, node) in failed_links:
                return None
            total += costs[node]
            prev = node
        return ids if total < _INF else None

    def _stage_dp(
        self,
        plan: RoutePlan,
        rate: float,
        enforce_capacity: bool,
        priced_head: bool,
    ) -> tuple[int, ...] | None:
        """The stage DP over a plan with more than one path; see
        :meth:`_dag_best_path`."""
        nodes = plan.nodes
        costs = self._cost_arr[nodes]
        if self._failed_switches:
            # Dead switches are unroutable at any price.
            np.putmask(costs, self._failed_mask[nodes], _INF)
        if enforce_capacity:
            np.putmask(costs, self._headroom[nodes] < rate, _INF)
        bounds = plan.bounds
        # One trailing inf slot: the parent tables' padding gathers it.  A
        # switch-pair plan starts with the source switch's (pruned) cost.
        totals = np.empty(nodes.size + 1, dtype=np.float64)
        totals[-1] = _INF
        totals[0] = costs[0] if priced_head else 0.0
        # Under link failures: node ids behind the parent tables' flat
        # indices (the padding maps to an arbitrary node, already at inf).
        link_mask = self._failed_link_mask
        parent_ids = np.append(nodes, nodes[0]) if self._failed_links else None
        picks: list[np.ndarray | None] = []
        for k, parents in enumerate(plan.parents, start=1):
            lo, hi = bounds[k], bounds[k + 1]
            width = parents.shape[1]
            if width == 1 and parent_ids is None:
                # Every node has one parent: nothing to choose.
                totals[lo:hi] = totals[parents.ravel()] + costs[lo:hi]
                picks.append(None)
                continue
            candidates = totals[parents] + costs[lo:hi, None]
            if parent_ids is not None:
                # A hop over a failed physical link is as unroutable as one
                # into a failed switch.
                candidates[link_mask[parent_ids[parents], nodes[lo:hi, None]]] = _INF
            # Each row's first minimum (the lowest-id parent among ties),
            # and its value: exactly ``candidates.min(axis=1)``, read back
            # in one flat gather, which is cheaper on these small tables.
            pick = candidates.argmin(axis=1)
            totals[lo:hi] = candidates.ravel()[
                np.arange(0, candidates.size, width) + pick
            ]
            picks.append(pick)
        if not totals[-2] < _INF:
            return None
        # The last stage is the plan's destination alone; backtrack.
        ids = self._node_ints
        if ids is None:
            ids = self._node_ints = node_ints(self.topology)
        idx = nodes.size - 1
        path = [ids[nodes.item(idx)]]
        for k in range(len(picks), 0, -1):
            row = idx - bounds[k]
            pick = picks[k - 1]
            col = 0 if pick is None else pick.item(row)
            idx = plan.parents[k - 1].item(row, col)
            path.append(ids[nodes.item(idx)])
        return tuple(reversed(path))

    # --------------------------------------------------------- policy builds
    def make_policy(self, flow: ShuffleFlow, path: Sequence[int]) -> Policy:
        """Wrap a node path as a satisfied policy for a flow."""
        is_switch, type_of = self._is_switch, self._type_of
        switch_list = tuple(n for n in path if is_switch[n])
        return Policy(
            flow_id=flow.flow_id,
            path=tuple(path),
            switch_list=switch_list,
            types=tuple(type_of[w] for w in switch_list),
        )

    def route_flow(
        self,
        flow: ShuffleFlow,
        src_server: int,
        dst_server: int,
        enforce_capacity: bool = True,
    ) -> Policy:
        """Compute + install the optimal policy for a flow (Algorithm 1 body)."""
        self.release(flow.flow_id)
        path, cost = self.optimal_path(
            src_server, dst_server, flow.rate, enforce_capacity
        )
        policy = self.make_policy(flow, path)
        self.assign(flow, policy, capacitated=enforce_capacity)
        if self.provenance_notes:
            self.last_route = {
                "cost": float(cost),
                "capacitated": enforce_capacity,
            }
        return policy

    def total_cost(self, flows: Iterable[ShuffleFlow]) -> float:
        """Objective of Eq 3 over installed policies."""
        return sum(
            self.policy_cost(f) for f in flows if f.flow_id in self._policies
        )
