"""Runtime invariant checking for the Hit-Scheduler reproduction.

The paper states correctness properties the algorithms must maintain but the
seed code never enforced at runtime; :class:`InvariantChecker` makes them
machine-checkable (paper references in parentheses):

* **server-capacity** — placed containers never oversubscribe a server's
  resource vector ``q_j`` (Eq 3, fourth constraint), and the cluster's cached
  usage equals the per-container re-derivation.
* **switch-capacity** — the aggregate rate of *capacity-negotiated* policies
  through a switch never exceeds its capacity (Eq 3, fifth constraint /
  Eq 4).  Policies installed with capacity enforcement waived (the static /
  ECMP baselines and the saturation fallback) are exempt by design — the
  paper's constraint binds the optimiser, not the baselines it out-performs.
  Eq 4 binds a switch only while negotiated rate crosses it: there the
  negotiated rate plus the base load it was routed around must fit.  A
  planning instance imports the live fabric's *total* load as base load,
  exempt traffic included, so a switch may start over capacity; with no
  negotiated rate on it nothing the optimiser placed is at stake (the
  negotiation itself keeps new flows off it), and it is not flagged.
* **switch-load-consistency** — the controller's incremental load accounting
  equals the load recomputed from scratch off the installed policies (no
  float drift, no stale entries).
* **policy-satisfaction** — every installed policy is satisfied by the
  topology: switch types match the requirement list in order (Eq 3, sixth
  constraint) and consecutive path nodes are physically linked.
* **matching-stability** — Algorithm 2's output admits no blocking pair
  (Theorem 2).
* **flow-conservation** — in the fluid network, every active flow carries
  one non-negative rate along its whole path, remaining volume never goes
  negative, and per-resource aggregate rates respect link/switch capacities
  (the max-min allocation is feasible).
* **path-liveness** — while faults are live, no active flow's path touches a
  currently-failed switch or a dead link (failed, or degraded to a capacity
  factor of 0.0) — the routing half of the survivability contract
  (``docs/fault_model.md``).
* **quiescence** — when a simulation drains, switch loads return to exactly
  their base values and no flow or policy is left behind.
* **one-committed-attempt** / **no-killed-flow** — the speculative-execution
  commit protocol (``repro.speculation``): a map output commits at most once
  while a previous commit is live, and every shuffle flow reads from the
  committed output's server, never from a killed attempt.
* **online-accounting** — the overload contract (``docs/workload.md``):
  under the online workload plane, every submitted job is exactly one of
  completed / still-queued / rejected-with-reason (no silent drops), every
  admitted job either started or is still queued, and the per-tenant queue
  length never exceeded the configured bound.

The checker is deliberately dependency-light: every check takes the object
it inspects, so it can be used standalone in tests or installed process-wide
via :mod:`repro.obs.runtime` and driven by the opt-in hooks in
``core/policy.py``, ``core/matching.py``, ``core/hit.py`` and
``simulator/engine.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from ..cluster.resources import Resources

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..cluster.state import ClusterState
    from ..core.matching import MatchingResult
    from ..core.policy import PolicyController
    from ..core.preference import PreferenceMatrix
    from ..core.taa import TAAInstance
    from ..faults.injector import FaultInjector
    from ..simulator.network import FlowNetwork

__all__ = ["InvariantViolation", "InvariantError", "InvariantChecker"]


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach, with enough context to debug it."""

    invariant: str
    detail: str
    where: str = ""

    def __str__(self) -> str:
        site = f" @ {self.where}" if self.where else ""
        return f"[{self.invariant}{site}] {self.detail}"


class InvariantError(AssertionError):
    """Raised in ``raise`` mode; carries the full violation list."""

    def __init__(self, violations: list[InvariantViolation]) -> None:
        self.violations = violations
        preview = "; ".join(str(v) for v in violations[:5])
        super().__init__(
            f"{len(violations)} invariant violation(s): {preview}"
        )


class InvariantChecker:
    """Runtime verifier for the paper's correctness invariants.

    ``mode='raise'`` aborts on the first failing check (tests, CI smoke
    runs); ``mode='collect'`` accumulates violations for a post-run report
    (the CLI's ``--check-invariants``).  ``tolerance`` absorbs float noise
    in rate/capacity comparisons.
    """

    def __init__(self, mode: str = "raise", tolerance: float = 1e-6) -> None:
        if mode not in ("raise", "collect"):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.tolerance = tolerance
        self.violations: list[InvariantViolation] = []
        self.checks_run = 0

    # ------------------------------------------------------------- reporting
    def _emit(
        self, found: list[InvariantViolation]
    ) -> list[InvariantViolation]:
        self.checks_run += 1
        if found:
            self.violations.extend(found)
            if self.mode == "raise":
                raise InvariantError(found)
        return found

    def summary(self) -> dict[str, Any]:
        """Per-invariant violation counts plus totals, for reports."""
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.invariant] = counts.get(v.invariant, 0) + 1
        return {
            "checks_run": self.checks_run,
            "violations": len(self.violations),
            "by_invariant": dict(sorted(counts.items())),
        }

    def reset(self) -> None:
        self.violations.clear()
        self.checks_run = 0

    # ------------------------------------------------------- individual checks
    def check_server_capacity(
        self, cluster: "ClusterState", where: str = ""
    ) -> list[InvariantViolation]:
        """Eq 3 (4th constraint): per-server usage ≤ capacity, caches honest."""
        found: list[InvariantViolation] = []
        for sid in cluster.server_ids:
            total = Resources.zero()
            for cid in cluster.hosted_on(sid):
                c = cluster.container(cid)
                if c.server_id != sid:
                    found.append(InvariantViolation(
                        "server-capacity",
                        f"container {cid} listed on server {sid} but "
                        f"points at {c.server_id}",
                        where,
                    ))
                total = total + c.demand
            used = cluster.used(sid)
            if not total.matches(used):
                found.append(InvariantViolation(
                    "server-capacity",
                    f"server {sid} usage cache {used.as_tuple()} != "
                    f"re-derived {total.as_tuple()}",
                    where,
                ))
            if not used.fits_in(cluster.capacity(sid)):
                found.append(InvariantViolation(
                    "server-capacity",
                    f"server {sid} used {used.as_tuple()} exceeds capacity "
                    f"{cluster.capacity(sid).as_tuple()}",
                    where,
                ))
        return self._emit(found)

    def check_switch_capacity(
        self,
        controller: "PolicyController",
        where: str = "",
        switches: Iterable[int] | None = None,
    ) -> list[InvariantViolation]:
        """Eq 4: capacity-negotiated load on each switch ≤ its capacity.

        Only switches that carry negotiated rate are bound (see the module
        docstring): imported base load alone over capacity is not a breach.
        ``switches`` restricts the scan (the per-mutation hook checks only
        the switches a policy touches); by default every switch is checked.
        """
        found: list[InvariantViolation] = []
        topo = controller.topology
        ids = topo.switch_ids if switches is None else switches
        for w in ids:
            if not controller.negotiated_load(w):
                continue
            load = controller.capacitated_load(w)
            capacity = topo.switch(w).capacity
            if load > capacity + self.tolerance:
                found.append(InvariantViolation(
                    "switch-capacity",
                    f"switch {w}: capacitated load {load:g} > capacity "
                    f"{capacity:g}",
                    where,
                ))
        return self._emit(found)

    def check_switch_load_consistency(
        self, controller: "PolicyController", where: str = ""
    ) -> list[InvariantViolation]:
        """Incremental load accounting == recompute-from-policies."""
        found: list[InvariantViolation] = []
        expected = controller.recomputed_loads()
        for w in controller.topology.switch_ids:
            tracked = controller.load(w) - controller.base_load(w)
            if abs(tracked - expected[w]) > self.tolerance:
                found.append(InvariantViolation(
                    "switch-load-consistency",
                    f"switch {w}: tracked load {tracked!r} != recomputed "
                    f"{expected[w]!r}",
                    where,
                ))
            if tracked < -self.tolerance:
                found.append(InvariantViolation(
                    "switch-load-consistency",
                    f"switch {w}: negative tracked load {tracked!r}",
                    where,
                ))
        return self._emit(found)

    def check_policy_satisfaction(
        self, controller: "PolicyController", where: str = ""
    ) -> list[InvariantViolation]:
        """Eq 3 (6th constraint): installed policies satisfied by topology."""
        found: list[InvariantViolation] = []
        topo = controller.topology
        for fid, policy in controller.policies().items():
            if not policy.is_satisfied_by(topo):
                found.append(InvariantViolation(
                    "policy-satisfaction",
                    f"flow {fid}: switch types diverge from requirement list",
                    where,
                ))
            expected_switches = tuple(
                n for n in policy.path if topo.is_switch(n)
            )
            if expected_switches != policy.switch_list:
                found.append(InvariantViolation(
                    "policy-satisfaction",
                    f"flow {fid}: switch_list {policy.switch_list} does not "
                    f"match path switches {expected_switches}",
                    where,
                ))
            for a, b in zip(policy.path, policy.path[1:]):
                if not topo.has_link(a, b):
                    found.append(InvariantViolation(
                        "policy-satisfaction",
                        f"flow {fid}: hop {a}->{b} is not a physical link",
                        where,
                    ))
                    break
        return self._emit(found)

    def check_matching_stability(
        self,
        result: "MatchingResult",
        preferences: "PreferenceMatrix",
        cluster: "ClusterState",
        where: str = "",
    ) -> list[InvariantViolation]:
        """Theorem 2: Algorithm 2's output admits no blocking pair."""
        from ..core.matching import find_blocking_pairs

        pairs = find_blocking_pairs(result, preferences, cluster)
        found = [
            InvariantViolation(
                "matching-stability",
                f"blocking pair: container {c} and server {s}",
                where,
            )
            for c, s in pairs
        ]
        return self._emit(found)

    def check_flow_conservation(
        self, network: "FlowNetwork", where: str = ""
    ) -> list[InvariantViolation]:
        """Fluid-network feasibility: per-flow sanity + resource capacities."""
        found: list[InvariantViolation] = []
        network.ensure_rates()
        topo = network.topology
        usage: dict[int, float] = {}
        for flow in network.active_flows:
            if flow.rate < 0:
                found.append(InvariantViolation(
                    "flow-conservation",
                    f"flow {flow.flow_id}: negative rate {flow.rate!r}",
                    where,
                ))
            if flow.remaining < -self.tolerance:
                found.append(InvariantViolation(
                    "flow-conservation",
                    f"flow {flow.flow_id}: negative remaining "
                    f"{flow.remaining!r}",
                    where,
                ))
            for a, b in zip(flow.path, flow.path[1:]):
                if not topo.has_link(a, b):
                    found.append(InvariantViolation(
                        "flow-conservation",
                        f"flow {flow.flow_id}: hop {a}->{b} is not a "
                        f"physical link",
                        where,
                    ))
                    break
            switches = sum(1 for n in flow.path if topo.is_switch(n))
            if switches != flow.num_switches:
                found.append(InvariantViolation(
                    "flow-conservation",
                    f"flow {flow.flow_id}: num_switches {flow.num_switches} "
                    f"!= path switch count {switches}",
                    where,
                ))
            for res in flow.resources:
                usage[res] = usage.get(res, 0.0) + flow.rate
        caps = network.resource_capacities
        for res, used in usage.items():
            cap = float(caps[res])
            if used > cap + self.tolerance * max(1.0, cap):
                found.append(InvariantViolation(
                    "flow-conservation",
                    f"resource {res}: aggregate rate {used:g} > capacity "
                    f"{cap:g}",
                    where,
                ))
        return self._emit(found)

    def check_path_liveness(
        self,
        network: "FlowNetwork",
        injector: "FaultInjector",
        where: str = "",
    ) -> list[InvariantViolation]:
        """No active flow may traverse a failed switch or a dead link.

        The routing half of the survivability contract: the engine's
        recovery layer must have rerouted or parked every flow touching a
        dead element before simulated time moves again.  A bad flow yields
        one violation, naming the first dead element on its path
        (:meth:`FaultInjector.first_dead`).
        """
        found: list[InvariantViolation] = []
        if injector.any_dead():
            for flow in network.active_flows:
                dead = injector.first_dead(flow.path)
                if dead is not None:
                    found.append(InvariantViolation(
                        "path-liveness",
                        f"flow {flow.flow_id}: path {flow.path} traverses "
                        f"{dead}",
                        where,
                    ))
        return self._emit(found)

    def check_quiescent(
        self,
        controller: "PolicyController",
        network: "FlowNetwork | None" = None,
        where: str = "",
    ) -> list[InvariantViolation]:
        """After a drain: loads exactly at base, nothing left installed."""
        found: list[InvariantViolation] = []
        if network is not None and network.active_flows:
            found.append(InvariantViolation(
                "quiescence",
                f"{len(network.active_flows)} flows still active",
                where,
            ))
        if controller.policies():
            found.append(InvariantViolation(
                "quiescence",
                f"{len(controller.policies())} policies still installed",
                where,
            ))
        for w in controller.topology.switch_ids:
            residual_load = controller.load(w) - controller.base_load(w)
            if residual_load != 0.0:
                found.append(InvariantViolation(
                    "quiescence",
                    f"switch {w}: load {residual_load!r} above base after "
                    f"drain (float drift or stale entry)",
                    where,
                ))
        return self._emit(found)

    def check_speculation(
        self, speculation, where: str = ""
    ) -> list[InvariantViolation]:
        """Drain the speculation ledgers' recorded protocol breaches.

        The two invariants — *one-committed-attempt* (a map output commits
        at most once while a previous commit is live) and *no-killed-flow*
        (shuffle flows read the committed output's server, never a killed
        attempt's) — are detected at the moment of breach by
        :class:`~repro.speculation.runtime.SpeculationState`; this check
        converts the accumulated records into violations at the engine's
        drain checkpoints and at run end.
        """
        found = [
            InvariantViolation(invariant, detail, where)
            for invariant, detail in speculation.drain_violations()
        ]
        return self._emit(found)

    def check_online_accounting(
        self, admission, metrics, where: str = ""
    ) -> list[InvariantViolation]:
        """The overload contract's accounting identity, at end of run.

        Per tenant: ``submitted == admitted + rejected`` (the controller
        decided every arrival), ``admitted == started + queued`` (nothing
        vanished between the queue and the engine), completions never
        exceed starts, and with a configured ``queue_bound`` the tenant's
        peak queue length respected it.  Takes the engine's
        :class:`~repro.workload.admission.AdmissionController` and its
        :class:`~repro.simulator.metrics.MetricsCollector`.
        """
        found: list[InvariantViolation] = []
        counters = admission.counters()
        completed_by_tenant: dict[int, int] = {}
        for job in metrics.jobs:
            completed_by_tenant[job.tenant] = (
                completed_by_tenant.get(job.tenant, 0) + 1
            )
        tenant_ids = sorted(
            {
                int(key.split(".")[2])
                for key in counters
                if key.startswith("admission.tenant.")
            }
        )
        for tenant in tenant_ids:
            prefix = f"admission.tenant.{tenant}"
            submitted = counters[f"{prefix}.submitted"]
            admitted = counters[f"{prefix}.admitted"]
            rejected = counters[f"{prefix}.rejected"]
            started = counters[f"{prefix}.started"]
            queued = counters[f"{prefix}.queued"]
            if submitted != admitted + rejected:
                found.append(InvariantViolation(
                    "online-accounting",
                    f"tenant {tenant}: submitted {submitted} != admitted "
                    f"{admitted} + rejected {rejected}",
                    where,
                ))
            if admitted != started + queued:
                found.append(InvariantViolation(
                    "online-accounting",
                    f"tenant {tenant}: admitted {admitted} != started "
                    f"{started} + queued {queued}",
                    where,
                ))
            completed = completed_by_tenant.get(tenant, 0)
            if completed > started:
                found.append(InvariantViolation(
                    "online-accounting",
                    f"tenant {tenant}: {completed} completions exceed "
                    f"{started} starts",
                    where,
                ))
            bound = admission.config.queue_bound
            if (
                admission.config.policy == "queue-bound"
                and bound is not None
                and counters[f"{prefix}.max_queue_len"] > bound
            ):
                found.append(InvariantViolation(
                    "online-accounting",
                    f"tenant {tenant}: peak queue length "
                    f"{counters[f'{prefix}.max_queue_len']} exceeds "
                    f"configured bound {bound}",
                    where,
                ))
        rejects_recorded = len(metrics.rejections)
        rejects_counted = counters["admission.rejected"]
        if rejects_recorded != rejects_counted:
            found.append(InvariantViolation(
                "online-accounting",
                f"{rejects_counted} rejections counted but "
                f"{rejects_recorded} rejection records kept",
                where,
            ))
        return self._emit(found)

    # --------------------------------------------------------- composite view
    def check_controller(
        self, controller: "PolicyController", where: str = ""
    ) -> list[InvariantViolation]:
        """All policy-side invariants of one controller."""
        found: list[InvariantViolation] = []
        found += self.check_switch_capacity(controller, where)
        found += self.check_switch_load_consistency(controller, where)
        found += self.check_policy_satisfaction(controller, where)
        return found

    def check_taa(
        self, taa: "TAAInstance", where: str = ""
    ) -> list[InvariantViolation]:
        """Compute- and network-side invariants of a live TAA instance."""
        found: list[InvariantViolation] = []
        found += self.check_server_capacity(taa.cluster, where)
        found += self.check_controller(taa.controller, where)
        return found
