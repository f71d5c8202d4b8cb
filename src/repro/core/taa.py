"""Topology Aware Assignment (TAA) problem instances.

A TAA instance (Section 3/4 of the paper) bundles the four sets of the
formulation — containers ``C`` (with tasks), servers ``S``, flows ``F`` and
switches ``W`` (via the policy controller) — and exposes the objective and
the constraint checks of Eq 3.  Schedulers mutate the instance (placing
containers, installing policies); :meth:`TAAInstance.verify_constraints`
asserts the invariants after any strategy has run, and
:meth:`TAAInstance.total_shuffle_cost` is the quantity every experiment
reports.

The problem is NP-hard (the paper reduces Multiple Knapsack to it), which is
why the library pairs this exact formulation with the stable-matching
heuristic of Section 5 and a brute-force solver
(:mod:`repro.core.exact`) for small-instance validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..cluster.container import Container, TaskKind
from ..cluster.state import ClusterState
from ..mapreduce.shuffle import ShuffleFlow
from ..topology.base import Topology
from .policy import CostModel, NoFeasiblePathError, Policy, PolicyController

__all__ = ["ConstraintViolation", "TAAInstance"]


@dataclass(frozen=True)
class ConstraintViolation:
    """One violated constraint of Eq 3, for diagnostics."""

    constraint: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.constraint}] {self.detail}"


class TAAInstance:
    """A live TAA optimisation instance.

    Parameters
    ----------
    topology:
        The hierarchical fabric (servers + typed, capacitated switches).
    containers:
        The container set ``C``; each optionally carries a task reference.
    flows:
        The shuffle flow set ``F`` with container endpoints.
    cost_model:
        Per-switch traversal pricing; defaults to the paper's uniform
        ``c_s = 1`` with a small congestion tie-breaker.
    """

    def __init__(
        self,
        topology: Topology,
        containers: Iterable[Container],
        flows: Sequence[ShuffleFlow],
        cost_model: CostModel | None = None,
        max_slack: int = 2,
        cluster: ClusterState | None = None,
        controller: PolicyController | None = None,
    ) -> None:
        """``cluster``/``controller`` let a caller wrap shared state.

        The simulator builds per-job *planning* instances over the live
        shared :class:`ClusterState` (so other jobs' containers constrain
        capacity) but with a private controller pre-loaded with the live
        switch loads — optimising one job must not clear another job's
        installed policies.
        """
        self.topology = topology
        self.cluster = cluster if cluster is not None else ClusterState(topology)
        self.cluster.add_containers(containers)
        self.flows: tuple[ShuffleFlow, ...] = tuple(flows)
        self.controller = controller or PolicyController(
            topology, cost_model=cost_model, max_slack=max_slack
        )
        self._flows_by_container: dict[int, list[ShuffleFlow]] = {}
        for flow in self.flows:
            self._flows_by_container.setdefault(flow.src_container, []).append(flow)
            self._flows_by_container.setdefault(flow.dst_container, []).append(flow)

    # ------------------------------------------------------------- accessors
    def flows_of_container(self, container_id: int) -> list[ShuffleFlow]:
        """Flows incident to a container (source or destination side)."""
        return list(self._flows_by_container.get(container_id, ()))

    @property
    def num_containers(self) -> int:
        return self.cluster.num_containers

    # ------------------------------------------------------------- objective
    def total_shuffle_cost(self) -> float:
        """Objective of Eq 3 over the currently installed policies."""
        return self.controller.total_cost(self.flows)

    def install_all_policies(self, enforce_capacity: bool = True) -> None:
        """(Re)route every flow optimally for the current placement.

        Flows between co-located containers get an empty policy (zero
        switches, zero cost).  Flows are routed in decreasing-rate order so
        heavy flows grab the cheap routes first — the natural greedy order
        for the knapsack-like capacity constraints.  Flows with an unplaced
        endpoint are skipped (their routing is decided when the endpoint
        lands).
        """
        self.controller.clear()
        for flow in sorted(self.flows, key=lambda f: -f.rate):
            src = self.cluster.container(flow.src_container).server_id
            dst = self.cluster.container(flow.dst_container).server_id
            if src is None or dst is None:
                continue
            try:
                self.controller.route_flow(flow, src, dst, enforce_capacity)
            except NoFeasiblePathError:
                # Fabric saturated for this flow: carry it anyway on the
                # least-cost route.  The congestion term in the cost model
                # prices the overload; hard-failing would make high-load
                # experiments (Figure 10's saturation knee) impossible.
                try:
                    self.controller.route_flow(
                        flow, src, dst, enforce_capacity=False
                    )
                except NoFeasiblePathError:
                    # Even uncapacitated routing failed: failures have
                    # disconnected the pair (only reachable on partitioned
                    # fabrics).  Leave the flow unrouted — the engine
                    # routes it at launch and parks it until recovery.
                    continue

    def install_static_policies(self) -> None:
        """Route every flow on the deterministic static shortest path.

        This models the topology-unaware baselines (Capacity, Probabilistic
        Network-Aware): each flow follows the single fixed route the fabric's
        forwarding tables would give it, with no load awareness and no
        capacity negotiation.  Switch loads are still charged so the cost
        accounting (and any later Hit optimisation) sees the congestion the
        baseline creates.
        """
        self.controller.clear()
        for flow in self.flows:
            src = self.cluster.container(flow.src_container).server_id
            dst = self.cluster.container(flow.dst_container).server_id
            if src is None or dst is None:
                continue
            if src == dst:
                self.controller.assign(
                    flow, self.controller.make_policy(flow, (src,))
                )
                continue
            path = self.topology.shortest_path(src, dst)
            policy = self.controller.make_policy(flow, path)
            self.controller.assign(flow, policy, capacitated=False)

    def install_ecmp_policies(self, seed: int = 0) -> None:
        """Route every flow on a uniformly random equal-cost shortest path.

        Models ECMP hashing: the fabric spreads flows across the shortest-
        path set by header hash, blind to load and flow size.  This is the
        "network does multipath, scheduler does nothing" baseline — better
        than a single static path on redundant fabrics, but it cannot react
        to congestion the way Algorithm 1 does.
        """
        import numpy as np

        from ..topology.routing import enumerate_paths

        rng = np.random.default_rng(seed)
        self.controller.clear()
        for flow in self.flows:
            src = self.cluster.container(flow.src_container).server_id
            dst = self.cluster.container(flow.dst_container).server_id
            if src is None or dst is None:
                continue
            if src == dst:
                self.controller.assign(
                    flow, self.controller.make_policy(flow, (src,))
                )
                continue
            candidates = enumerate_paths(self.topology, src, dst, slack=0,
                                         limit=64)
            path = candidates[int(rng.integers(len(candidates)))]
            self.controller.assign(
                flow, self.controller.make_policy(flow, path), capacitated=False
            )

    # ------------------------------------------------------------ validation
    def verify_constraints(self) -> list[ConstraintViolation]:
        """Check every constraint of Eq 3; returns the violations (empty =
        feasible)."""
        violations: list[ConstraintViolation] = []

        # (1) every container deployed on exactly one server.
        for container in self.cluster.containers():
            if container.server_id is None:
                violations.append(
                    ConstraintViolation(
                        "placement",
                        f"container {container.container_id} is unplaced",
                    )
                )

        # (2)+(3) each task in one container; each container <= one task.
        seen_tasks: dict[str, int] = {}
        for container in self.cluster.containers():
            if container.task is None:
                continue
            key = str(container.task)
            if key in seen_tasks:
                violations.append(
                    ConstraintViolation(
                        "task-hosting",
                        f"task {key} hosted by containers "
                        f"{seen_tasks[key]} and {container.container_id}",
                    )
                )
            seen_tasks[key] = container.container_id

        # (4) server capacity.
        try:
            self.cluster.validate()
        except AssertionError as exc:
            violations.append(ConstraintViolation("server-capacity", str(exc)))

        # (5) switch capacity.
        for w in self.topology.switch_ids:
            load = self.controller.load(w)
            capacity = self.topology.switch(w).capacity
            if load > capacity + 1e-9:
                violations.append(
                    ConstraintViolation(
                        "switch-capacity",
                        f"switch {w} loaded {load:g} > capacity {capacity:g}",
                    )
                )

        # (6) policy satisfaction: types match, path endpoints match the
        # hosting servers, and the path is physically connected.
        for flow in self.flows:
            policy = self.controller.policy_of(flow.flow_id)
            if policy is None:
                continue
            if not policy.is_satisfied_by(self.topology):
                violations.append(
                    ConstraintViolation(
                        "policy-type",
                        f"flow {flow.flow_id}: switch types diverge from policy",
                    )
                )
            src = self.cluster.container(flow.src_container).server_id
            dst = self.cluster.container(flow.dst_container).server_id
            if policy.path[0] != src or policy.path[-1] != dst:
                violations.append(
                    ConstraintViolation(
                        "policy-endpoints",
                        f"flow {flow.flow_id}: path endpoints "
                        f"{policy.path[0]}->{policy.path[-1]} but containers on "
                        f"{src}->{dst}",
                    )
                )
            for a, b in zip(policy.path, policy.path[1:]):
                if not self.topology.has_link(a, b):
                    violations.append(
                        ConstraintViolation(
                            "policy-connectivity",
                            f"flow {flow.flow_id}: hop {a}->{b} is not a link",
                        )
                    )
                    break
        return violations

    def assert_feasible(self) -> None:
        violations = self.verify_constraints()
        if violations:
            summary = "; ".join(str(v) for v in violations[:5])
            raise AssertionError(
                f"TAA instance has {len(violations)} constraint violations: {summary}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TAAInstance(containers={self.num_containers}, "
            f"flows={len(self.flows)}, topology={self.topology.name})"
        )
