"""Hit-Scheduler core: the synergistic TAA optimisation loop (Section 5).

Ties the pieces together exactly as the paper describes:

* **Initial-wave scheduling** (Section 5.3.1): Map and Reduce containers are
  unplaced (or randomly placed, per the paper's assumption), so both flow
  endpoints are free.  Each optimisation round runs Algorithm 1 (optimal
  policies + preference matrix) followed by Algorithm 2 (stable matching of
  containers onto servers); rounds repeat until the total shuffle cost stops
  improving.  The best placement seen is kept — the matching is stable, not
  monotone, so a guard against regression is cheap insurance.
* **Subsequent-wave scheduling** (Section 5.3.2): Reduce endpoints are fixed;
  the new wave's Map containers are placed greedily, heaviest shuffle output
  first, onto the feasible server with the lowest total route cost — the
  O(n^2) strategy of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cluster.state import ClusterState
from ..obs.runtime import STATE as _OBS
from .matching import MatchingResult, stable_match
from .preference import PairCostCache, PreferenceMatrix, build_preference_matrix
from .taa import TAAInstance

__all__ = ["HitConfig", "HitResult", "HitOptimizer"]


@dataclass(frozen=True)
class HitConfig:
    """Knobs of the optimisation loop.

    ``max_rounds`` bounds the Algorithm1+Algorithm2 iterations;
    ``tolerance`` is the minimum relative cost improvement that counts as
    progress; ``seed`` drives the random initial placement.
    """

    max_rounds: int = 4
    tolerance: float = 1e-6
    seed: int = 0


@dataclass
class HitResult:
    """Outcome of an optimisation: per-round cost trace and final placement."""

    cost_trace: list[float]
    #: ``{container_id: server_id}`` over the containers the wave treated
    #: (every container when the optimiser ran unscoped).
    placement: dict[int, int | None]
    matchings: list[MatchingResult] = field(default_factory=list)

    @property
    def initial_cost(self) -> float:
        return self.cost_trace[0]

    @property
    def final_cost(self) -> float:
        return self.cost_trace[-1]

    @property
    def improvement(self) -> float:
        """Fractional cost reduction relative to the initial placement."""
        if self.initial_cost == 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost

    def to_provenance(self) -> dict[str, object]:
        """Wave-level optimisation evidence for the decision-audit plane:
        cost trace endpoints plus each matching round's tie-break path."""
        return {
            "rounds": max(len(self.cost_trace) - 1, 0),
            "initial_cost": float(self.cost_trace[0]) if self.cost_trace else 0.0,
            "final_cost": float(self.cost_trace[-1]) if self.cost_trace else 0.0,
            "improvement": float(self.improvement) if self.cost_trace else 0.0,
            "matchings": [m.to_provenance() for m in self.matchings],
        }


class HitOptimizer:
    """Runs Hit-Scheduler's TAA optimisation over a live instance."""

    def __init__(self, taa: TAAInstance, config: HitConfig | None = None) -> None:
        self.taa = taa
        self.config = config or HitConfig()
        self._rng = np.random.default_rng(self.config.seed)
        # One pair-cost cache for the optimiser's lifetime: it tracks the
        # controller's load version, so the all-pairs matrix is built at most
        # once per sweep and shared by the grading pass, the matching
        # fallback and subsequent-wave placement.
        self._pair_cache = PairCostCache(taa)

    # ------------------------------------------------------------- placement
    def random_initial_placement(
        self, container_ids: list[int] | None = None
    ) -> None:
        """Place unplaced containers on random feasible servers.

        Mirrors the paper's starting assumption ("we assume that they are
        randomly assigned in the beginning").  Raises when the cluster lacks
        aggregate capacity.  ``container_ids`` restricts the pass to a
        subset; by default every unplaced container is treated.
        """
        cluster = self.taa.cluster
        for cid in self._scope(container_ids):
            if cluster.container(cid).is_placed:
                continue
            servers = list(cluster.server_ids)
            self._rng.shuffle(servers)
            for sid in servers:
                if cluster.fits(cid, sid):
                    cluster.place(cid, sid)
                    break
            else:
                raise RuntimeError(f"no server can host container {cid}")

    def _scope(self, container_ids: list[int] | None) -> list[int]:
        """The containers a wave treats, in ascending id order: the given
        subset, or every container of the cluster when ``None``."""
        if container_ids is None:
            return [c.container_id for c in self.taa.cluster.containers()]
        return sorted(set(container_ids))

    def _snapshot(self, scope: list[int]) -> dict[int, int | None]:
        cluster = self.taa.cluster
        return {cid: cluster.container(cid).server_id for cid in scope}

    def _apply_assignment(self, matching: MatchingResult) -> bool:
        """Re-pack the cluster according to a matching.

        All matched containers are unplaced first (so capacity is never
        transiently violated by order-of-moves), then placed at their target.
        Unmatched containers fall back to cheapest-feasible placement.

        Returns whether anything moved: when every matched container already
        sits on its target and nothing is unmatched, the cluster is left
        untouched and the caller can skip the (expensive) policy reinstall —
        reinstalling over an identical placement reproduces the identical
        policies and loads, so skipping it never changes results.
        """
        cluster = self.taa.cluster
        if not matching.unmatched and all(
            cluster.container(cid).server_id == sid
            for cid, sid in matching.assignment.items()
        ):
            return False
        touched = set(matching.assignment) | set(matching.unmatched)
        for cid in touched:
            if cluster.container(cid).is_placed:
                cluster.unplace(cid)
        for cid, sid in matching.assignment.items():
            cluster.place(cid, sid)
        for cid in matching.unmatched:
            self._fallback_place(cid)
        return True

    def _fallback_place(self, container_id: int) -> None:
        """First-fit by route cost for a container the matching rejected."""
        cluster = self.taa.cluster
        cache = self._pair_cache
        best_sid: int | None = None
        best_cost = float("inf")
        for sid in cluster.server_ids:
            if not cluster.fits(container_id, sid):
                continue
            cost = 0.0
            for flow in self.taa.flows_of_container(container_id):
                other_cid = (
                    flow.dst_container
                    if flow.src_container == container_id
                    else flow.src_container
                )
                other = cluster.container(other_cid).server_id
                if other is None:
                    continue
                cost += flow.rate * cache.unit_cost(sid, other)
            if cost < best_cost:
                best_cost, best_sid = cost, sid
        if best_sid is None:
            raise RuntimeError(
                f"no feasible fallback server for container {container_id}"
            )
        cluster.place(container_id, best_sid)

    # ---------------------------------------------------------- initial wave
    def optimize_initial_wave(
        self, container_ids: list[int] | None = None
    ) -> HitResult:
        """Section 5.3.1: joint optimisation of Map and Reduce placement.

        Both flow endpoints are free, which makes a single simultaneous
        matching prone to endpoint swapping (maps chase the reduces' old
        servers while the reduces chase the maps').  The loop therefore
        alternates the matched side — Reduce containers first (they aggregate
        many flows), then Map containers — which is coordinate descent on the
        separable objective of Section 5.1.3; each sweep is an
        Algorithm 1 + Algorithm 2 pass over one side with the other fixed.
        Cost is monitored after every sweep and the best placement wins.

        ``container_ids`` restricts the optimisation to a subset of
        containers (e.g. one newly arrived job in a busy cluster); containers
        outside the subset are never moved, and their resource usage and
        switch loads constrain the optimisation.  Every step — placement
        snapshots, the restore of the best placement and the returned
        ``placement`` — then touches only the subset, so a wave costs the
        same however many containers the cluster has accumulated.
        """
        taa = self.taa
        cluster = taa.cluster
        controller = taa.controller
        scope = self._scope(container_ids)
        self.random_initial_placement(scope)
        taa.install_all_policies()
        best_cost = taa.total_shuffle_cost()
        best_placement = self._snapshot(scope)
        # The routes installed for the best placement.  Only the placement
        # changes inside a wave, so restoring them equals re-routing it.
        best_routes = controller.snapshot_routes()
        trace = [best_cost]
        matchings: list[MatchingResult] = []

        reduce_ids = [
            cid for cid in scope if cluster.container(cid).hosts_reduce
        ]
        map_ids = [cid for cid in scope if cluster.container(cid).hosts_map]
        sides = [reduce_ids, map_ids]
        stale_sweeps = 0
        # Sweep-to-sweep reuse: each side keeps its last preference matrix
        # together with the (load_version, placement_epoch) state it was
        # graded under.  When a sweep comes back to an unchanged state the
        # matrix is reused outright — the grading pass is a pure function of
        # that state, so results are bit-identical to rebuilding it.
        placement_epoch = 0
        side_matrices: dict[int, tuple[tuple, PreferenceMatrix]] = {}

        for round_idx in range(self.config.max_rounds * len(sides)):
            side_idx = round_idx % len(sides)
            side = sides[side_idx]
            side = [cid for cid in side if taa.flows_of_container(cid)]
            if not side:
                continue
            with _OBS.tracer.span(
                "hit.sweep", round=round_idx, containers=len(side)
            ):
                key = (tuple(side), controller.load_version, placement_epoch)
                cached = side_matrices.get(side_idx)
                if cached is not None and cached[0] == key:
                    preferences = cached[1]
                else:
                    preferences = build_preference_matrix(
                        taa, container_ids=side, cache=self._pair_cache
                    )
                    side_matrices[side_idx] = (key, preferences)
                matching = stable_match(preferences, cluster)
                matchings.append(matching)
                if self._apply_assignment(matching):
                    placement_epoch += 1
                    taa.install_all_policies()
            cost = taa.total_shuffle_cost()
            trace.append(cost)
            if _OBS.enabled and _OBS.checker is not None:
                _OBS.checker.check_taa(taa, where=f"hit.sweep[{round_idx}]")
            if cost < best_cost * (1 - self.config.tolerance):
                best_cost = cost
                best_placement = self._snapshot(scope)
                best_routes = controller.snapshot_routes()
                stale_sweeps = 0
            else:
                stale_sweeps += 1
                if stale_sweeps >= len(sides):
                    break

        # Restore the best placement seen (a later sweep may have regressed).
        if self._snapshot(scope) != best_placement:
            self._restore(best_placement)
            controller.restore_routes(best_routes)
        trace.append(taa.total_shuffle_cost())
        return HitResult(
            cost_trace=trace,
            placement=self._snapshot(scope),
            matchings=matchings,
        )

    def _restore(self, placement: dict[int, int | None]) -> None:
        """Put the snapshot's containers back; nothing else moves."""
        cluster = self.taa.cluster
        for cid in placement:
            if cluster.container(cid).is_placed:
                cluster.unplace(cid)
        for cid, sid in placement.items():
            if sid is not None:
                cluster.place(cid, sid)

    # ------------------------------------------------------- subsequent wave
    def optimize_subsequent_wave(self, map_container_ids: list[int]) -> HitResult:
        """Section 5.3.2: Reduce endpoints fixed, place new Map containers.

        Maps are handled heaviest-outgoing-shuffle first; each goes to the
        feasible server minimising its total route cost to the (fixed)
        reduce-side servers.  Runs in O(n^2) route-cost evaluations thanks to
        the pair-cost cache.
        """
        taa = self.taa
        cluster = taa.cluster
        cache = self._pair_cache

        def outgoing_rate(cid: int) -> float:
            return sum(
                f.rate
                for f in taa.flows_of_container(cid)
                if f.src_container == cid
            )

        order = sorted(map_container_ids, key=outgoing_rate, reverse=True)
        for cid in order:
            if cluster.container(cid).is_placed:
                cluster.unplace(cid)
        for cid in order:
            best_sid: int | None = None
            best_cost = float("inf")
            for sid in cluster.server_ids:
                if not cluster.fits(cid, sid):
                    continue
                cost = 0.0
                for flow in taa.flows_of_container(cid):
                    if flow.src_container != cid:
                        continue
                    dst = cluster.container(flow.dst_container).server_id
                    if dst is None:
                        continue
                    cost += flow.rate * cache.unit_cost(sid, dst)
                if cost < best_cost:
                    best_cost, best_sid = cost, sid
            if best_sid is None:
                raise RuntimeError(f"no feasible server for map container {cid}")
            cluster.place(cid, best_sid)
        taa.install_all_policies()
        if _OBS.enabled and _OBS.checker is not None:
            _OBS.checker.check_taa(taa, where="hit.subsequent_wave")
        final = taa.total_shuffle_cost()
        return HitResult(
            cost_trace=[final],
            placement=self._snapshot(self._scope(map_container_ids)),
        )
