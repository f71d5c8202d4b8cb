"""Scalar reference implementations of the vectorised hot-path kernels.

The routing/preference hot path (`PolicyController._dag_best_path`, the
pair-cost cache, `build_preference_matrix`) is implemented with NumPy array
kernels; this module preserves the original per-pair / per-node scalar
implementations verbatim.  They are **not** used by the library at runtime —
they exist so that

* the equivalence suite (``tests/core/test_vector_equivalence.py``) can
  assert the vectorised kernels produce identical paths, costs and matchings
  on randomized instances, and
* ``benchmarks/bench_perf_hotpath.py`` can time the pre-vectorisation code
  against the shipped kernels and record both numbers.

Do not "optimise" these: their value is being the straightforward,
obviously-correct transcription of Algorithm 1's grading pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..topology.routing import enumerate_paths, shortest_path_stages
from .policy import NoFeasiblePathError
from .preference import PreferenceMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .policy import PolicyController
    from .taa import TAAInstance

__all__ = [
    "dag_best_path_scalar",
    "optimal_path_scalar",
    "ScalarPairCostCache",
    "build_preference_matrix_scalar",
]

_INF = float("inf")


def dag_best_path_scalar(
    controller: "PolicyController",
    src: int,
    dst: int,
    rate: float,
    enforce_capacity: bool,
) -> tuple[int, ...] | None:
    """The original frontier-dict DP over :func:`shortest_path_stages`.

    Failed switches and failed links are skipped outright: a dead element
    forbids a route at any price, capacitated or not.
    """
    stages = shortest_path_stages(controller.topology, src, dst)
    topo = controller.topology
    # frontier[node] = cumulative cost at the previous stage.
    frontier: dict[int, float] = {src: 0.0}
    parents: dict[int, int] = {}
    for stage in stages[1:]:
        nxt: dict[int, float] = {}
        for node in stage:
            if topo.is_switch(node) and controller.is_switch_failed(node):
                continue
            if (
                enforce_capacity
                and topo.is_switch(node)
                and controller.residual(node) < rate
            ):
                continue
            node_cost = (
                controller.cost_model.switch_cost(
                    topo, node, controller.load(node)
                )
                if topo.is_switch(node)
                else 0.0
            )
            best_total = _INF
            best_prev: int | None = None
            for prev, prev_cost in frontier.items():
                if not topo.has_link(prev, node):
                    continue
                if controller.is_link_failed(prev, node):
                    continue
                total = prev_cost + node_cost
                if total < best_total or (
                    total == best_total
                    and best_prev is not None
                    and prev < best_prev
                ):
                    best_total = total
                    best_prev = prev
            if best_prev is not None:
                nxt[node] = best_total
                parents[node] = best_prev
        if not nxt:
            return None
        frontier = nxt
    if dst not in frontier:
        return None
    # Backtrack.
    path = [dst]
    node = dst
    while node != src:
        node = parents[node]
        path.append(node)
    return tuple(reversed(path))


def _path_alive_scalar(
    controller: "PolicyController", path: tuple[int, ...]
) -> bool:
    """No failed switch on the path and no failed link between its hops."""
    if any(controller.is_switch_failed(n) for n in path):
        return False
    return not any(
        controller.is_link_failed(a, b) for a, b in zip(path, path[1:])
    )


def optimal_path_scalar(
    controller: "PolicyController",
    src_server: int,
    dst_server: int,
    rate: float,
    enforce_capacity: bool = True,
) -> tuple[tuple[int, ...], float]:
    """Scalar counterpart of :meth:`PolicyController.optimal_path`: the
    stage DP, then every slack-extended candidate up to ``max_slack`` under
    the same conditions the shipped fallback runs."""
    if src_server == dst_server:
        return ((src_server,), 0.0)
    path = dag_best_path_scalar(
        controller, src_server, dst_server, rate, enforce_capacity
    )
    if path is not None:
        return path, controller.path_cost(path, rate)
    # Failures alone can empty the shortest-path DAG while a longer live
    # detour exists, so the fallback also runs uncapacitated under faults.
    broken = bool(controller.failed_switches or controller.failed_links)
    if enforce_capacity or broken:
        for slack in range(1, controller.max_slack + 1):
            best: tuple[int, ...] | None = None
            best_cost = _INF
            for candidate in enumerate_paths(
                controller.topology, src_server, dst_server, slack=slack,
                limit=512,
            ):
                if broken and not _path_alive_scalar(controller, candidate):
                    continue
                if enforce_capacity and not controller._path_feasible(
                    candidate, rate
                ):
                    continue
                cost = controller.path_cost(candidate, rate)
                if cost < best_cost:
                    best, best_cost = candidate, cost
            if best is not None:
                return best, best_cost
    raise NoFeasiblePathError(
        f"no feasible path for rate {rate} between servers "
        f"{src_server} and {dst_server}"
    )


class ScalarPairCostCache:
    """The original per-pair memoised cache, one scalar DP per server pair.

    Pairs are priced **from the fixed endpoint** (the second argument) —
    the same canonical orientation the vectorised
    :class:`~repro.core.preference.PairCostCache` uses for its lazy
    per-column pricing — so the two implementations remain bit-identical
    term by term.  (Costs are mathematically symmetric; the orientation
    only pins the floating-point summation order.)
    """

    def __init__(self, taa: "TAAInstance") -> None:
        self._taa = taa
        self._cache: dict[tuple[int, int], float] = {}

    def unit_cost(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        cached = self._cache.get((a, b))
        if cached is None:
            _, cached = optimal_path_scalar(
                self._taa.controller, b, a, rate=1.0,
                enforce_capacity=False,
            )
            self._cache[(a, b)] = cached
        return cached

    def __len__(self) -> int:
        return len(self._cache)


def build_preference_matrix_scalar(
    taa: "TAAInstance",
    container_ids: list[int] | None = None,
    cache: ScalarPairCostCache | None = None,
) -> PreferenceMatrix:
    """The original grading pass: per-server-pair scalar DPs, Python loops."""
    cluster = taa.cluster
    if container_ids is None:
        container_ids = [
            c.container_id
            for c in cluster.containers()
            if taa.flows_of_container(c.container_id)
        ]
    server_ids = cluster.server_ids
    if cache is None:
        cache = ScalarPairCostCache(taa)

    m, n = len(server_ids), len(container_ids)
    cost = np.zeros((m, n), dtype=np.float64)
    current = np.full(n, np.inf, dtype=np.float64)
    server_index = {s: i for i, s in enumerate(server_ids)}

    for j, cid in enumerate(container_ids):
        container = cluster.container(cid)
        column = np.zeros(m, dtype=np.float64)
        for flow in taa.flows_of_container(cid):
            other_cid = (
                flow.dst_container
                if flow.src_container == cid
                else flow.src_container
            )
            other_server = cluster.container(other_cid).server_id
            if other_server is None:
                continue
            unit = np.array(
                [cache.unit_cost(s, other_server) for s in server_ids]
            )
            column += flow.rate * unit
        for i, sid in enumerate(server_ids):
            if not container.demand.fits_in(cluster.capacity(sid)):
                column[i] = np.inf
        cost[:, j] = column
        if container.server_id is not None:
            current[j] = column[server_index[container.server_id]]

    return PreferenceMatrix(
        server_ids=server_ids,
        container_ids=tuple(container_ids),
        cost=cost,
        current_cost=current,
    )
