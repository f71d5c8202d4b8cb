"""Preference construction for the stable matching (Sections 5.2.1-5.2.2).

Algorithm 1 ends with an ``M x N`` preference matrix ``P``: for every server
``s`` and container-hosting-task ``c``, ``P(s, c)`` grades the assignment of
``c`` onto ``s``.  We materialise the matrix from the cost side:

* ``cost[s, c]`` — the shuffle cost ``C_c(s)`` of hosting container ``c`` on
  server ``s`` (generalised Eq 9): the sum over incident flows of the
  optimal-route cost to the opposite endpoint's current server.
* A **container** ranks servers by ``cost[s, c]`` ascending — identical to
  ranking by utility ``U(A(c) -> s) = C_c(A(c)) - C_c(s)`` descending
  (Eq 10), since the first term is constant per container.
* A **server** ranks containers by that same utility descending: it prefers
  the tenants that gain the most traffic-cost reduction from living there.
  (This is the asymmetry that makes the matching problem non-trivial: the
  container term ``C_c(A(c))`` varies across containers.)

Route costs are evaluated with the capacity constraint relaxed (grading
pass — feasibility is enforced at matching and policy-installation time).
With capacities relaxed the optimal route between two servers is independent
of the flow's rate, so the costs depend only on the server pair — and the
grading pass prices them **by fixed endpoint**: one batched layered min-plus
DP (:func:`~repro.topology.routing.single_source_unit_costs`) rooted at each
server that hosts an opposite flow endpoint yields that server's unit-cost
column over all ``S`` candidates, and each preference column is assembled as
``column += rate * cache.column(other)`` array gathers.  Only the columns
actually referenced are ever priced — a handful out of ``S`` on large
fabrics — and they are keyed to the controller's load version and re-priced
only when switch loads actually change, so every consumer in a sweep
(grading, the matching fallback, subsequent-wave placement) shares one set
of builds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.resources import Resources
from ..obs.runtime import STATE as _OBS
from ..topology.routing import attach_table, single_source_unit_costs
from .taa import TAAInstance

__all__ = ["PreferenceMatrix", "build_preference_matrix", "PairCostCache"]


class PairCostCache:
    """Unit-rate optimal route costs between server pairs, column-backed.

    ``column(b)[i]`` is the relaxed-capacity optimal route cost between
    servers ``server_ids[i]`` and ``b`` at rate 1, priced by one batched
    layered min-plus pass *from* ``b``
    (:func:`~repro.topology.routing.single_source_unit_costs`).  Costs are
    mathematically symmetric — reversing an undirected path traverses the
    same switches — so the pricing direction only fixes the floating-point
    summation order; every consumer (this cache, the grading pass, and the
    scalar reference in :mod:`repro.core.scalar_ref`) prices from the
    *fixed* endpoint (the second argument / the column server), which keeps
    the vectorised and scalar implementations bit-identical.

    Columns are priced **lazily**: the grading pass only needs the columns
    of servers that currently host an opposite flow endpoint — on a large
    fabric a tiny subset of all ``S`` columns — so an all-pairs build would
    be almost entirely wasted work.  Priced columns are invalidated
    automatically whenever the controller's switch loads change
    (:attr:`PolicyController.load_version`), so one long-lived cache can be
    shared across sweeps.

    Servers that hang off one switch share that switch's pass.  Every route
    from such a server ``s`` enters its switch ``e`` first, and ``s`` costs
    0.0, so the pass from ``s`` adds the same floats in the same order as
    the pass from ``e`` at every node but ``s`` itself, where it holds
    ``node_costs[s]``.  Multi-homed servers (BCube) and servers with a
    nonzero cost keep a pass of their own.
    """

    def __init__(self, taa: TAAInstance) -> None:
        self._taa = taa
        self._server_ids: tuple[int, ...] = taa.cluster.server_ids
        self._server_index: dict[int, int] = {
            s: i for i, s in enumerate(self._server_ids)
        }
        self._servers_arr = np.asarray(self._server_ids, dtype=np.int64)
        self._columns: dict[int, np.ndarray] = {}
        #: Attach switch -> its single-source column, for the current loads.
        self._switch_columns: dict[int, np.ndarray] = {}
        self._attach = attach_table(taa.topology)
        self._node_costs: np.ndarray | None = None
        self._version: int = -1
        # Server capacities never change, so the per-server capacity rows
        # and each distinct demand's misfit mask are built once.
        self._capacities: np.ndarray | None = None
        self._misfits: dict[tuple[float, float], np.ndarray] = {}

    # --------------------------------------------------------------- building
    def _sync(self) -> None:
        """Drop stale columns when the controller's switch loads changed."""
        controller = self._taa.controller
        if self._node_costs is None or self._version != controller.load_version:
            self._columns.clear()
            self._switch_columns.clear()
            self._node_costs = controller.all_node_costs()
            self._version = controller.load_version

    def _single_source(self, root: int) -> np.ndarray:
        """One layered min-plus pass from ``root``, read at every server."""
        topology, costs = self._taa.topology, self._node_costs
        if _OBS.enabled:
            _OBS.tracer.count("pref.unit_matrix.build")
            with _OBS.tracer.timeit("pref.unit_matrix"):
                best = single_source_unit_costs(topology, root, costs)
        else:
            best = single_source_unit_costs(topology, root, costs)
        return best[self._servers_arr]

    def _price_column(self, server_id: int) -> np.ndarray:
        switch = self._attach[server_id]
        own_cost = self._node_costs[server_id]
        if switch < 0 or own_cost != 0.0:
            column = self._single_source(server_id)
        else:
            shared = self._switch_columns.get(switch)
            if shared is None:
                shared = self._single_source(switch)
                self._switch_columns[switch] = shared
            column = shared.copy()
            column[self._server_index[server_id]] = own_cost
        column.setflags(write=False)
        return column

    # -------------------------------------------------------------- accessors
    @property
    def matrix(self) -> np.ndarray:
        """The ``S x S`` all-pairs unit-cost matrix (prices every column).

        ``matrix[i, j]`` is priced from ``server_ids[j]``; use only when all
        pairs are genuinely needed — consumers that touch a handful of fixed
        endpoints should use :meth:`column` and keep the build lazy.
        """
        return np.stack(
            [self.column(s) for s in self._server_ids], axis=1
        )

    @property
    def server_ids(self) -> tuple[int, ...]:
        return self._server_ids

    @property
    def server_index(self) -> dict[int, int]:
        """``{server_id: row/column index}`` into :attr:`matrix`."""
        return self._server_index

    def unit_cost(self, a: int, b: int) -> float:
        """Optimal route cost between servers ``a`` and ``b`` at rate 1.

        Priced from ``b`` (see the class docstring); ``unit_cost(a, b)`` and
        ``unit_cost(b, a)`` are equal up to summation order.
        """
        if a == b:
            return 0.0
        return float(self.column(b)[self._server_index[a]])

    def column(self, server_id: int) -> np.ndarray:
        """Unit costs between *every* server and ``server_id``, from one
        single-source pass rooted at ``server_id`` (priced lazily, memoised
        per load version)."""
        self._sync()
        cached = self._columns.get(server_id)
        if cached is None:
            cached = self._columns[server_id] = self._price_column(server_id)
        return cached

    def misfits(self, demand: Resources) -> np.ndarray:
        """Boolean mask over :attr:`server_ids`: servers whose *total*
        capacity ``demand`` exceeds in some component (read-only)."""
        key = demand.as_tuple()
        mask = self._misfits.get(key)
        if mask is None:
            if self._capacities is None:
                cluster = self._taa.cluster
                self._capacities = np.array(
                    [cluster.capacity(s).as_tuple() for s in self._server_ids],
                    dtype=np.float64,
                )
            mask = (self._capacities < np.asarray(key, dtype=np.float64)).any(
                axis=1
            )
            mask.setflags(write=False)
            self._misfits[key] = mask
        return mask

    def __len__(self) -> int:
        """Number of source columns currently priced (0 until first use)."""
        return len(self._columns)


@dataclass
class PreferenceMatrix:
    """The graded ``M x N`` matrix and both sides' derived rankings."""

    server_ids: tuple[int, ...]
    container_ids: tuple[int, ...]
    #: ``cost[i, j]`` = C of hosting container ``container_ids[j]`` on server
    #: ``server_ids[i]``; ``inf`` marks statically infeasible pairs (demand
    #: exceeds the server's total capacity).
    cost: np.ndarray
    #: Per container: cost at its current placement (``inf`` when unplaced).
    current_cost: np.ndarray

    def __post_init__(self) -> None:
        self._server_index = {s: i for i, s in enumerate(self.server_ids)}
        self._container_index = {c: j for j, c in enumerate(self.container_ids)}
        self._server_arr = np.asarray(self.server_ids, dtype=np.int64)
        #: Both sides' rankings, each built for the whole matrix in one
        #: batched pass on first use (:meth:`server_rank_array`,
        #: :meth:`container_ranking`).
        self._server_ranks: np.ndarray | None = None
        self._rankings: list[list[int]] | None = None

    # ------------------------------------------------------------- accessors
    @property
    def server_index(self) -> dict[int, int]:
        """``{server_id: row index}`` into :attr:`cost`."""
        return self._server_index

    @property
    def container_index(self) -> dict[int, int]:
        """``{container_id: column index}`` into :attr:`cost`."""
        return self._container_index

    def grade(self, server_id: int, container_id: int) -> float:
        """The paper's ``P(s, c)``: higher is better (negated cost)."""
        return -float(
            self.cost[self._server_index[server_id], self._container_index[container_id]]
        )

    def utility(self, server_id: int, container_id: int) -> float:
        """Eq 10 utility of moving the container to the server."""
        j = self._container_index[container_id]
        return float(self.current_cost[j]) - float(
            self.cost[self._server_index[server_id], j]
        )

    def container_ranking(self, container_id: int) -> list[int]:
        """Server ids the container prefers, best (lowest cost) first.

        Statically infeasible servers are omitted.  Ties break toward the
        lower server id for determinism.
        """
        if self._rankings is None:
            # One stable argsort over the columns ranks every container.
            # Costs are never -inf, and inf (and nan) sort last, so each
            # column's finite entries are a prefix of its order.
            order = np.argsort(self.cost.T, axis=1, kind="stable")
            finite = np.isfinite(self.cost).sum(axis=0).tolist()
            servers = self._server_arr[order].tolist()
            self._rankings = [row[:k] for row, k in zip(servers, finite)]
        return self._rankings[self._container_index[container_id]]

    #: Rank value marking a statically infeasible (server, container) pair in
    #: :meth:`server_rank_array` — always at-or-beyond a server's
    #: rejected-top threshold, so the matching loop skips such proposals just
    #: as it would a missing rank.
    INFEASIBLE_RANK_OFFSET = 1

    def server_rank_array(self, server_id: int) -> np.ndarray:
        """Rank vector of one server (read-only).

        ``result[j]`` is the rank (0 = most preferred) the server gives
        container ``container_ids[j]``, consistent with
        :meth:`server_ranking`; statically infeasible containers get the
        sentinel ``len(container_ids) + INFEASIBLE_RANK_OFFSET`` instead of a
        rank.

        The first call ranks every server at once, with one row-wise stable
        argsort.  A stable sort's permutation is unique, so each row equals
        that server's own 1-D argsort of its negated utilities.
        """
        if self._server_ranks is None:
            # Sort key -U (Eq 10): cost minus the container's current cost,
            # which is 0.0 for an unplaced container (graded by the raw
            # P(s, c)).  It equals the negated utility up to the sign of a
            # zero, which no comparison sees.
            current = np.where(
                np.isfinite(self.current_cost), self.current_cost, 0.0
            )
            order = np.argsort(self.cost - current, axis=1, kind="stable")
            m, n = self.cost.shape
            ranks = np.empty_like(order)
            ranks[np.arange(m)[:, None], order] = np.arange(n)
            # Containers that cannot fit (cost inf) sort after every one
            # that can, so the feasible keep ranks 0..k-1; the rest get the
            # sentinel.
            ranks[~np.isfinite(self.cost)] = n + self.INFEASIBLE_RANK_OFFSET
            ranks.setflags(write=False)
            self._server_ranks = ranks
        return self._server_ranks[self._server_index[server_id]]

    def server_ranking(self, server_id: int) -> list[int]:
        """Container ids the server prefers, highest utility first."""
        ranks = self.server_rank_array(server_id)
        return [
            self.container_ids[j]
            for j in np.argsort(ranks, kind="stable")
            if ranks[j] < len(self.container_ids)
        ]

    def server_rank_of(self, server_id: int) -> dict[int, int]:
        """``{container_id: rank}`` (0 = most preferred) for one server."""
        ranks = self.server_rank_array(server_id)
        n = len(self.container_ids)
        return {
            c: int(ranks[j])
            for j, c in enumerate(self.container_ids)
            if ranks[j] < n
        }


def build_preference_matrix(
    taa: TAAInstance,
    container_ids: list[int] | None = None,
    cache: PairCostCache | None = None,
) -> PreferenceMatrix:
    """Run the grading pass of Algorithm 1 and assemble the matrix.

    ``container_ids`` restricts the columns (subsequent-wave scheduling only
    grades the new Map containers); by default every container that has at
    least one incident flow is graded.  Containers with no flows are
    placement-indifferent — grading them would add all-zero columns.
    ``cache`` lets the caller share one :class:`PairCostCache` (and its
    all-pairs matrix) across the grading pass and the matching fallback; a
    fresh one is built when omitted.
    """
    if _OBS.enabled:
        with _OBS.tracer.timeit("pref.build"):
            return _build_preference_matrix(taa, container_ids, cache)
    return _build_preference_matrix(taa, container_ids, cache)


def _build_preference_matrix(
    taa: TAAInstance,
    container_ids: list[int] | None,
    cache: PairCostCache | None,
) -> PreferenceMatrix:
    cluster = taa.cluster
    if container_ids is None:
        container_ids = [
            c.container_id
            for c in cluster.containers()
            if taa.flows_of_container(c.container_id)
        ]
    server_ids = cluster.server_ids
    if cache is None:
        cache = PairCostCache(taa)
    server_index = cache.server_index

    m, n = len(server_ids), len(container_ids)
    cost = np.zeros((m, n), dtype=np.float64)
    current = np.full(n, np.inf, dtype=np.float64)
    # Failed servers are blacklisted outright: an inf cost removes them from
    # every container's ranking and gives them the server-side sentinel
    # rank, so Algorithm 2 never proposes to a dead server.
    failed = cluster.failed_servers
    failed_rows = (
        np.array([i for i, s in enumerate(server_ids) if s in failed])
        if failed
        else None
    )

    for j, cid in enumerate(container_ids):
        container = cluster.container(cid)
        # Column of per-server costs, accumulated flow by flow as gathers
        # out of the shared all-pairs matrix.
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
            column += flow.rate * cache.column(other_server)
        # Static feasibility: demand must fit the server's *total* capacity
        # (matching re-packs everything, so residuals are checked there).
        column[cache.misfits(container.demand)] = np.inf
        if failed_rows is not None and failed_rows.size:
            column[failed_rows] = np.inf
        cost[:, j] = column
        if container.server_id is not None:
            current[j] = column[server_index[container.server_id]]

    return PreferenceMatrix(
        server_ids=server_ids,
        container_ids=tuple(container_ids),
        cost=cost,
        current_cost=current,
    )
