"""Tasks Assignment Algorithm (Algorithm 2): modified Gale-Shapley.

The preferences of containers and servers can conflict, which the paper casts
as a many-to-one stable matching (college-admissions / hospital-residents
with capacities).  Containers propose; a server accepts while it has residual
resource capacity and otherwise evicts its least-preferred tenants.  Two
refinements from the paper's pseudo-code are implemented faithfully:

* **rejected-top** — each server remembers the best (highest) preference rank
  it has ever rejected;
* **blacklists** — every container the server ranks at-or-below that
  rejected-top treats the server as unavailable from then on.  (We realise
  the blacklist lazily: a proposal to ``s`` is skipped when the proposer's
  rank on ``s`` is no better than ``s``'s rejected-top.  This is equivalent
  to the eager set-union of the pseudo-code and keeps the loop O(M x N).)

A matching is *stable* when no container-server pair ``(c, s)`` both prefer
each other over their current situation; :func:`find_blocking_pairs` checks
that definition directly and is used by the test suite to validate the
implementation on random instances.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..cluster.resources import Resources, clamp_residue
from ..cluster.state import ClusterState
from ..obs.runtime import STATE as _OBS
from .preference import PreferenceMatrix

__all__ = ["MatchingResult", "stable_match", "find_blocking_pairs"]


@dataclass
class MatchingResult:
    """Outcome of Algorithm 2.

    ``assignment`` maps container id -> server id for every matched
    container; ``unmatched`` lists containers whose preference list was
    exhausted (possible when capacities are tight — the caller decides on a
    fallback).  ``proposals`` counts loop iterations, the quantity the
    O(M x N) complexity claim bounds.
    """

    assignment: dict[int, int]
    unmatched: list[int]
    proposals: int
    evictions: int

    def to_provenance(self) -> dict[str, int]:
        """Tie-break path of one matching round, as a decision-record
        payload (see ``repro.obs.provenance``)."""
        return {
            "matched": len(self.assignment),
            "unmatched": len(self.unmatched),
            "proposals": self.proposals,
            "evictions": self.evictions,
        }


def stable_match(
    preferences: PreferenceMatrix,
    cluster: ClusterState,
) -> MatchingResult:
    """Run Algorithm 2 and return the stable assignment.

    ``cluster`` supplies container demands and server capacities; the
    matching works on scratch state and does **not** mutate the cluster —
    the caller applies the assignment (see
    :meth:`~repro.core.hit.HitOptimizer`), since an application step may also
    need to handle unmatched containers.
    """
    container_ids = preferences.container_ids
    in_matrix = set(container_ids)

    # The loop names container ``container_ids[j]`` by its column index j.
    # Container-side preference lists and cursors:
    pref_lists = [preferences.container_ranking(c) for c in container_ids]
    cursors = [0] * len(container_ids)

    # Server-side ranking (0 = most preferred container): ``rank_rows[s][j]``
    # is the rank ``s`` gives container j, with infeasible pairs at the
    # sentinel ``n + 1`` (always at-or-beyond any rejected-top threshold).
    # Rows are fetched as Python lists for the servers proposed to — most
    # servers of a large fabric never are.
    rank_of = preferences.server_rank_array
    unrejected = len(container_ids) + 1

    # Resources travel as plain (memory, vcores) floats, summed and
    # differenced in the order, and with the clamp, of ``Resources``.
    rejected_top: dict[int, int] = {}
    rank_rows: dict[int, list[int]] = {}
    capacity: dict[int, tuple[float, float]] = {}
    used: dict[int, tuple[float, float]] = {}
    accepted: dict[int, set[int]] = {}
    matched_to: dict[int, int] = {}

    demand = [cluster.container(c).demand.as_tuple() for c in container_ids]

    free: deque[int] = deque(range(len(container_ids)))
    proposals = 0
    evictions = 0

    while free:
        j = free.popleft()
        prefs = pref_lists[j]
        while cursors[j] < len(prefs):
            s = prefs[cursors[j]]
            cursors[j] += 1
            ranks = rank_rows.get(s)
            if ranks is None:
                ranks = rank_rows[s] = rank_of(s).tolist()
            if ranks[j] >= rejected_top.get(s, unrejected):
                # Blacklisted (or infeasible): s already rejected a container
                # it prefers to j.
                continue
            proposals += 1
            if s not in capacity:
                # Containers outside this matching round (e.g. the fixed
                # side of an alternating sweep) keep occupying s: charge
                # their demand up-front so the matching never
                # oversubscribes around them.
                capacity[s] = (
                    cluster.capacity(s) - cluster.load_excluding(s, in_matrix)
                ).as_tuple()
                accepted[s] = set()
            # Tentatively accept, then evict least-preferred until feasible.
            hosted = accepted[s]
            hosted.add(j)
            matched_to[j] = s
            cap_mem, cap_cores = capacity[s]
            mem, cores = used.get(s, (0.0, 0.0))
            add_mem, add_cores = demand[j]
            mem, cores = mem + add_mem, cores + add_cores
            while not (mem <= cap_mem and cores <= cap_cores):
                worst = max(hosted, key=ranks.__getitem__)
                hosted.discard(worst)
                out_mem, out_cores = demand[worst]
                mem = clamp_residue(mem - out_mem)
                cores = clamp_residue(cores - out_cores)
                del matched_to[worst]
                evictions += 1
                rejected_top[s] = min(
                    rejected_top.get(s, unrejected), ranks[worst]
                )
                if worst != j:
                    free.append(worst)
            used[s] = (mem, cores)
            if j in hosted:
                break
            # j itself was evicted: continue down its list.
    unmatched = [c for j, c in enumerate(container_ids) if j not in matched_to]
    result = MatchingResult(
        assignment={container_ids[j]: s for j, s in matched_to.items()},
        unmatched=unmatched,
        proposals=proposals,
        evictions=evictions,
    )
    if _OBS.enabled:
        tracer = _OBS.tracer
        tracer.count("alg2.match")
        tracer.count("alg2.proposals", proposals)
        tracer.count("alg2.evictions", evictions)
        tracer.event(
            "alg2.match",
            containers=len(container_ids),
            servers=len(preferences.server_ids),
            proposals=proposals,
            evictions=evictions,
            unmatched=len(unmatched),
        )
        if _OBS.checker is not None:
            _OBS.checker.check_matching_stability(
                result, preferences, cluster, where="stable_match"
            )
    return result


def find_blocking_pairs(
    result: MatchingResult,
    preferences: PreferenceMatrix,
    cluster: ClusterState,
    tolerance: float = 1e-9,
) -> list[tuple[int, int]]:
    """All blocking pairs of a matching (empty list == stable).

    ``(c, s)`` blocks when ``c`` strictly prefers ``s`` to its current match
    (strictly lower cost, beyond ``tolerance``) **and** ``s`` can be made to
    accommodate ``c`` profitably: either it has residual capacity for ``c``,
    or it strictly prefers ``c`` to some accepted container whose eviction
    would free enough room.
    """
    container_ids = list(preferences.container_ids)
    server_ids = list(preferences.server_ids)
    demand = {c: cluster.container(c).demand for c in container_ids}

    accepted: dict[int, list[int]] = {}
    for c, s in result.assignment.items():
        accepted.setdefault(s, []).append(c)
    in_matrix = set(container_ids)
    residuals: dict[int, Resources] = {}

    def residual_of(s: int) -> Resources:
        # Fixed containers occupy space but are never evictable; memoised
        # per server, built only for servers some container prefers.
        if s not in residuals:
            used = cluster.load_excluding(s, in_matrix)
            for a in accepted.get(s, ()):
                used = used + demand[a]
            residuals[s] = cluster.capacity(s) - used
        return residuals[s]

    sidx = preferences.server_index
    cidx = preferences.container_index
    num_containers = len(container_ids)
    blocking: list[tuple[int, int]] = []
    for c in container_ids:
        current = result.assignment.get(c)
        j = cidx[c]
        current_cost = (
            preferences.cost[sidx[current], j]
            if current is not None
            else float("inf")
        )
        for s in server_ids:
            if s == current:
                continue
            cost = preferences.cost[sidx[s], j]
            if not cost < current_cost - tolerance:
                continue  # c does not strictly prefer s
            ranks = preferences.server_rank_array(s)
            rank_c = int(ranks[j])
            if rank_c >= num_containers:
                continue  # infeasible on s (sentinel rank)
            residual = residual_of(s)
            if demand[c].fits_in(residual):
                blocking.append((c, s))
                continue
            # Would evicting strictly-worse tenants make room?
            worse = [a for a in accepted.get(s, ()) if ranks[cidx[a]] > rank_c]
            freed = residual
            for a in sorted(worse, key=lambda x: -int(ranks[cidx[x]])):
                freed = freed + demand[a]
                if demand[c].fits_in(freed):
                    blocking.append((c, s))
                    break
    return blocking
