"""Perf regression harness for the vectorised routing/preference hot path.

Unlike the figure benchmarks (which regenerate paper results), this script
times the *implementation*: the grading pass (``build_preference_matrix``)
and the end-to-end initial-wave optimisation, comparing the shipped NumPy
kernels against the preserved scalar reference implementations in
``repro.core.scalar_ref``.  It seeds the repo's perf trajectory by writing
``BENCH_hotpath.json`` with before/after timings and speedups per topology.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_perf_hotpath.py [--out FILE]

Scale knob: ``REPRO_BENCH_SCALE=quick`` drops the largest topology and runs
a single repetition — suitable for CI smoke runs.  The default (``full``)
benchmarks up to a k=8 fat-tree (128 servers) with best-of-3 timing.

Both code paths are bit-compatible (see tests/core/test_vector_equivalence);
the harness re-asserts that here so a timing run can never silently compare
two implementations that diverged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import Container, Resources, TaskKind, TaskRef  # noqa: E402
from repro.core import HitConfig, HitOptimizer, TAAInstance  # noqa: E402
from repro.core import hit as hit_mod  # noqa: E402
from repro.core.policy import PolicyController  # noqa: E402
from repro.core.preference import (  # noqa: E402
    PairCostCache,
    build_preference_matrix,
)
from repro.core.scalar_ref import (  # noqa: E402
    ScalarPairCostCache,
    build_preference_matrix_scalar,
    dag_best_path_scalar,
)
from repro.mapreduce import JobSpec, ShuffleClass, build_flows  # noqa: E402
from repro.simulator import FlowNetwork  # noqa: E402
from repro.topology import (  # noqa: E402
    FatTreeConfig,
    TreeConfig,
    build_fattree,
    build_tree,
)

QUICK = os.environ.get("REPRO_BENCH_SCALE", "full") == "quick"

# (name, topology builder, num_maps, num_reduces); maps/reduces scale with
# the fabric so the grading matrix grows with server count.
CASES = [
    ("tree_d2f4", lambda: build_tree(TreeConfig(depth=2, fanout=4, redundancy=2)), 6, 2),
    ("fattree_k4", lambda: build_fattree(FatTreeConfig(k=4)), 6, 2),
    ("tree_d3f4", lambda: build_tree(TreeConfig(depth=3, fanout=4, redundancy=2)), 16, 4),
    ("fattree_k8", lambda: build_fattree(FatTreeConfig(k=8)), 32, 8),
    ("fattree_k16", lambda: build_fattree(FatTreeConfig(k=16)), 24, 6),
]
if QUICK:
    # Keep the two smallest cases plus a slimmed k=16 (same 1024-server
    # fabric, one small job) so CI still exercises the datacenter scale the
    # incremental work targets.
    CASES = CASES[:2] + [
        ("fattree_k16_lite", lambda: build_fattree(FatTreeConfig(k=16)), 4, 2),
    ]

REPEATS = 1 if QUICK else 3

# Churn microbench scale: (topology, flow population, churn events,
# same-block locality in server-id space).  The block equals one edge
# switch's server span (k/2), i.e. rack-local shuffle traffic — the regime
# locality-aware MapReduce placement produces and the one the incremental
# allocator targets: the sharing graph decomposes into rack-sized
# components, so a churn event dirties one rack, not the fabric.
if QUICK:
    CHURN = ("fattree_k8", lambda: build_fattree(FatTreeConfig(k=8)), 2_000, 60, 4)
else:
    CHURN = ("fattree_k16", lambda: build_fattree(FatTreeConfig(k=16)), 10_000, 150, 8)


def make_instance(builder, num_maps: int, num_reduces: int) -> TAAInstance:
    """One shuffle-heavy job on a fresh fabric, containers unplaced."""
    topo = builder()
    job = JobSpec(
        job_id=0,
        name="bench",
        shuffle_class=ShuffleClass.HEAVY,
        num_maps=num_maps,
        num_reduces=num_reduces,
        input_size=float(num_maps),
        shuffle_ratio=1.0,
        skew=0.0,
    )
    containers, map_ids, reduce_ids = [], [], []
    cid = 0
    for i in range(num_maps):
        containers.append(
            Container(cid, Resources(1.0, 0.0), TaskRef(0, TaskKind.MAP, i))
        )
        map_ids.append(cid)
        cid += 1
    for i in range(num_reduces):
        containers.append(
            Container(cid, Resources(1.0, 0.0), TaskRef(0, TaskKind.REDUCE, i))
        )
        reduce_ids.append(cid)
        cid += 1
    flows = build_flows(job, map_ids, reduce_ids, rng=np.random.default_rng(0))
    return TAAInstance(topo, containers, flows)


def placed_instance(builder, num_maps: int, num_reduces: int) -> TAAInstance:
    taa = make_instance(builder, num_maps, num_reduces)
    HitOptimizer(taa, HitConfig(seed=0)).random_initial_placement()
    taa.install_all_policies()
    return taa


def best_of(fn, repeats: int = REPEATS) -> float:
    """Best-of-N wall time in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best


class FreshScalarCache:
    """Version-invalidated wrapper over :class:`ScalarPairCostCache`.

    The pre-vectorisation code built a fresh pair-cost cache per sweep and
    per fallback call, so unit costs were always priced against *current*
    switch loads.  A bare ``ScalarPairCostCache`` shared for the optimizer's
    lifetime would serve stale costs once loads change; this wrapper re-prices
    whenever the controller's load version moves, matching both the original
    behaviour and the shipped version-tracking ``PairCostCache``.
    """

    def __init__(self, taa: TAAInstance) -> None:
        self._taa = taa
        self._inner = ScalarPairCostCache(taa)
        self._version = taa.controller.load_version

    def refreshed(self) -> ScalarPairCostCache:
        version = self._taa.controller.load_version
        if version != self._version:
            self._inner = ScalarPairCostCache(self._taa)
            self._version = version
        return self._inner

    def unit_cost(self, a: int, b: int) -> float:
        return self.refreshed().unit_cost(a, b)


class scalar_kernels:
    """Context manager swapping the scalar reference kernels into place.

    Patches the three vectorised hot spots — the grading pass, the shared
    pair-cost cache and the stage-DAG DP — so ``HitOptimizer`` runs the
    pre-vectorisation code end to end.
    """

    def __enter__(self):
        self._pref = hit_mod.build_preference_matrix
        self._cache = hit_mod.PairCostCache
        self._dp = PolicyController._dag_best_path

        def scalar_pref(taa, container_ids=None, cache=None):
            scalar_cache = (
                cache.refreshed() if isinstance(cache, FreshScalarCache) else None
            )
            return build_preference_matrix_scalar(
                taa, container_ids=container_ids, cache=scalar_cache
            )

        hit_mod.build_preference_matrix = scalar_pref
        hit_mod.PairCostCache = FreshScalarCache
        PolicyController._dag_best_path = (
            lambda self, src, dst, rate, enforce: dag_best_path_scalar(
                self, src, dst, rate, enforce
            )
        )
        return self

    def __exit__(self, *exc):
        hit_mod.build_preference_matrix = self._pref
        hit_mod.PairCostCache = self._cache
        PolicyController._dag_best_path = self._dp
        return False


def assert_equivalent(vec, ref) -> None:
    if not np.array_equal(np.isfinite(vec.cost), np.isfinite(ref.cost)):
        raise AssertionError("grading infeasibility masks diverged")
    finite = np.isfinite(ref.cost)
    if not np.allclose(vec.cost[finite], ref.cost[finite], rtol=0, atol=1e-9):
        raise AssertionError("grading costs diverged beyond 1e-9")


def bench_case(name, builder, num_maps, num_reduces) -> dict:
    taa = placed_instance(builder, num_maps, num_reduces)

    # Grading pass: one full preference-matrix build from a cold cache.
    vec_ms = best_of(
        lambda: build_preference_matrix(taa, cache=PairCostCache(taa))
    )
    scalar_ms = best_of(
        lambda: build_preference_matrix_scalar(taa, cache=ScalarPairCostCache(taa))
    )
    assert_equivalent(
        build_preference_matrix(taa, cache=PairCostCache(taa)),
        build_preference_matrix_scalar(taa),
    )

    # End-to-end initial wave (grading + matching + rerouting per sweep).
    def run_wave():
        inst = make_instance(builder, num_maps, num_reduces)
        return HitOptimizer(inst, HitConfig(seed=0)).optimize_initial_wave()

    wave_results = {}
    wave_vec_ms = best_of(lambda: wave_results.__setitem__("vec", run_wave()))
    with scalar_kernels():
        wave_scalar_ms = best_of(
            lambda: wave_results.__setitem__("scalar", run_wave())
        )
    if wave_results["vec"].final_cost != wave_results["scalar"].final_cost:
        raise AssertionError("initial-wave results diverged between kernels")

    topo = taa.topology
    case = {
        "case": name,
        "servers": len(topo.server_ids),
        "switches": len(topo.switch_ids),
        "containers": num_maps + num_reduces,
        "flows": len(taa.flows),
        "grading": {
            "scalar_ms": round(scalar_ms, 3),
            "vector_ms": round(vec_ms, 3),
            "speedup": round(scalar_ms / vec_ms, 2),
        },
        "initial_wave": {
            "scalar_ms": round(wave_scalar_ms, 3),
            "vector_ms": round(wave_vec_ms, 3),
            "speedup": round(wave_scalar_ms / wave_vec_ms, 2),
        },
    }
    return case


def bench_churn(name, builder, n_flows, events, block) -> dict:
    """Flow-churn microbench: incremental vs full max-min reallocation.

    Populates the fabric with ``n_flows`` block-local flows (rack-local
    multi-tenant traffic: endpoints drawn from the same ``block`` consecutive
    servers, so the flow/resource sharing graph decomposes into rack-sized
    components),
    then replays an identical remove+add churn sequence through both
    allocator modes, recomputing rates after every event.  Asserts the two
    final states are bit-identical before reporting the speedup.
    """
    topo = builder()
    servers = list(topo.server_ids)
    rng = np.random.default_rng(0)

    def sample_path():
        base = int(rng.integers(len(servers) // block)) * block
        a, b = rng.choice(block, size=2, replace=False)
        return topo.shortest_path(servers[base + int(a)], servers[base + int(b)])

    initial = [
        (fid, sample_path(), float(rng.uniform(1.0, 50.0)))
        for fid in range(n_flows)
    ]
    removals = rng.permutation(n_flows)[:events]
    arrivals = [
        (n_flows + e, sample_path(), float(rng.uniform(1.0, 50.0)))
        for e in range(events)
    ]

    def run_mode(incremental: bool) -> tuple[FlowNetwork, float]:
        net = FlowNetwork(topo, incremental=incremental)
        for fid, path, size in initial:
            net.add_flow(fid, path, size)
        net.recompute_rates()
        t0 = time.perf_counter()
        for e in range(events):
            net.remove_flow(int(removals[e]))
            fid, path, size = arrivals[e]
            net.add_flow(fid, path, size)
            net.recompute_rates()
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        return net, elapsed_ms

    inc_net, inc_ms = run_mode(True)
    full_net, full_ms = run_mode(False)

    inc_flows = {f.flow_id: f.rate for f in inc_net.active_flows}
    full_flows = {f.flow_id: f.rate for f in full_net.active_flows}
    fids = sorted(full_flows)
    identical = (
        list(inc_flows) == list(full_flows)
        and np.array([inc_flows[f] for f in fids]).tobytes()
        == np.array([full_flows[f] for f in fids]).tobytes()
        and inc_net.resource_rates().tobytes()
        == full_net.resource_rates().tobytes()
    )
    if not identical:
        raise AssertionError("incremental and full churn states diverged")
    return {
        "case": name,
        "flows": n_flows,
        "events": events,
        "full_ms": round(full_ms, 3),
        "incremental_ms": round(inc_ms, 3),
        "speedup": round(full_ms / inc_ms, 2),
        "bit_identical": True,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"),
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)

    report = {
        "benchmark": "hotpath",
        "scale": "quick" if QUICK else "full",
        "repeats": REPEATS,
        "note": (
            "scalar_ms times the preserved pre-vectorisation reference "
            "(repro.core.scalar_ref); vector_ms times the shipped NumPy "
            "kernels. Best-of-N wall time."
        ),
        "cases": [],
    }
    for name, builder, num_maps, num_reduces in CASES:
        case = bench_case(name, builder, num_maps, num_reduces)
        report["cases"].append(case)
        print(
            f"{name:12s} servers={case['servers']:4d} "
            f"grading {case['grading']['scalar_ms']:9.2f} -> "
            f"{case['grading']['vector_ms']:8.2f} ms "
            f"({case['grading']['speedup']:5.1f}x)   "
            f"wave {case['initial_wave']['scalar_ms']:9.2f} -> "
            f"{case['initial_wave']['vector_ms']:8.2f} ms "
            f"({case['initial_wave']['speedup']:5.1f}x)"
        )

    churn = bench_churn(*CHURN)
    report["churn"] = churn
    print(
        f"churn {churn['case']} flows={churn['flows']} "
        f"events={churn['events']}: full {churn['full_ms']:.1f} ms -> "
        f"incremental {churn['incremental_ms']:.1f} ms "
        f"({churn['speedup']:.1f}x, bit-identical)"
    )

    largest = max(report["cases"], key=lambda c: c["servers"])
    report["largest_case"] = largest["case"]
    report["largest_grading_speedup"] = largest["grading"]["speedup"]

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
