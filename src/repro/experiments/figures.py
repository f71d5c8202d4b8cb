"""Per-figure experiment drivers.

One function per table/figure of the paper's evaluation; each returns a
plain-data result object that the corresponding benchmark prints and asserts
on.  Keeping the drivers importable (instead of inline in benchmark files)
lets the examples and the test suite reuse them at smaller scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.stats import improvement
from ..cluster.container import Container, TaskKind, TaskRef
from ..cluster.resources import Resources
from ..core.hit import HitConfig, HitOptimizer
from ..core.taa import TAAInstance
from ..mapreduce.hdfs import HdfsModel
from ..mapreduce.job import JobSpec, ShuffleClass, shuffle_matrix
from ..mapreduce.shuffle import ShuffleFlow, build_flows
from ..mapreduce.workload import WorkloadGenerator
from ..schedulers import make_scheduler
from ..simulator.engine import run_simulation
from ..simulator.metrics import MetricsCollector
from ..topology.base import Topology
from . import configs
from .static import StaticResult, build_static_workload, run_static_placement

__all__ = [
    "fig1_traffic_volume",
    "fig3_case_study",
    "fig6_fig7_testbed",
    "fig8a_workload_classes",
    "fig8b_architectures",
    "fig9_bandwidth_sensitivity",
    "fig10_job_numbers",
    "CaseStudyResult",
    "TestbedResult",
]


# --------------------------------------------------------------------- Fig 1
def fig1_traffic_volume(
    seed: int = 0, jobs_per_class: int = 4
) -> dict[str, dict[str, float]]:
    """Figure 1: shuffle vs remote-Map traffic volume per workload class.

    All three classes run *together* on the testbed tree at high slot
    utilisation, placed by the Capacity scheduler (the stock setup the paper
    profiled) — contention is what produces locality misses and hence
    remote-Map traffic, exactly as on a busy production cluster.  Returns,
    per class, total shuffle volume, remote-Map volume and the shuffle share
    of that class's communication traffic.
    """
    topology = configs.testbed_tree()
    generator = WorkloadGenerator(seed=seed, input_size_range=(10.0, 16.0))
    per_class = {
        shuffle_class: generator.jobs_of_class(shuffle_class, jobs_per_class)
        for shuffle_class in ShuffleClass
    }
    # Interleave classes so placement-order artifacts don't bias which class
    # absorbs the locality misses.
    jobs = [
        job
        for i in range(jobs_per_class)
        for shuffle_class in ShuffleClass
        for job in (per_class[shuffle_class][i],)
    ]
    workload = build_static_workload(topology, jobs, seed=seed)
    result = run_static_placement(workload, make_scheduler("capacity"), seed=seed)

    out: dict[str, dict[str, float]] = {}
    for shuffle_class in ShuffleClass:
        class_jobs = [j for j in jobs if j.shuffle_class == shuffle_class]
        shuffle_volume = sum(
            f.size for f in workload.flows
            if any(f.job_id == j.job_id for j in class_jobs)
        )
        remote = 0.0
        for spec in class_jobs:
            map_ids, _ = workload.job_containers[spec.job_id]
            map_servers = {}
            for task_index, cid in enumerate(map_ids):
                sid = result.taa.cluster.container(cid).server_id
                assert sid is not None
                map_servers[task_index] = sid
            remote += workload.hdfs.remote_map_traffic(spec, map_servers)
        total = shuffle_volume + remote
        out[shuffle_class.value] = {
            "shuffle_volume": shuffle_volume,
            "remote_map_volume": remote,
            "shuffle_share": shuffle_volume / total if total else 0.0,
        }
    return out


# --------------------------------------------------------------------- Fig 3
@dataclass
class CaseStudyResult:
    """Outcome of the Section 2.3 case study reproduction."""

    baseline_cost: float
    paper_optimised_cost: float
    hit_cost: float
    improvement_vs_baseline: float


def fig3_case_study() -> CaseStudyResult:
    """Reproduce the Section 2.3 arithmetic.

    Two jobs on a 4-server, 2-rack tree: Job 1 shuffles 34 GB M1->R1, Job 2
    shuffles 10 GB M2->R2.  The observed Capacity placement put M1, M2 on S1,
    R1 on S4 (3 switches away) and R2 on S2 (1 switch): 34*3 + 10*1 =
    112 GB.T.  The paper's improved assignment (R1 -> S2, R2 -> S4) costs
    34*1 + 10*3 = 64 GB.T.  We pin the Map tasks (servers full) and let
    Hit-Scheduler optimise the Reduce placement; it should do at least as
    well as the paper's hand solution.
    """
    topology = configs.build_fabric("case-study")
    # Server ids: 0=S1, 1=S2 (rack A), 2=S3, 3=S4 (rack B).
    demand = Resources(1.0, 0.0)
    containers = [
        Container(0, demand, TaskRef(1, TaskKind.MAP, 0)),     # M1
        Container(1, demand, TaskRef(2, TaskKind.MAP, 0)),     # M2
        Container(2, demand, TaskRef(1, TaskKind.REDUCE, 0)),  # R1
        Container(3, demand, TaskRef(2, TaskKind.REDUCE, 0)),  # R2
    ]
    flows = [
        ShuffleFlow(0, 1, 0, 0, src_container=0, dst_container=2, size=34.0, rate=34.0),
        ShuffleFlow(1, 2, 0, 0, src_container=1, dst_container=3, size=10.0, rate=10.0),
    ]

    def cost_of(placement: dict[int, int]) -> float:
        taa = TAAInstance(topology, [
            Container(c.container_id, c.demand, c.task) for c in containers
        ], flows)
        for cid, sid in placement.items():
            taa.cluster.place(cid, sid)
        taa.install_static_policies()
        total = 0.0
        for flow in flows:
            policy = taa.controller.policy_of(flow.flow_id)
            assert policy is not None
            total += flow.size * policy.length
        return total

    baseline = cost_of({0: 0, 1: 0, 2: 3, 3: 1})       # paper's observed log
    paper_best = cost_of({0: 0, 1: 0, 2: 1, 3: 3})     # paper's suggestion

    # Hit: maps fixed on S1, reduces free.
    taa = TAAInstance(topology, [
        Container(c.container_id, c.demand, c.task) for c in containers
    ], flows)
    taa.cluster.place(0, 0)
    taa.cluster.place(1, 0)
    optimizer = HitOptimizer(taa, HitConfig(seed=0))
    optimizer.optimize_initial_wave(container_ids=[2, 3])
    hit_cost = 0.0
    for flow in flows:
        policy = taa.controller.policy_of(flow.flow_id)
        assert policy is not None
        hit_cost += flow.size * policy.length
    return CaseStudyResult(
        baseline_cost=baseline,
        paper_optimised_cost=paper_best,
        hit_cost=hit_cost,
        improvement_vs_baseline=improvement(baseline, hit_cost),
    )


# ----------------------------------------------------------------- Fig 6 & 7
@dataclass
class TestbedResult:
    """Per-scheduler dynamic-simulation metrics for Figures 6 and 7."""

    metrics: dict[str, MetricsCollector] = field(default_factory=dict)

    def mean_jct(self, scheduler: str) -> float:
        return self.metrics[scheduler].mean_jct()


def fig6_fig7_testbed(
    seed: int = 0,
    num_jobs: int = 24,
    scheduler_names: tuple[str, ...] = ("capacity", "pna", "hit"),
) -> TestbedResult:
    """Figures 6(a-c) and 7(a-b): the dynamic testbed comparison.

    Every scheduler sees the identical job stream, HDFS layout and fabric;
    only placement and policy behaviour differ.
    """
    jobs = configs.testbed_workload(seed=seed, num_jobs=num_jobs)
    result = TestbedResult()
    for name in scheduler_names:
        topology = configs.testbed_tree()
        metrics = run_simulation(
            topology,
            make_scheduler(name, seed=seed),
            jobs,
            configs.testbed_simulation_config(seed=seed),
        )
        result.metrics[name] = metrics
    return result


# -------------------------------------------------------------------- Fig 8a
def fig8a_workload_classes(
    seed: int = 0, jobs_per_class: int = 4
) -> dict[str, dict[str, float]]:
    """Figure 8(a): total-traffic-cost reduction per workload class.

    Single-class workloads on the Tree fabric; reduction of Hit and PNA
    against the Capacity placement, measured on shuffle cost (size x
    traversed switches) exactly as the paper plots it.  Absolute reductions
    run higher than the paper's (our stable matching packs jobs tightly);
    the orderings — Hit > PNA > 0 everywhere, shuffle-heavy gaining at least
    as much as shuffle-light — are the reproduction target.
    """
    topology = configs.testbed_tree()
    generator = WorkloadGenerator(seed=seed, input_size_range=(8.0, 16.0))
    out: dict[str, dict[str, float]] = {}
    for shuffle_class in ShuffleClass:
        jobs = generator.jobs_of_class(shuffle_class, jobs_per_class)
        workload = build_static_workload(topology, jobs, seed=seed)
        costs: dict[str, float] = {}
        for name in ("capacity", "pna", "hit"):
            result = run_static_placement(
                workload, make_scheduler(name, seed=seed), seed=seed
            )
            costs[name] = result.shuffle_cost
        out[shuffle_class.value] = {
            "capacity_cost": costs["capacity"],
            "hit_cost": costs["hit"],
            "pna_cost": costs["pna"],
            "hit_reduction": improvement(costs["capacity"], costs["hit"]),
            "pna_reduction": improvement(costs["capacity"], costs["pna"]),
        }
    return out


def _remote_map_cost(workload, result: StaticResult) -> float:
    """Remote-Map traffic cost: split size x switches to the nearest replica."""
    topology = workload.topology
    total = 0.0
    for spec in workload.jobs:
        map_ids, _ = workload.job_containers[spec.job_id]
        blocks = workload.hdfs.blocks_of(spec.job_id)
        for task_index, cid in enumerate(map_ids):
            sid = result.taa.cluster.container(cid).server_id
            assert sid is not None
            block = blocks[task_index]
            if block.is_local(sid):
                continue
            hops = min(
                len(
                    topology.switches_on_path(
                        topology.shortest_path(sid, replica)
                    )
                )
                for replica in block.replicas
            )
            total += spec.map_input_size * hops
    return total


# -------------------------------------------------------------------- Fig 8b
def fig8b_architectures(
    seed: int = 0, num_jobs: int = 6
) -> dict[str, dict[str, float]]:
    """Figure 8(b): shuffle cost of a shuffle-heavy workload across fabrics."""
    generator = WorkloadGenerator(seed=seed, input_size_range=(8.0, 16.0))
    jobs = generator.jobs_of_class(ShuffleClass.HEAVY, num_jobs)
    out: dict[str, dict[str, float]] = {}
    for arch_name, fabric in configs.ARCHITECTURES_64.items():
        workload = build_static_workload(
            configs.build_fabric(fabric), jobs, seed=seed
        )
        row: dict[str, float] = {}
        for name in ("capacity", "pna", "hit"):
            result = run_static_placement(
                workload, make_scheduler(name, seed=seed), seed=seed
            )
            row[name] = result.shuffle_cost
        row["hit_vs_capacity"] = improvement(row["capacity"], row["hit"])
        row["hit_vs_pna"] = improvement(row["pna"], row["hit"])
        out[arch_name] = row
    return out


# --------------------------------------------------------------------- Fig 9
def fig9_bandwidth_sensitivity(
    seed: int = 0,
    bandwidths: tuple[float, ...] = (0.1, 0.5, 1.0, 5.0, 20.0, 60.0),
    num_jobs: int = 6,
    num_servers: int = 512,
) -> dict[float, dict[str, float]]:
    """Figure 9: throughput improvement vs Capacity across link bandwidths.

    For each bandwidth the identical workload is placed by each scheduler on
    the large tree; all shuffle flows then share the fabric at once (max-min
    fair) and the workload's throughput is ``volume / (compute + transfer)``
    where the transfer time is the slowest flow's drain time and the compute
    floor is bandwidth-independent.  Low bandwidth makes transfer dominate —
    static-path schedulers pile flows onto the same links and starve, which
    is where Hit gains the most (the paper's ~48% at 0.1 Mbps); at high
    bandwidth compute dominates and every scheduler converges (the paper's
    flattening right tail).
    """
    from ..simulator.network import FlowNetwork

    generator = WorkloadGenerator(seed=seed, input_size_range=(8.0, 16.0))
    jobs = generator.jobs_of_class(ShuffleClass.HEAVY, num_jobs)
    # Compute floor: the workload's total map+reduce compute, which does not
    # change with link bandwidth.
    compute_floor = sum(
        spec.map_duration + spec.reduce_duration(spec.shuffle_volume / spec.num_reduces)
        for spec in jobs
    ) / len(jobs)

    out: dict[float, dict[str, float]] = {}
    for bandwidth in bandwidths:
        topology = configs.build_fabric(
            {"name": "fig9-tree", "num_servers": num_servers,
             "bandwidth": bandwidth}
        )
        workload = build_static_workload(topology, jobs, seed=seed)
        throughput: dict[str, float] = {}
        for name in ("capacity", "pna", "hit"):
            result = run_static_placement(
                workload, make_scheduler(name, seed=seed), seed=seed
            )
            network = FlowNetwork(topology)
            volume = 0.0
            for flow in workload.flows:
                volume += flow.size
                policy = result.taa.controller.policy_of(flow.flow_id)
                if policy is None or len(policy.path) < 2:
                    continue  # co-located: no fabric use
                network.add_flow(flow.flow_id, policy.path, flow.size)
            network.recompute_rates()
            transfer = max(
                (f.remaining / f.rate for f in network.active_flows if f.rate > 0),
                default=0.0,
            )
            throughput[name] = volume / (compute_floor + transfer)
        out[bandwidth] = {
            "hit_improvement": (
                throughput["hit"] / throughput["capacity"] - 1.0
                if throughput["capacity"] > 0
                else 0.0
            ),
            "pna_improvement": (
                throughput["pna"] / throughput["capacity"] - 1.0
                if throughput["capacity"] > 0
                else 0.0
            ),
            **{f"throughput_{k}": v for k, v in throughput.items()},
        }
    return out


# -------------------------------------------------------------------- Fig 10
def fig10_job_numbers(
    seed: int = 0,
    job_counts: tuple[int, ...] = (3, 6, 9, 12, 15, 18),
    num_servers: int = 512,
    input_size_range: tuple[float, float] = (24.0, 48.0),
    congestion_weight: float = 2.0,
) -> dict[int, dict[str, float]]:
    """Figure 10: overall cost reduction vs the number of parallel jobs.

    Jobs are large enough to span several racks (co-location alone cannot
    win), and placements are priced by :func:`evaluate_policy_cost` with a
    congestion weight that makes oversubscribed switches expensive.  With
    few jobs there is little contention and Hit wins only on route length;
    as jobs pile on, the baselines' static paths collide and the congestion
    component grows Hit's margin — until the fabric saturates for everyone
    and the curve flattens (the paper's knee at ~12 jobs).
    """
    from .static import evaluate_policy_cost

    generator = WorkloadGenerator(
        seed=seed,
        input_size_range=input_size_range,
        map_rate=8.0,
        reduce_rate=8.0,
    )
    all_jobs = generator.make_workload(max(job_counts))
    out: dict[int, dict[str, float]] = {}
    for count in job_counts:
        jobs = all_jobs[:count]
        costs: dict[str, float] = {}
        for name in ("capacity", "pna", "hit"):
            topology = configs.large_tree(num_servers=num_servers)
            workload = build_static_workload(topology, jobs, seed=seed)
            result = run_static_placement(
                workload, make_scheduler(name, seed=seed), seed=seed
            )
            costs[name] = evaluate_policy_cost(
                result.taa, congestion_weight=congestion_weight
            )
        out[count] = {
            "hit_reduction": improvement(costs["capacity"], costs["hit"]),
            "pna_reduction": improvement(costs["capacity"], costs["pna"]),
            **{f"cost_{k}": v for k, v in costs.items()},
        }
    return out
