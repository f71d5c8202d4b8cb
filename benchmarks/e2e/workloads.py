"""The benchmark's four named workloads.

:func:`build` turns a workload seed into a ready-to-run simulator.  The seed
is the only input that varies: it draws the job stream, the shuffle
matrices and HDFS placement (``SimulationConfig.seed``), the scheduler's
random initial placement, and the fault timeline.

Job streams are *stratified* draws from the paper's Table-1 mix: every seed
gets the same number of jobs of each benchmark (largest-remainder
apportionment of the Table-1 shares) and, within one benchmark, one input
size from each of its equal-width size strata.  Arrival gaps are
exponential but rescaled to their nominal mean.  Seeds therefore differ in
which job gets which size, in job order, arrival instants, skew, placement
and faults, but not in the total amount of work, which keeps the
seed-to-seed spread of host time small enough to gate on.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.experiments import configs
from repro.experiments.online import build_arrival_plan
from repro.faults.spec import generate_timeline
from repro.mapreduce.job import JobSpec
from repro.mapreduce.workload import PUMA_BENCHMARKS, WorkloadGenerator
from repro.obs import ProvenanceConfig, Tracer
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology.fattree import FatTreeConfig, build_fattree
from repro.workload import AdmissionConfig

__all__ = ["WORKLOADS", "Built", "build", "table1_jobs"]

#: Workload name -> why it is in the benchmark (the layer it loads).
WORKLOADS: dict[str, str] = {
    "ft16-hit-batch": (
        "Hit on a k=16 fat-tree, 60 jobs at t=0: Alg-1/Alg-2 decision path "
        "(matching, grading, re-routing) dominates"
    ),
    "ft16-capacity-batch": (
        "same fabric and jobs under Capacity: core/ never runs, the max-min "
        "allocator and shortest paths dominate"
    ),
    "ft8-hit-online2x": (
        "open-loop arrivals at 2x saturation through the admission plane: "
        "many small matchings and per-event engine work"
    ),
    "tree64-hit-faults-audited": (
        "switch and link faults on the 64-host tree with timeline, "
        "provenance and tracer on: recovery and observability planes"
    ),
}

#: Batch size of the two fat-tree k=16 workloads.
FT16_JOBS = 60
#: Job count and mean arrival gap of the testbed-tree workload.
TREE64_JOBS = 200
TREE64_INTERARRIVAL = 0.5


@dataclass
class Built:
    """A constructed, not yet run, simulation and its observability."""

    sim: MapReduceSimulator
    submitted: int
    #: Tracer to install around ``sim.run()`` (None = tracing plane off).
    tracer: Tracer | None = None


def table1_jobs(
    rng: np.random.Generator,
    submit_times: list[float],
    size_range: tuple[float, float],
    **generator_kwargs: Any,
) -> list[JobSpec]:
    """One job per submit time, stratified over the Table-1 mix.

    ``generator_kwargs`` go to :class:`WorkloadGenerator` (split size,
    map/reduce rates); the generator only assembles the specs here, the
    benchmark and input size of every job come from the strata.
    """
    n = len(submit_times)
    shares = np.array([b.proportion for b in PUMA_BENCHMARKS]) * n
    counts = np.floor(shares).astype(int)
    # Largest remainder, ties to the earlier Table-1 row.
    by_remainder = sorted(
        range(len(shares)), key=lambda i: (-(shares[i] - counts[i]), i)
    )
    for i in by_remainder[: n - int(counts.sum())]:
        counts[i] += 1
    lo, hi = size_range
    bodies: list[tuple[int, float]] = []
    for bench_idx, count in enumerate(counts):
        for k in range(count):
            size = lo + (hi - lo) * (k + float(rng.uniform())) / count
            bodies.append((bench_idx, size))
    order = rng.permutation(len(bodies))
    generator = WorkloadGenerator(
        seed=rng, input_size_range=size_range, **generator_kwargs
    )
    return [
        generator.make_job(
            benchmark=PUMA_BENCHMARKS[bodies[j][0]],
            input_size=bodies[j][1],
            submit_time=t,
        )
        for j, t in zip(order, submit_times)
    ]


def _rescaled_gaps(rng: np.random.Generator, n: int, mean: float) -> list[float]:
    """``n`` arrival instants from 0 with exponential gaps of exact mean."""
    gaps = rng.exponential(mean, size=n - 1)
    gaps *= mean * (n - 1) / gaps.sum()
    return [0.0, *np.cumsum(gaps).tolist()]


def _fat_tree_batch(seed: int, scheduler: str) -> Built:
    topology = build_fattree(FatTreeConfig(k=16))
    rng = np.random.default_rng([seed, 16])
    jobs = table1_jobs(rng, [0.0] * FT16_JOBS, (8.0, 32.0))
    sim = MapReduceSimulator(
        topology,
        make_scheduler(scheduler, seed=seed),
        jobs,
        SimulationConfig(seed=seed),
    )
    return Built(sim, len(jobs))


def _online(seed: int) -> Built:
    topology = build_fattree(FatTreeConfig(k=8))
    plan = build_arrival_plan(
        topology, multiplier=2.0, tenants=2, profile="poisson", duration=2.0
    )
    rng = np.random.default_rng([seed, 8])
    arrivals: list[tuple[float, int, JobSpec]] = []
    for tenant in plan.tenants:
        # A Poisson stream conditioned on its expected count: the instants
        # of a Poisson process given N arrivals are N sorted uniforms.
        count = round(tenant.rate * plan.rate_multiplier * plan.duration)
        times = np.sort(rng.uniform(0.0, plan.duration, size=count)).tolist()
        for spec in table1_jobs(rng, times, tenant.input_size_range):
            arrivals.append((spec.submit_time, tenant.tenant_id, spec))
    arrivals.sort(key=lambda item: (item[0], item[1]))
    jobs = [
        dataclasses.replace(
            spec,
            job_id=k,
            name=f"{spec.name.rsplit('-', 1)[0]}-{k}",
            tenant=tenant_id,
        )
        for k, (_, tenant_id, spec) in enumerate(arrivals)
    ]
    # admit-all: overload shows as queueing delay, never as a refused job.
    sim = MapReduceSimulator(
        topology,
        make_scheduler("hit", seed=seed),
        jobs,
        SimulationConfig(seed=seed, admission=AdmissionConfig(policy="admit-all")),
    )
    return Built(sim, len(jobs))


def _faulty_tree(seed: int, work_dir: str) -> Built:
    topology = configs.testbed_tree()
    rng = np.random.default_rng([seed, 64])
    jobs = table1_jobs(
        rng,
        _rescaled_gaps(rng, TREE64_JOBS, TREE64_INTERARRIVAL),
        (4.0, 12.0),
        map_rate=8.0,
        reduce_rate=8.0,
    )
    # Switch and link faults only: server faults trip a known engine crash
    # ("container N is not placed", see README.md) on about half the seeds.
    faults = generate_timeline(
        topology,
        seed=seed,
        horizon=40.0,
        switch_mtbf=10.0,
        switch_mttr=0.5,
        link_mtbf=40.0,
        link_mttr=0.5,
        link_degrade_mtbf=40.0,
    )
    config = SimulationConfig(
        seed=seed,
        faults=faults,
        max_task_retries=10,
        timeline_dt=0.05,
        timeline_max_samples=4096,
        timeline_spill_path=os.path.join(work_dir, "timeline.jsonl"),
        provenance=ProvenanceConfig(path=os.path.join(work_dir, "decisions.jsonl")),
    )
    sim = MapReduceSimulator(
        topology, make_scheduler("hit", seed=seed), jobs, config
    )
    tracer = Tracer.to_path(os.path.join(work_dir, "tracer.jsonl"))
    return Built(sim, len(jobs), tracer)


def build(name: str, seed: int, work_dir: str) -> Built:
    """Construct workload ``name`` for ``seed``; spill files go to ``work_dir``."""
    if name == "ft16-hit-batch":
        return _fat_tree_batch(seed, "hit")
    if name == "ft16-capacity-batch":
        return _fat_tree_batch(seed, "capacity")
    if name == "ft8-hit-online2x":
        return _online(seed)
    if name == "tree64-hit-faults-audited":
        return _faulty_tree(seed, work_dir)
    raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
