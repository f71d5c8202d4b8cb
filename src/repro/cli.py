"""Command-line interface.

The subcommands cover the library's workflows without writing Python:

* ``repro topology`` — build a fabric and print its structure;
* ``repro workload`` — sample a Table-1 workload (optionally save a trace);
* ``repro simulate`` — run the discrete-event simulator with a scheduler;
* ``repro optimize`` — static placement comparison across schedulers;
* ``repro experiment`` — regenerate one of the paper's figures;
* ``repro sweep`` — run a sharded, resumable, deterministically-merged
  experiment grid (docs/experiments.md);
* ``repro chaos`` — randomized fault campaign with a survivability
  contract (docs/fault_model.md);
* ``repro online`` — open-loop arrivals through the admission plane, with
  per-tenant accounting under the overload contract (docs/workload.md);
* ``repro explain`` — query a decision-provenance log: reconstruct one
  task's decision chain or aggregate reason codes per scheduler
  (docs/observability.md).

Every command takes ``--seed`` (or a seed axis) so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .analysis import format_table
from .experiments.configs import FABRICS, build_fabric
from .experiments.sweep import ARMS
from .mapreduce import WorkloadGenerator, load_workload_file, save_workload_file
from .schedulers import SCHEDULERS, make_scheduler
from .topology import Tier

__all__ = ["main", "build_parser"]

#: Grid step used by bare ``--timeline`` (no ``--timeline-dt``).
DEFAULT_TIMELINE_DT = 0.05


# ------------------------------------------------------------------ commands
def cmd_topology(args: argparse.Namespace) -> int:
    # A flag overrides the fabric parameter of the same name; the defaults
    # live in the registry.
    spec = {"name": args.kind}
    for key in FABRICS[args.kind].defaults:
        if getattr(args, key, None) is not None:
            spec[key] = getattr(args, key)
    topo = build_fabric(spec)
    print(topo)
    by_tier: dict[Tier, int] = {}
    for w in topo.switch_ids:
        by_tier[topo.tier_of(w)] = by_tier.get(topo.tier_of(w), 0) + 1
    rows = [(t.label, n) for t, n in sorted(by_tier.items())]
    print(format_table(("tier", "switches"), rows))
    sample = topo.server_ids[: min(2, topo.num_servers)]
    if len(sample) == 2:
        a, b = sample
        print(f"sample path {a}->{b}: {topo.shortest_path(a, b)}")
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    generator = WorkloadGenerator(
        seed=args.seed,
        input_size_range=(args.min_size, args.max_size),
    )
    jobs = generator.make_workload(args.jobs, interarrival=args.interarrival)
    rows = [
        (j.job_id, j.name, j.shuffle_class.value, j.num_maps, j.num_reduces,
         round(j.input_size, 2), round(j.shuffle_volume, 2))
        for j in jobs
    ]
    print(format_table(
        ("id", "name", "class", "maps", "reduces", "input", "shuffle"),
        rows,
        title=f"workload (seed={args.seed})",
    ))
    if args.output:
        save_workload_file(args.output, jobs)
        print(f"\nsaved to {args.output}")
    return 0


def _load_or_generate_jobs(args: argparse.Namespace):
    if args.jobs_trace:
        return load_workload_file(args.jobs_trace)
    generator = WorkloadGenerator(
        seed=args.seed, input_size_range=(4.0, 12.0),
        map_rate=8.0, reduce_rate=8.0,
    )
    return generator.make_workload(args.jobs, interarrival=args.interarrival)


def _make_observability(args: argparse.Namespace):
    """Checker/tracer pair from the ``--check-invariants``/``--trace`` flags.

    Falls back to whatever is already installed process-wide (the
    ``REPRO_CHECK_INVARIANTS``/``REPRO_TRACE`` environment switches), so the
    command's ``observe()`` scope keeps them and the closing report covers
    them: the checker's violations are printed and the trace is closed.
    """
    from .obs import InvariantChecker, Tracer
    from .obs.runtime import STATE

    checker = (
        InvariantChecker(mode="collect")
        if getattr(args, "check_invariants", False)
        else STATE.checker
    )
    trace_path = getattr(args, "trace_file", None)
    if trace_path:
        tracer = Tracer.to_path(trace_path)
    else:
        tracer = STATE.tracer if STATE.tracer.enabled else None
    return checker, tracer


def _report_observability(checker, tracer) -> int:
    """Print the violations summary / close the trace; non-zero on breaches."""
    from .analysis import format_violations

    status = 0
    if checker is not None:
        print()
        print(format_violations(checker.violations))
        if checker.violations:
            status = 1
    if tracer is not None:
        tracer.close()
        print(f"trace written: {tracer.events_written} events")
        print(tracer.format_report())
    return status


def _timeline_dt(args: argparse.Namespace) -> float | None:
    """Resolve the simulated-time sampling step (None = recorder off).

    Precedence mirrors the ``REPRO_TRACE`` convention: explicit
    ``--timeline-dt`` wins, bare ``--timeline`` uses the default step, and
    the ``REPRO_TIMELINE_DT`` environment variable turns recording on for
    runs that didn't pass a flag.
    """
    import os

    if getattr(args, "timeline_dt", None) is not None:
        return float(args.timeline_dt)
    if getattr(args, "timeline", False):
        return DEFAULT_TIMELINE_DT
    env = os.environ.get("REPRO_TIMELINE_DT", "").strip()
    if env:
        return float(env)
    return None


def _make_fault_timeline(args: argparse.Namespace, topology):
    """Fault timeline from ``--faults`` (file) or ``--mtbf`` (sampled)."""
    from .faults import generate_timeline, load_fault_file

    if getattr(args, "faults", None):
        return load_fault_file(args.faults)
    if (
        getattr(args, "mtbf", None)
        or getattr(args, "switch_mtbf", None)
        or getattr(args, "slowdown_mtbf", None)
        or getattr(args, "link_mtbf", None)
        or getattr(args, "domain_mtbf", None)
    ):
        return generate_timeline(
            topology,
            seed=args.seed,
            horizon=args.fault_horizon,
            server_mtbf=args.mtbf,
            server_mttr=args.mttr,
            switch_mtbf=args.switch_mtbf,
            switch_mttr=args.switch_mttr,
            slowdown_mtbf=args.slowdown_mtbf,
            slowdown_mttr=args.slowdown_mttr,
            slowdown_factor=args.slowdown_factor,
            link_mtbf=getattr(args, "link_mtbf", None),
            link_mttr=getattr(args, "link_mttr", 1.0),
            domain_mtbf=getattr(args, "domain_mtbf", None),
            domain_mttr=getattr(args, "domain_mttr", 1.0),
            domain_kind=getattr(args, "domain_kind", "rack"),
            allow_partition=getattr(args, "allow_partition", False),
        )
    return ()


def _make_speculation(args: argparse.Namespace):
    """SpeculationConfig from the ``--speculation`` flag family (or None)."""
    if not getattr(args, "speculation", False):
        return None
    from .speculation import SpeculationConfig

    return SpeculationConfig(
        quota=args.spec_quota,
        threshold=args.spec_threshold,
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    import dataclasses
    from pathlib import Path

    from .experiments import configs
    from .obs import ProvenanceConfig, observe
    from .simulator import MapReduceSimulator, save_trace_file

    jobs = _load_or_generate_jobs(args)
    topology = configs.testbed_tree()
    faults = _make_fault_timeline(args, topology)
    config = configs.testbed_simulation_config(seed=args.seed)
    if faults:
        config = dataclasses.replace(
            config,
            faults=tuple(faults),
            max_task_retries=args.max_task_retries,
        )
        print(f"fault timeline: {len(faults)} events")
    speculation = _make_speculation(args)
    if speculation is not None:
        config = dataclasses.replace(config, speculation=speculation)
    timeline_dt = _timeline_dt(args)
    if timeline_dt is not None:
        config = dataclasses.replace(
            config,
            timeline_dt=timeline_dt,
            timeline_max_samples=args.timeline_max_samples,
        )
    provenance_dir = None
    if args.provenance:
        provenance_dir = Path(args.provenance)
        provenance_dir.mkdir(parents=True, exist_ok=True)
    checker, tracer = _make_observability(args)
    rows = []
    critical_by_scheduler: dict[str, list] = {}
    report_sections: list[dict] = []
    # The tracer sink must end up flushed and closed on *every* exit path —
    # a failed run still yields a valid JSONL trace (close() is idempotent,
    # so the success path's _report_observability close is a no-op).
    try:
        with observe(checker=checker, tracer=tracer):
            for name in args.scheduler:
                run_config = config
                if provenance_dir is not None:
                    run_config = dataclasses.replace(
                        run_config,
                        provenance=ProvenanceConfig(
                            path=str(
                                provenance_dir / f"decisions.{name}.jsonl"
                            ),
                            ring_size=args.provenance_ring,
                        ),
                    )
                if args.timeline_spill and timeline_dt is not None:
                    run_config = dataclasses.replace(
                        run_config,
                        timeline_spill_path=(
                            f"{args.timeline_spill}.{name}.jsonl"
                        ),
                    )
                simulator = MapReduceSimulator(
                    topology,
                    make_scheduler(name, seed=args.seed),
                    list(jobs),
                    run_config,
                )
                metrics = simulator.run()
                if simulator.provenance is not None:
                    prov = simulator.provenance
                    print(
                        f"{name} decisions: {prov.emitted} emitted "
                        f"(ring keeps {len(prov.ring)}) -> {prov.path} "
                        f"[sha256 {prov.fingerprint()[:16]}]"
                    )
                counters: dict[str, int] = {}
                if simulator.faults is not None:
                    counters.update(simulator.faults.summary())
                    summary = ", ".join(
                        f"{k}={v}"
                        for k, v in simulator.faults.summary().items()
                    )
                    print(f"{name} faults: {summary}")
                if simulator.speculation is not None:
                    counters.update(simulator.speculation.summary())
                    summary = ", ".join(
                        f"{k}={v}"
                        for k, v in simulator.speculation.summary().items()
                    )
                    print(f"{name} speculation: {summary}")
                s = metrics.summary()
                rows.append((
                    name, s["mean_jct"], s["avg_route_hops"],
                    s["avg_shuffle_delay_us"], s["shuffle_cost"],
                ))
                if args.save_trace:
                    path = f"{args.save_trace}.{name}.jsonl"
                    save_trace_file(path, metrics)
                    print(f"trace saved: {path}")
                if args.critical_path or args.html_report:
                    from .analysis import attribute_run

                    critical_by_scheduler[name] = attribute_run(metrics)
                if args.export_trace:
                    from .obs import save_chrome_trace

                    path = f"{args.export_trace}.{name}.json"
                    save_chrome_trace(
                        path,
                        metrics,
                        simulator.timeline,
                        scheduler=name,
                        provenance=simulator.provenance,
                    )
                    print(f"perfetto trace saved: {path}")
                if args.html_report:
                    report_sections.append({
                        "scheduler": name,
                        "metrics": metrics,
                        "timeline": simulator.timeline,
                        "critical": critical_by_scheduler.get(name),
                        "counters": counters,
                    })
    finally:
        if tracer is not None:
            tracer.close()
    print(format_table(
        ("scheduler", "mean JCT", "route hops", "delay (us)", "shuffle cost"),
        rows,
        title=f"simulation: {len(jobs)} jobs on the 64-server testbed tree",
    ))
    if args.critical_path:
        from .analysis import format_critical_path

        print()
        print(format_critical_path(critical_by_scheduler, style="markdown"))
    if args.html_report:
        from .obs import save_html_report

        save_html_report(args.html_report, report_sections)
        print(f"html report saved: {args.html_report}")
    return _report_observability(checker, tracer)


def cmd_optimize(args: argparse.Namespace) -> int:
    from .experiments import build_static_workload, configs, run_static_placement
    from .obs import observe

    jobs = _load_or_generate_jobs(args)
    topology = configs.testbed_tree()
    workload = build_static_workload(topology, jobs, seed=args.seed)
    checker, tracer = _make_observability(args)
    rows = []
    try:
        with observe(checker=checker, tracer=tracer):
            for name in args.scheduler:
                result = run_static_placement(
                    workload, make_scheduler(name, seed=args.seed), seed=args.seed
                )
                rows.append((name, result.shuffle_cost, result.avg_route_hops))
    finally:
        if tracer is not None:
            tracer.close()
    print(format_table(
        ("scheduler", "shuffle cost (GB.T)", "avg route hops"),
        rows,
        title=f"static placement: {len(jobs)} jobs",
    ))
    return _report_observability(checker, tracer)


def cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (
        fig1_traffic_volume,
        fig3_case_study,
        fig8a_workload_classes,
        fig8b_architectures,
        fig9_bandwidth_sensitivity,
        fig10_job_numbers,
    )

    name = args.figure
    if name == "fig1":
        data = fig1_traffic_volume(seed=args.seed)
        rows = [(k, v["shuffle_volume"], v["remote_map_volume"], v["shuffle_share"])
                for k, v in data.items()]
        print(format_table(("class", "shuffle", "remote-map", "share"), rows))
    elif name == "fig3":
        r = fig3_case_study()
        print(format_table(("metric", "GB.T"), [
            ("capacity placement", r.baseline_cost),
            ("paper optimised", r.paper_optimised_cost),
            ("hit-scheduler", r.hit_cost),
        ]))
    elif name == "fig8a":
        data = fig8a_workload_classes(seed=args.seed)
        rows = [(k, v["hit_reduction"], v["pna_reduction"]) for k, v in data.items()]
        print(format_table(("class", "hit reduction", "pna reduction"), rows))
    elif name == "fig8b":
        data = fig8b_architectures(seed=args.seed)
        rows = [(k, v["capacity"], v["pna"], v["hit"]) for k, v in data.items()]
        print(format_table(("architecture", "capacity", "pna", "hit"), rows))
    elif name == "fig9":
        data = fig9_bandwidth_sensitivity(seed=args.seed, num_servers=64, num_jobs=3)
        rows = [(bw, v["hit_improvement"], v["pna_improvement"])
                for bw, v in sorted(data.items())]
        print(format_table(("bandwidth", "hit improvement", "pna improvement"), rows))
    elif name == "fig10":
        data = fig10_job_numbers(
            seed=args.seed, job_counts=(3, 6, 9), num_servers=64,
            input_size_range=(6.0, 10.0),
        )
        rows = [(n, v["hit_reduction"], v["pna_reduction"])
                for n, v in sorted(data.items())]
        print(format_table(("jobs", "hit reduction", "pna reduction"), rows))
    else:
        raise ValueError(f"unknown figure {name!r}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import format_sweep_table
    from .experiments.sweep import SweepSpec, merge_sweep, run_sweep
    from .obs import observe

    if args.force and args.resume:
        print("--force and --resume are contradictory", file=sys.stderr)
        return 2
    if args.grid:
        spec = SweepSpec.from_file(args.grid)
    else:
        spec = SweepSpec.from_dict({
            "seeds": args.seeds,
            "schedulers": args.schedulers,
            "topologies": args.topologies,
            "arms": args.arms,
            "workload": {
                "num_jobs": args.jobs,
                "interarrival": args.interarrival,
            },
        })
    checker, tracer = _make_observability(args)
    try:
        with observe(checker=checker, tracer=tracer):
            result = run_sweep(
                spec,
                cache_dir=args.cache_dir,
                workers=args.workers,
                force=args.force,
            )
    finally:
        if tracer is not None:
            tracer.close()
    print(
        f"sweep {spec.spec_hash()[:12]}: {len(result.cells)} cells — "
        f"{len(result.ran)} ran, {len(result.cached)} cached, "
        f"{len(result.failed)} failed "
        f"(workers={args.workers}, cache={args.cache_dir})"
    )
    if result.failed:
        by_hash = {c.config_hash(): c for c in result.cells}
        for cell_hash, error in sorted(result.failed.items()):
            label = by_hash[cell_hash].label()
            print(f"  FAILED {label} ({cell_hash[:12]}): {error}",
                  file=sys.stderr)
        _report_observability(checker, tracer)
        return 1
    report = merge_sweep(spec, args.cache_dir)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
        print(f"merged report written: {args.out}")
    import json as _json

    cells = _json.loads(report)["cells"]
    print(format_sweep_table(
        cells, title=f"sweep results ({len(cells)} cells)"
    ))
    return _report_observability(checker, tracer)


def cmd_chaos(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .faults.chaos import ChaosConfig, run_chaos

    config = ChaosConfig(
        trials=args.trials,
        seed=args.seed,
        schedulers=tuple(args.schedulers),
        topologies=tuple(args.topologies),
        jobs_per_trial=args.jobs,
        horizon=args.horizon,
        max_task_retries=args.max_task_retries,
        partition_every=args.partition_every,
        rerun=not args.no_rerun,
    )
    report = run_chaos(config)
    s = report.summary()
    print(
        f"chaos: {s['trials']} trials — {s['ok']} ok, "
        f"{s['failed_accounted']} accounted failures, "
        f"{s['violations']} contract violations"
    )
    for t in report.violations:
        print(
            f"  VIOLATION trial {t.trial} ({t.scheduler}/{t.topology}, "
            f"seed {t.seed}): {'; '.join(t.violations)}",
            file=sys.stderr,
        )
    if args.out:
        Path(args.out).write_text(report.canonical() + "\n", encoding="utf-8")
        print(f"chaos report written: {args.out}")
    return 1 if report.violations else 0


def cmd_online(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis.report import canonical_json
    from .experiments.online import (
        admission_config,
        build_arrival_plan,
        online_fingerprint,
        online_record,
    )
    from .obs import observe
    from .simulator import MapReduceSimulator, SimulationConfig
    from .workload import generate_arrivals

    plan = build_arrival_plan(
        build_fabric(args.topology),
        multiplier=args.arrival_rate,
        tenants=args.tenants,
        profile=args.profile,
        duration=args.duration,
    )
    config = SimulationConfig(
        map_slots_per_job=16,
        seed=args.seed,
        admission=admission_config(args.admission, args.queue_bound),
        stall_limit=args.stall_limit,
    )
    if args.provenance:
        import dataclasses

        from .obs import ProvenanceConfig

        provenance_dir = Path(args.provenance)
        provenance_dir.mkdir(parents=True, exist_ok=True)
        config = dataclasses.replace(
            config,
            provenance=ProvenanceConfig(
                path=str(
                    provenance_dir / f"decisions.{args.scheduler}.jsonl"
                ),
            ),
        )
    checker, tracer = _make_observability(args)
    try:
        with observe(checker=checker, tracer=tracer):
            jobs = generate_arrivals(plan, seed=args.seed)
            simulator = MapReduceSimulator(
                build_fabric(args.topology),
                make_scheduler(args.scheduler, seed=args.seed),
                jobs,
                config,
            )
            simulator.run()
    finally:
        if tracer is not None:
            tracer.close()
    assert simulator.admission is not None
    if simulator.provenance is not None:
        prov = simulator.provenance
        print(
            f"decisions: {prov.emitted} emitted -> {prov.path} "
            f"[sha256 {prov.fingerprint()[:16]}]"
        )
    summary, counters = online_record(simulator)
    rows = [
        (
            r["tenant"], r["weight"], r["submitted"], r["admitted"],
            r["started"], r["queued"], r["max_queue"], r["rejected"],
        )
        for r in simulator.admission.tenant_rows()
    ]
    print(format_table(
        ("tenant", "weight", "submitted", "admitted", "started",
         "queued", "max queue", "rejected"),
        rows,
        title=(
            f"online: {len(jobs)} arrivals over {args.duration} time units "
            f"({args.profile}, {args.arrival_rate}x saturation, "
            f"{args.admission} admission, {args.scheduler}/{args.topology})"
        ),
    ))
    print(
        f"\ncompleted={counters['online.completed']} "
        f"rejected={counters['admission.rejected']} "
        f"queued={counters['admission.queued']} "
        f"deferrals={counters['admission.deferrals']} | "
        f"mean_jct={summary['mean_jct']:.4f} "
        f"p99_jct={summary['p99_jct']:.4f} "
        f"mean_slowdown={summary['mean_slowdown']:.3f} "
        f"fairness={summary['tenant_fairness']:.3f}"
    )
    fingerprint = online_fingerprint(
        summary, counters, simulator.events_processed
    )
    print(f"fingerprint: {fingerprint[:16]}")
    if args.out:
        body = {
            "summary": summary,
            "counters": dict(sorted(counters.items())),
            "events": simulator.events_processed,
            "fingerprint": fingerprint,
        }
        Path(args.out).write_text(
            canonical_json(body) + "\n", encoding="utf-8"
        )
        print(f"online report written: {args.out}")
    return _report_observability(checker, tracer)


def _decision_logs(args: argparse.Namespace) -> list:
    """Resolve ``--run`` into decision-log paths (sorted, deterministic)."""
    from pathlib import Path

    run = Path(args.run)
    if run.is_file():
        return [run]
    if run.is_dir():
        paths = sorted(run.glob("decisions.*.jsonl"))
        if args.scheduler:
            paths = [
                p for p in paths
                if p.name == f"decisions.{args.scheduler}.jsonl"
            ]
        return paths
    return []


def cmd_explain(args: argparse.Namespace) -> int:
    from .obs import (
        explain_task,
        format_record,
        load_decisions,
        summarize_decisions,
    )

    paths = _decision_logs(args)
    if not paths:
        print(f"no decision logs found under {args.run!r} "
              "(expected decisions.<scheduler>.jsonl)", file=sys.stderr)
        return 2
    records = []
    for path in paths:
        records.extend(load_decisions(path))
    if args.summary:
        rows = [
            (scheduler, key, count)
            for scheduler, buckets in summarize_decisions(records).items()
            for key, count in buckets.items()
        ]
        print(format_table(
            ("scheduler", "decision", "count"),
            rows,
            title=f"decision summary ({len(records)} records, "
                  f"{len(paths)} log(s))",
        ))
        return 0
    if args.job is None:
        print("explain needs --job (or --summary)", file=sys.stderr)
        return 2
    target = f"job {args.job}" + (f" task {args.task}" if args.task else "")
    # Sequence numbers are per-scheduler streams, so chains from a
    # multi-scheduler run directory must not interleave.
    by_scheduler: dict[str, list] = {}
    for record in records:
        by_scheduler.setdefault(record.scheduler, []).append(record)
    found = False
    for scheduler in sorted(by_scheduler):
        chain = explain_task(by_scheduler[scheduler], args.job, args.task)
        if not chain:
            continue
        found = True
        print(
            f"decision chain for {target} "
            f"({scheduler}, {len(chain)} records):"
        )
        for record in chain:
            print(f"  {format_record(record)}")
    if not found:
        print(f"no decisions recorded for {target}")
        return 1
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hit-Scheduler reproduction toolkit (ICPP 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="build and describe a fabric")
    p.add_argument("kind", choices=sorted(FABRICS), help="fabric registry name")
    p.add_argument("--depth", type=int, help="tree switch levels")
    p.add_argument("--fanout", type=int, help="tree branching factor")
    p.add_argument("--redundancy", type=int, help="tree switches per position")
    p.add_argument("--k", type=int, help="fat-tree arity")
    p.add_argument("--n", type=int, help="BCube ports per switch")
    p.add_argument("--levels", type=int, help="BCube level count k")
    p.add_argument("--slots", type=float, help="slots per server")
    p.set_defaults(func=cmd_topology)

    p = sub.add_parser("workload", help="sample a Table-1 workload")
    p.add_argument("--jobs", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-size", type=float, default=4.0)
    p.add_argument("--max-size", type=float, default=12.0)
    p.add_argument("--interarrival", type=float, default=0.0)
    p.add_argument("--output", help="save as a JSON-lines trace file")
    p.set_defaults(func=cmd_workload)

    for cmd, func, help_text in (
        ("simulate", cmd_simulate, "run the discrete-event simulator"),
        ("optimize", cmd_optimize, "static placement comparison"),
    ):
        p = sub.add_parser(cmd, help=help_text)
        p.add_argument(
            "--scheduler", nargs="+", choices=list(SCHEDULERS),
            default=["capacity", "pna", "hit"],
        )
        p.add_argument("--jobs", type=int, default=8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--interarrival", type=float, default=0.5)
        p.add_argument(
            "--jobs-trace", dest="jobs_trace",
            help="load jobs from a workload trace file instead",
        )
        p.add_argument(
            "--check-invariants", action="store_true",
            help="verify the paper's runtime invariants and print a "
                 "violations summary (non-zero exit on breaches)",
        )
        p.add_argument(
            "--trace", dest="trace_file", metavar="FILE",
            help="write counters/timers/spans as JSON lines to FILE",
        )
        if cmd == "simulate":
            p.add_argument("--save-trace", help="save per-scheduler run traces")
            telemetry_group = p.add_argument_group(
                "simulated-time telemetry",
                "opt-in, non-perturbing gauge timelines and run exports "
                "(docs/observability.md)",
            )
            telemetry_group.add_argument(
                "--timeline", action="store_true",
                help="record gauge timelines on the simulated clock "
                     f"(grid step {DEFAULT_TIMELINE_DT}; the "
                     "REPRO_TIMELINE_DT environment variable also enables "
                     "this)",
            )
            telemetry_group.add_argument(
                "--timeline-dt", type=float, default=None, metavar="DT",
                help="sampling grid step in simulated time (implies "
                     "--timeline)",
            )
            telemetry_group.add_argument(
                "--timeline-max-samples", type=int, default=None, metavar="N",
                help="bound the in-memory timeline buffer to N samples; "
                     "overflow spills to --timeline-spill (or is dropped)",
            )
            telemetry_group.add_argument(
                "--timeline-spill", metavar="PREFIX",
                help="stream overflowing timeline samples to "
                     "PREFIX.<scheduler>.jsonl (needs --timeline-max-samples)",
            )
            provenance_group = p.add_argument_group(
                "decision provenance",
                "opt-in, non-perturbing decision-audit records; query with "
                "`repro explain` (docs/observability.md)",
            )
            provenance_group.add_argument(
                "--provenance", metavar="DIR",
                help="record one DecisionRecord per runtime choice to "
                     "DIR/decisions.<scheduler>.jsonl",
            )
            provenance_group.add_argument(
                "--provenance-ring", type=int, default=4096, metavar="N",
                help="in-memory decision ring size (default 4096; the "
                     "JSONL log always has every record)",
            )
            telemetry_group.add_argument(
                "--export-trace", metavar="PREFIX",
                help="write PREFIX.<scheduler>.json Chrome trace-event "
                     "files (open in https://ui.perfetto.dev)",
            )
            telemetry_group.add_argument(
                "--html-report", metavar="FILE",
                help="write a self-contained HTML telemetry report "
                     "covering every scheduler in this run",
            )
            telemetry_group.add_argument(
                "--critical-path", action="store_true",
                help="print the per-scheduler JCT critical-path "
                     "attribution table (markdown)",
            )
            fault_group = p.add_argument_group(
                "fault injection",
                "deterministic failures replayed identically for every "
                "scheduler (docs/fault_model.md)",
            )
            fault_group.add_argument(
                "--faults", metavar="FILE",
                help="JSON-lines fault timeline (see repro.faults.spec)",
            )
            fault_group.add_argument(
                "--mtbf", type=float, default=None,
                help="sample server failures with this mean time between "
                     "failures (exponential, seeded by --seed)",
            )
            fault_group.add_argument(
                "--mttr", type=float, default=1.0,
                help="server mean time to recovery (default 1.0)",
            )
            fault_group.add_argument(
                "--switch-mtbf", type=float, default=None,
                help="sample switch failures with this MTBF",
            )
            fault_group.add_argument(
                "--switch-mttr", type=float, default=1.0,
                help="switch mean time to recovery (default 1.0)",
            )
            fault_group.add_argument(
                "--slowdown-mtbf", type=float, default=None,
                help="sample transient server slowdowns (stragglers) with "
                     "this mean time between episodes",
            )
            fault_group.add_argument(
                "--slowdown-mttr", type=float, default=0.5,
                help="mean duration of a sampled slowdown episode "
                     "(default 0.5)",
            )
            fault_group.add_argument(
                "--slowdown-factor", type=float, default=4.0,
                help="compute-speed divisor during a sampled slowdown "
                     "(default 4.0)",
            )
            fault_group.add_argument(
                "--link-mtbf", type=float, default=None,
                help="sample physical-link failures with this MTBF",
            )
            fault_group.add_argument(
                "--link-mttr", type=float, default=1.0,
                help="link mean time to recovery (default 1.0; 0 = "
                     "instant repair)",
            )
            fault_group.add_argument(
                "--domain-mtbf", type=float, default=None,
                help="sample correlated failure-domain outages with this "
                     "MTBF (whole racks/pods/power feeds at once)",
            )
            fault_group.add_argument(
                "--domain-mttr", type=float, default=1.0,
                help="failure-domain mean time to recovery (default 1.0)",
            )
            fault_group.add_argument(
                "--domain-kind", choices=("rack", "pod", "power"),
                default="rack",
                help="which failure domains --domain-mtbf samples over "
                     "(default rack)",
            )
            fault_group.add_argument(
                "--allow-partition", action="store_true",
                help="let sampled outages partition the fabric (default: "
                     "partitioning episodes are dropped)",
            )
            fault_group.add_argument(
                "--fault-horizon", type=float, default=20.0,
                help="stop sampling new failures after this time",
            )
            fault_group.add_argument(
                "--max-task-retries", type=int, default=3,
                help="failure-induced re-executions allowed per task",
            )
            spec_group = p.add_argument_group(
                "speculative execution",
                "LATE-style straggler mitigation with topology-aware "
                "backup placement (docs/fault_model.md)",
            )
            spec_group.add_argument(
                "--speculation", action="store_true",
                help="enable speculative backup attempts for straggling "
                     "maps (no-op on fault-free runs)",
            )
            spec_group.add_argument(
                "--spec-quota", type=float, default=0.2,
                help="concurrent backups allowed per job, as a fraction "
                     "of its map count (default 0.2)",
            )
            spec_group.add_argument(
                "--spec-threshold", type=float, default=0.7,
                help="an attempt is a straggler when its normalised "
                     "progress rate falls below this fraction of its "
                     "job's mean (default 0.7)",
            )
        p.set_defaults(func=func)

    p = sub.add_parser("experiment", help="regenerate a paper figure")
    p.add_argument(
        "figure", choices=("fig1", "fig3", "fig8a", "fig8b", "fig9", "fig10")
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "sweep",
        help="sharded, resumable experiment grid with deterministic merge",
        description="Enumerate a (seeds x schedulers x topologies x arms) "
                    "grid, shard cells across worker processes, cache each "
                    "cell keyed by its config hash, and merge cached cells "
                    "into a byte-stable report (docs/experiments.md).",
    )
    p.add_argument(
        "--grid", metavar="FILE",
        help="JSON grid spec file (overrides the inline axis flags)",
    )
    p.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="seed axis (default: 0)",
    )
    p.add_argument(
        "--schedulers", nargs="+", choices=list(SCHEDULERS),
        default=["capacity", "pna", "hit"],
        help="scheduler axis",
    )
    p.add_argument(
        "--topologies", nargs="+", choices=sorted(FABRICS),
        default=["testbed"],
        help="topology axis (registry names; dict form only via --grid)",
    )
    p.add_argument(
        "--arms", nargs="+", choices=sorted(ARMS),
        default=["baseline"],
        help="fault/speculation arm axis (default: baseline)",
    )
    p.add_argument("--jobs", type=int, default=8,
                   help="jobs per workload (inline grids)")
    p.add_argument("--interarrival", type=float, default=0.5)
    p.add_argument(
        "--workers", type=int, default=1,
        help="worker processes to shard cells across (1 = in-process); "
             "the merged output is byte-identical for any value",
    )
    p.add_argument(
        "--cache-dir", default="sweep-cache", metavar="DIR",
        help="per-cell artifact cache (default: ./sweep-cache)",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume an interrupted sweep by skipping cached cells — this "
             "is also the default behaviour; the flag exists to make "
             "intent explicit in scripts (works on an empty cache too)",
    )
    p.add_argument(
        "--force", action="store_true",
        help="recompute every cell, ignoring cached artifacts",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the merged canonical-JSON report to FILE",
    )
    p.add_argument(
        "--check-invariants", action="store_true",
        help="verify runtime invariants during cells run in-process "
             "(workers=1) and print a violations summary",
    )
    p.add_argument(
        "--trace", dest="trace_file", metavar="FILE",
        help="write per-cell timers and the sweep summary as JSON lines",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "chaos",
        help="randomized fault campaign with a survivability contract",
        description="Drive seeded randomized fault timelines (correlated "
                    "failure domains, switch/server crashes, link failures "
                    "and degradations, optional partitions) through the "
                    "engine across a schedulers x topologies grid, and "
                    "machine-check the survivability contract on every "
                    "trial (docs/fault_model.md). Non-zero exit on any "
                    "contract violation.",
    )
    p.add_argument("--trials", type=int, default=50,
                   help="seeded trials across the grid (default 50)")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; trial i uses seed+i")
    p.add_argument(
        "--schedulers", nargs="+", choices=list(SCHEDULERS),
        default=["capacity", "hit"],
    )
    p.add_argument(
        "--topologies", nargs="+", choices=sorted(FABRICS),
        default=["small", "deep"],
        help="fabric registry names (default: small deep)",
    )
    p.add_argument("--jobs", type=int, default=3,
                   help="jobs per trial (default 3)")
    p.add_argument("--horizon", type=float, default=4.0,
                   help="fault-sampling horizon per trial (default 4.0)")
    p.add_argument("--max-task-retries", type=int, default=8,
                   help="retry budget per task (default 8)")
    p.add_argument(
        "--partition-every", type=int, default=4,
        help="every Nth trial may partition the fabric (0 = never)",
    )
    p.add_argument(
        "--no-rerun", action="store_true",
        help="skip the per-trial byte-identity rerun (faster, weaker)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the canonical-JSON chaos report to FILE",
    )
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "online",
        help="open-loop arrivals through the admission plane",
        description="Sample a seeded multi-tenant arrival stream at a "
                    "multiple of the fabric's estimated saturation rate, "
                    "run it through per-tenant admission queues and a "
                    "scheduler, and print per-tenant accounting under the "
                    "overload contract (docs/workload.md). The --out report "
                    "is canonical JSON — byte-identical across reruns of "
                    "the same seed.",
    )
    p.add_argument(
        "--arrival-rate", type=float, default=1.5,
        help="aggregate arrival rate as a multiple of the estimated "
             "saturation rate (default 1.5 = overload)",
    )
    p.add_argument("--tenants", type=int, default=2,
                   help="tenants sharing the cluster (default 2)")
    p.add_argument(
        "--profile", choices=("poisson", "diurnal", "bursty"),
        default="poisson",
        help="arrival process shape (default poisson)",
    )
    p.add_argument(
        "--admission",
        choices=("admit-all", "queue-bound", "load-threshold",
                 "token-bucket"),
        default="queue-bound",
        help="admission policy (default queue-bound)",
    )
    p.add_argument(
        "--queue-bound", type=int, default=8,
        help="max queued jobs per tenant under queue-bound (default 8)",
    )
    p.add_argument("--duration", type=float, default=3.0,
                   help="submission window in sim time (default 3.0)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--scheduler", choices=list(SCHEDULERS), default="hit",
    )
    p.add_argument(
        "--topology", choices=sorted(FABRICS), default="small",
        help="fabric registry name (default small)",
    )
    p.add_argument(
        "--stall-limit", type=int, default=50_000,
        help="consecutive same-timestamp events before the run aborts "
             "as a sim-time stall (default 50000)",
    )
    p.add_argument(
        "--check-invariants", action="store_true",
        help="verify runtime invariants (incl. online accounting) and "
             "print a violations summary (non-zero exit on breaches)",
    )
    p.add_argument(
        "--trace", dest="trace_file", metavar="FILE",
        help="write counters/timers/spans as JSON lines to FILE",
    )
    p.add_argument(
        "--provenance", metavar="DIR",
        help="record decision provenance to DIR/decisions.<scheduler>.jsonl "
             "(non-perturbing; query with `repro explain`)",
    )
    p.add_argument(
        "--out", metavar="FILE",
        help="write the canonical-JSON online report to FILE",
    )
    p.set_defaults(func=cmd_online)

    p = sub.add_parser(
        "explain",
        help="query a decision-provenance log",
        description="Read the DIR/decisions.<scheduler>.jsonl logs a "
                    "--provenance run wrote and either reconstruct the "
                    "decision chain of one job/task (--job/--task) or "
                    "aggregate reason codes per scheduler (--summary). "
                    "Output is deterministic: records print in sequence "
                    "order with sorted detail keys.",
    )
    p.add_argument(
        "--run", required=True, metavar="PATH",
        help="a decisions .jsonl file, or a directory containing "
             "decisions.*.jsonl logs",
    )
    p.add_argument(
        "--scheduler", metavar="NAME",
        help="restrict to one scheduler's log (directory runs only)",
    )
    p.add_argument("--job", type=int, default=None, help="job id to explain")
    p.add_argument(
        "--task", metavar="TASK",
        help="task identity (m3 / r1); flow records match both endpoints",
    )
    p.add_argument(
        "--summary", action="store_true",
        help="print aggregated kind:reason counts per scheduler instead "
             "of a chain",
    )
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
