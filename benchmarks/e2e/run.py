"""Whole-run simulator benchmark: time ``MapReduceSimulator.run()`` end to end.

Every simulation runs in a fresh worker process (``worker.py``), one at a
time, so each pays the same cold-cache start a CLI run pays.  Two ways to
run it, from the repository root:

    python3 benchmarks/e2e/run.py --seed 0 --out e2e.json
        All four workloads: 5 timed runs and 1 traced run each.  Prints every
        metric with its unit, writes the JSON report to ``e2e.json`` and the
        traced runs' spans to ``e2e.trace.json`` (Chrome trace format), and
        exits 1 if any output check fails.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload for about S seconds.  The last stdout line is one JSON
        object: ``correct``, ``attempted`` and ``failed`` (jobs) and
        ``metrics`` (the end-to-end metrics with ``--trace 0``, the
        per-layer metrics of one traced run with ``--trace 1``).

The workload seed is the only argument that changes the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))

#: End-to-end metric -> (unit, better, bound).  The bound is the share of
#: the base median by which the metric may worsen before it counts as a
#: regression; 0.0 marks a simulated metric, deterministic per seed, that
#: must not change at all.  BENCHMARK.json gates the host metrics.
END_TO_END: dict[str, tuple[str, str, float]] = {
    "wall_s": ("s", "lower", 0.25),
    "us_per_event": ("us", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "sim_jct_p50": ("simtime", "lower", 0.0),
    "sim_jct_p80": ("simtime", "lower", 0.0),
    "sim_shuffle_cost": ("GB.T", "lower", 0.0),
    "job_fail_frac": ("fraction", "lower", 0.0),
}
#: The metrics that vary from run to run (host measurements).
HOST_METRICS = tuple(name for name, spec in END_TO_END.items() if spec[2] > 0)

#: Per-layer metric -> unit.  Names ending in ``_s`` are self times.
LAYER_UNITS: dict[str, str] = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.self_us_per_event": "us",
    "network.calls": "count",
    "network.self_s": "s",
    "network.recompute_calls": "count",
    "network.recompute_s": "s",
    "topology.calls": "count",
    "topology.self_s": "s",
    "policy.route_calls": "count",
    "policy.install_all_calls": "count",
    "policy.self_s": "s",
    "policy.reinstall_changed_frac": "fraction",
    "preference.build_calls": "count",
    "preference.self_s": "s",
    "preference.ranking_entries": "count",
    "matching.calls": "count",
    "matching.self_s": "s",
    "matching.proposals": "count",
    "matching.evictions": "count",
    "matching.proposal_frac": "fraction",
    "hit.waves": "count",
    "hit.sweeps": "count",
    "hit.self_s": "s",
    "scheduler.calls": "count",
    "scheduler.self_s": "s",
    "admission.calls": "count",
    "admission.self_s": "s",
    "admission.reject_frac": "fraction",
    "faults.self_s": "s",
    "faults.switch_fail": "count",
    "faults.link_fail": "count",
    "faults.flows_rerouted": "count",
    "obs.timeline.self_s": "s",
    "obs.provenance.self_s": "s",
    "obs.provenance.records": "count",
    "obs.tracer.self_s": "s",
    "bench.self_s": "s",
    "trace.overhead_frac": "fraction",
}

#: Full-mode timed runs per workload.
REPEATS = 5
#: Set-up-only workers per single-workload run (timed runs add their own).
SETUP_PROBES = 3
#: Timed runs a single-workload run makes even when they overrun --seconds.
MIN_TIMED = 2
#: Per-worker time limit; a worker past it is killed.
WORKER_TIMEOUT_S = 170.0
#: Allowed gap between the summed self times and the traced run() wall.
SELF_SUM_TOLERANCE = 0.01


class HarnessError(RuntimeError):
    """A worker could not run at all (as opposed to a simulation crash)."""


# ------------------------------------------------------------------ workers
def run_worker(
    workload: str,
    seed: int,
    mode: str,
    work_root: str,
    trace_out: str | None = None,
) -> dict[str, Any]:
    """One fresh worker process; returns its JSON line."""
    work_dir = tempfile.mkdtemp(prefix=f"{mode}-", dir=work_root)
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable,
        WORKER,
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--mode",
        mode,
        "--work-dir",
        work_dir,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(
            f"{workload} {mode} worker exceeded {WORKER_TIMEOUT_S:.0f} s"
        ) from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(
            f"{workload} {mode} worker exited {proc.returncode}:\n{tail}"
        )
    return json.loads(lines[-1])


# --------------------------------------------------------------- statistics
def describe(values: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and count of one metric's samples."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "value": median,
        "n": len(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
    }


def job_fail_frac(run: dict[str, Any]) -> float:
    lost = run["rejected"] + run["queued"] + run["unfinished"]
    return lost / run["submitted"] if run["submitted"] else 0.0


def summarize(
    timed: list[dict[str, Any]], setups: list[float]
) -> dict[str, dict[str, Any]]:
    """End-to-end metrics of one workload from its timed runs."""
    first = timed[0]
    samples = {
        "wall_s": [r["wall_s"] for r in timed],
        "us_per_event": [
            r["wall_s"] * 1e6 / max(r["events"], 1) for r in timed
        ],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "sim_jct_p50": [first["sim_jct_p50"]],
        "sim_jct_p80": [first["sim_jct_p80"]],
        "sim_shuffle_cost": [first["sim_shuffle_cost"]],
        "job_fail_frac": [job_fail_frac(first)],
    }
    out: dict[str, dict[str, Any]] = {}
    for name, values in samples.items():
        unit, better, _ = END_TO_END[name]
        out[name] = {**describe(values), "unit": unit, "better": better}
    return out


# ------------------------------------------------------------------- checks
def check_runs(
    timed: list[dict[str, Any]], traced: dict[str, Any] | None
) -> list[str]:
    """Output checks of one workload; returns the failures."""
    failures: list[str] = []
    for i, run in enumerate(timed + ([traced] if traced else [])):
        label = "traced run" if run is traced else f"timed run {i}"
        if run["status"] != "ok":
            failures.append(f"{label} crashed: {run.get('error', '?')}")
            continue
        accounted = run["completed"] + run["rejected"] + run["queued"]
        if accounted != run["submitted"]:
            failures.append(
                f"{label}: completed+rejected+queued = {accounted} "
                f"!= submitted {run['submitted']}"
            )
    prints = {run["fingerprint"] for run in timed}
    if len(prints) != 1:
        failures.append(f"timed runs disagree: {len(prints)} fingerprints")
    if traced is not None:
        if traced["fingerprint"] != timed[0]["fingerprint"]:
            failures.append("traced run fingerprint differs from untraced")
        root, total = traced["root_wall_s"], traced["self_sum_s"]
        if abs(total - root) > SELF_SUM_TOLERANCE * root:
            failures.append(
                f"layer self times sum to {total:.6f} s, run() took {root:.6f} s"
            )
        negative = [
            k for k, v in traced["layers"].items() if k.endswith("_s") and v < 0
        ]
        if negative:
            failures.append(f"negative self time: {negative}")
    return failures


def layer_table(traced: dict[str, Any], base_wall_s: float) -> dict[str, Any]:
    layers = dict(traced["layers"])
    layers["trace.overhead_frac"] = traced["root_wall_s"] / base_wall_s - 1.0
    return {name: {"value": layers[name], "unit": LAYER_UNITS[name]} for name in LAYER_UNITS}


# -------------------------------------------------------------- full report
def run_workload(
    name: str, seed: int, work_root: str, trace_out: str
) -> dict[str, Any]:
    timed = [run_worker(name, seed, "timed", work_root) for _ in range(REPEATS)]
    traced = run_worker(name, seed, "traced", work_root, trace_out)
    metrics = summarize(timed, [r["setup_s"] for r in timed])
    entry: dict[str, Any] = {
        "status": "crashed" if any(r["status"] != "ok" for r in timed) else "ok",
        "fingerprint": timed[0]["fingerprint"],
        "submitted": timed[0]["submitted"],
        "events": timed[0]["events"],
        "metrics": metrics,
        "layers": layer_table(traced, metrics["wall_s"]["value"]),
        "by_name": traced["by_name"],
        "spans": traced["spans"],
        "checks": check_runs(timed, traced),
        "runs": [
            {k: r[k] for k in ("status", "wall_s", "setup_s", "peak_rss_mb", "fingerprint")}
            for r in timed
        ],
    }
    if entry["status"] == "crashed":
        entry["error"] = next(r["error"] for r in timed if r["status"] != "ok")
    return entry


def merge_traces(parts: dict[str, str], out: str) -> tuple[int, list[str]]:
    """Write one Chrome trace with a process per workload to ``out``.

    Each part is validated on its own; parts share no state the validator
    checks across events, so the merged file is valid when every part is.
    Returns the event count and the validation problems.
    """
    from repro.obs.export import validate_chrome_trace

    count, problems = 0, []
    with open(out, "w", encoding="utf-8") as fh:
        fh.write('{"displayTimeUnit":"ms","traceEvents":[')
        for pid, (name, path) in enumerate(parts.items(), start=1):
            with open(path, encoding="utf-8") as part:
                events = json.load(part)["traceEvents"]
            for ev in events:
                ev["pid"] = pid
                if ev["ph"] == "M" and ev["name"] == "process_name":
                    ev["args"] = {"name": name}
                fh.write(("," if count else "") + json.dumps(ev, separators=(",", ":")))
                count += 1
            problems += [
                f"{name}: {p}"
                for p in validate_chrome_trace({"traceEvents": events})
            ]
        fh.write("]}\n")
    return count, problems


def print_report(report: dict[str, Any]) -> None:
    for name, entry in report["workloads"].items():
        print(f"== {name}  [{entry['status']}]  fingerprint {entry['fingerprint'][:16]}")
        for metric, stat in entry["metrics"].items():
            print(
                f"  {metric:<18} {stat['value']:>14.6g} {stat['unit']:<9}"
                f" n={stat['n']} q1={stat['q1']:.6g} q3={stat['q3']:.6g}"
                f" max={stat['max']:.6g}"
            )
        for metric, stat in entry["layers"].items():
            print(f"  {metric:<28} {stat['value']:>14.6g} {stat['unit']}")
        for failure in entry["checks"]:
            print(f"  CHECK FAILED: {failure}")


def full_run(seed: int, out: str, work_root: str) -> int:
    from workloads import WORKLOADS

    report: dict[str, Any] = {
        "format": "repro.bench.e2e.v1",
        "seed": seed,
        "host": {
            "python": sys.version.split()[0],
            "platform": sys.platform,
            "cpus": os.cpu_count(),
        },
        "workloads": {},
    }
    traces: dict[str, str] = {}
    for name in WORKLOADS:
        traces[name] = os.path.join(work_root, f"{name}.trace.json")
        report["workloads"][name] = run_workload(name, seed, work_root, traces[name])
    trace_path = os.path.splitext(out)[0] + ".trace.json"
    count, problems = merge_traces(traces, trace_path)
    report["trace"] = {"path": trace_path, "events": count}
    if problems:
        report["trace"]["problems"] = problems[:10]
    report["ok"] = not problems and all(
        not e["checks"] for e in report["workloads"].values()
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print_report(report)
    for problem in problems[:10]:
        print(f"CHECK FAILED: trace: {problem}")
    print(f"report: {out}  trace: {trace_path}  ok: {report['ok']}")
    return 0 if report["ok"] else 1


# ------------------------------------------------------------ one workload
def timed_run(name: str, seed: int, seconds: float, work_root: str) -> dict[str, Any]:
    """Set-up probes, then timed runs until ``seconds`` would be overrun."""
    start = time.perf_counter()
    setups = [
        run_worker(name, seed, "setup", work_root)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    timed: list[dict[str, Any]] = []
    last = 0.0
    while len(timed) < MIN_TIMED or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        timed.append(run_worker(name, seed, "timed", work_root))
        last = time.perf_counter() - began
    setups += [r["setup_s"] for r in timed]
    metrics = summarize(timed, setups)
    checks = check_runs(timed, None)
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": sum(r["submitted"] for r in timed),
        "failed": sum(
            r["rejected"] + r["queued"] + r["unfinished"] for r in timed
        ),
        "metrics": {
            k: {"value": metrics[k]["value"], "unit": metrics[k]["unit"]}
            for k in HOST_METRICS
        },
        "detail": metrics,
    }


def traced_run(name: str, seed: int, work_root: str) -> dict[str, Any]:
    """One untraced run as the overhead base, then one traced run."""
    trace_out = os.path.join(work_root, "trace.json")
    timed = run_worker(name, seed, "timed", work_root)
    traced = run_worker(name, seed, "traced", work_root, trace_out)
    from repro.obs.export import validate_chrome_trace

    with open(trace_out, encoding="utf-8") as fh:
        problems = validate_chrome_trace(json.load(fh))
    checks = check_runs([timed], traced) + [f"trace: {p}" for p in problems[:10]]
    runs = (timed, traced)
    return {
        "correct": not checks,
        "checks": checks,
        "attempted": sum(r["submitted"] for r in runs),
        "failed": sum(r["rejected"] + r["queued"] + r["unfinished"] for r in runs),
        "metrics": layer_table(traced, timed["wall_s"]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Whole-run simulator benchmark (see module docstring)."
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="full mode: JSON report path")
    parser.add_argument("--workload", help="one workload (see workloads.py)")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if (args.out is None) == (args.workload is None):
        parser.error("give exactly one of --out (all workloads) or --workload")
    sys.path.insert(0, SRC)
    work_parent = os.path.join(HERE, ".work")
    os.makedirs(work_parent, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=work_parent)
    try:
        if args.out is not None:
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            return full_run(args.seed, args.out, work_root)
        if args.trace:
            result = traced_run(args.workload, args.seed, work_root)
        else:
            result = timed_run(args.workload, args.seed, args.seconds, work_root)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    for check in result["checks"]:
        print(f"CHECK FAILED: {check}")
    for metric, stat in result.get("detail", result["metrics"]).items():
        print(f"{args.workload} {metric} = {stat['value']:.6g} {stat['unit']}")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
