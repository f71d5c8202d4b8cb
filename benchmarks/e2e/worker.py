"""One benchmark worker: build one workload, run it once, print one JSON line.

    python benchmarks/e2e/worker.py --workload NAME --seed N --mode MODE \
        --work-dir DIR [--trace-out FILE]

``--mode setup`` stops after building the simulator, ``timed`` runs it with
no wrappers, ``traced`` runs it under :func:`layers.traced` and writes the
spans to ``--trace-out``.  ``setup_s`` runs from this file's first
statement, before ``repro`` is imported, to a constructed simulator.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(_HERE, "..", "..", "src"), _HERE]

from repro.experiments.online import online_fingerprint  # noqa: E402
from repro.obs import observe  # noqa: E402

import workloads  # noqa: E402


def _counters(sim) -> dict[str, int]:
    counters: dict[str, int] = {}
    if sim.faults is not None:
        counters.update(sim.faults.summary())
    if sim.admission is not None:
        counters.update(sim.admission.counters())
    return counters


def _outcome(built: workloads.Built, error: BaseException | None) -> dict:
    """Job accounting, simulated metrics and the run fingerprint."""
    sim = built.sim
    metrics = sim.metrics
    counters = _counters(sim)
    completed = len(metrics.jobs)
    rejected = int(counters.get("admission.rejected", 0))
    queued = int(counters.get("admission.queued", 0))
    out = {
        "status": "ok" if error is None else "crashed",
        "submitted": built.submitted,
        "completed": completed,
        "rejected": rejected,
        "queued": queued,
        "unfinished": built.submitted - completed - rejected - queued,
        "events": sim.events_processed,
        "sim_jct_p50": metrics.jct_percentile(50.0),
        "sim_jct_p80": metrics.jct_percentile(80.0),
        "sim_shuffle_cost": metrics.total_shuffle_cost(),
        "counters": counters,
    }
    if error is None:
        out["fingerprint"] = online_fingerprint(
            metrics.summary(), counters, sim.events_processed
        )
    else:
        out["error"] = f"{type(error).__name__}: {error}"
        out["fingerprint"] = f"crashed: {type(error).__name__}"
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    built = workloads.build(args.workload, args.seed, args.work_dir)
    setup_s = time.perf_counter() - _T0
    result: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode}
    if args.mode != "setup":
        recorder = None
        error: BaseException | None = None
        started = time.perf_counter()
        try:
            with observe(tracer=built.tracer) if built.tracer else contextlib.nullcontext():
                if args.mode == "traced":
                    import layers

                    with layers.traced(built.sim) as recorder:
                        built.sim.run()
                else:
                    built.sim.run()
        except Exception as exc:  # recorded as a crashed run, not raised
            error = exc
        wall_s = time.perf_counter() - started
        if built.tracer is not None:
            built.tracer.close()
        result.update(_outcome(built, error), wall_s=wall_s)
        if recorder is not None:
            result["layers"] = layers.layer_metrics(recorder, built.sim)
            result["by_name"] = recorder.by_name()
            result["root_wall_s"] = recorder.root_wall_s()
            result["self_sum_s"] = sum(recorder.layer_self_s().values())
            result["spans"] = len(recorder.start)
            if args.trace_out:
                recorder.write_chrome_trace(args.trace_out)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
