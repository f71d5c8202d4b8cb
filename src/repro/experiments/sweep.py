"""Sharded, resumable experiment sweeps with a byte-identity merge contract.

Figure-scale reproduction runs the same grid over and over: *seeds x
schedulers x topologies x workloads x fault/speculation arms*.  The grid is
embarrassingly parallel, but parallelism is only admissible if it can never
change results — the per-run byte-identity contract
(``tests/simulator/test_determinism.py``) must extend to whole sweeps.  This
module is that extension:

* :class:`SweepSpec` — a declarative grid; :meth:`SweepSpec.cells`
  enumerates one :class:`CellConfig` per grid point in **canonical order**
  (sorted by each cell's canonical JSON), independent of spec key order or
  list order.
* :func:`CellConfig.config_hash` — sha256 over the cell's canonical JSON
  (:func:`repro.analysis.report.canonical_json`): stable across process
  restarts and dict key permutations, sensitive to every semantic field.
* :func:`run_cell` — executes one cell from nothing but its config (fresh
  topology, fresh workload, fresh scheduler, all seeded), returning plain
  JSON-serialisable data.  Cells never touch global RNG state or shared
  module caches, so they can run in any order, in any process.
* Artifact cache — each finished cell is written atomically to
  ``<cache_dir>/<config_hash>.json`` with a checksum over its result;
  :func:`run_sweep` skips cells whose artifact loads and verifies, which is
  what makes an interrupted sweep resumable (corrupt or stale artifacts are
  recomputed, never merged).
* :func:`run_sweep` — shards pending cells across a
  :class:`~concurrent.futures.ProcessPoolExecutor` (``workers > 1``) or runs
  them inline; either way results land in the cache and the merge reads only
  the cache.
* :func:`merge_sweep` — loads every cell in canonical order and renders the
  merged document via :func:`repro.analysis.report.render_sweep_report`.

**The byte-identity contract:** for a fixed grid spec and code version, the
merged report is byte-identical regardless of worker count, worker
scheduling, or how many interrupt/resume cycles produced the cache
(``tests/experiments/test_sweep_determinism.py`` enforces this in CI).
Artifacts therefore contain only deterministic content — configs, simulated
results, checksums — never wall-clock timings (those go to the
:mod:`repro.obs` tracer instead).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from ..analysis.report import canonical_json, render_sweep_report
from ..cluster.resources import Resources
from ..faults import generate_timeline
from ..mapreduce.workload import WorkloadGenerator
from ..obs.runtime import STATE as _OBS
from ..obs.tracer import TimerStat
from ..schedulers import make_scheduler
from ..simulator.engine import SimulationConfig
from ..speculation import SpeculationConfig
from ..topology.base import Topology
from ..topology.tree import TreeConfig, build_tree
from . import configs
from .faults import run_chaos_cell, run_fault_cell
from .static import run_static_cell
from .telemetry import run_telemetry_cell

__all__ = [
    "SWEEP_FORMAT",
    "ARMS",
    "CellConfig",
    "SweepSpec",
    "SweepRunResult",
    "build_cell_topology",
    "build_cell_workload",
    "run_cell",
    "cell_artifact_path",
    "write_cell_artifact",
    "load_cell_artifact",
    "run_sweep",
    "merge_sweep",
]

#: Version tag stamped into every artifact and merged report; bump on any
#: change to the cell semantics so stale caches invalidate themselves.
SWEEP_FORMAT = "repro.sweep.v1"

#: Fault/speculation arms a cell can run.
ARMS = (
    "baseline",
    "chaos",
    "faults",
    "faults+speculation",
    "online",
    "static",
    "telemetry",
)

#: Arms that sample and replay a fault timeline.
_FAULT_ARMS = ("faults", "faults+speculation")

DEFAULT_WORKLOAD: dict[str, Any] = {
    "num_jobs": 8,
    "interarrival": 0.5,
    "min_size": 4.0,
    "max_size": 12.0,
    "map_rate": 8.0,
    "reduce_rate": 8.0,
}

DEFAULT_FAULT: dict[str, Any] = {
    "server_mtbf": 8.0,
    "server_mttr": 0.5,
    "switch_mtbf": 20.0,
    "switch_mttr": 0.5,
    "slowdown_mtbf": None,
    "slowdown_mttr": 0.5,
    "slowdown_factor": 4.0,
    "horizon": 8.0,
    "max_task_retries": 10,
}

DEFAULT_SPECULATION: dict[str, Any] = {"quota": 0.2, "threshold": 0.7}

#: Chaos-arm knobs (randomized survivability campaigns; ``rerun`` is an
#: int flag — the normaliser has no bool type).
DEFAULT_CHAOS: dict[str, Any] = {
    "trials": 6,
    "horizon": 4.0,
    "partition_every": 4,
    "max_task_retries": 8,
    "stall_limit": 20_000,
    "rerun": 1,
}

#: Online-arm knobs (open-loop overload cells; ``multiplier`` is in units
#: of the estimated saturation rate, ``rerun`` an int flag like chaos).
DEFAULT_ONLINE: dict[str, Any] = {
    "multiplier": 1.5,
    "tenants": 2,
    "profile": "poisson",
    "policy": "queue-bound",
    "queue_bound": 8,
    "duration": 3.0,
    "min_size": 2.0,
    "max_size": 6.0,
    "stall_limit": 50_000,
    "rerun": 1,
}

#: Simulated-time sampling step for ``telemetry`` arm cells.
_TELEMETRY_DT = 0.05


# ---------------------------------------------------------------- normalising
def _normalized(
    section: str, raw: Mapping[str, Any], defaults: Mapping[str, Any]
) -> dict[str, Any]:
    """Defaults merged with ``raw``, values coerced to canonical types.

    Numeric coercion (int stays int, everything else becomes float; string
    defaults stay strings) makes the hash insensitive to JSON round-trips —
    ``8`` and ``8.0`` for a rate knob must not be two different cells.
    Unknown keys are an error: a typo silently ignored would *weaken* the
    hash (two specs differing only in the typo'd knob would collide).
    """
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown {section} field(s): {sorted(unknown)} "
            f"(known: {sorted(defaults)})"
        )
    out: dict[str, Any] = {}
    for key, default in defaults.items():
        value = raw.get(key, default)
        if value is None:
            out[key] = None
        elif isinstance(default, str):
            out[key] = str(value)
        elif isinstance(default, int) and not isinstance(default, bool):
            out[key] = int(value)
        else:
            out[key] = float(value)
    return out


def _normalize_topology(raw: str | Mapping[str, Any]) -> dict[str, Any]:
    """Topology spec entry -> canonical dict (``"testbed"`` and
    ``{"name": "testbed"}`` are the same cell)."""
    if isinstance(raw, str):
        raw = {"name": raw}
    if "name" not in raw:
        raise ValueError(f"topology spec needs a 'name': {raw!r}")
    name = str(raw["name"])
    params = {k: v for k, v in raw.items() if k != "name"}
    defaults = _TOPOLOGY_PARAMS.get(name)
    if defaults is None:
        raise ValueError(
            f"unknown topology {name!r} (known: {sorted(_TOPOLOGY_PARAMS)})"
        )
    return {"name": name, **_normalized(f"topology[{name}]", params, defaults)}


# ------------------------------------------------------------------ the cell
@dataclass
class CellConfig:
    """One grid point: everything needed to run (and cache) a single cell."""

    seed: int
    scheduler: str
    topology: dict[str, Any]
    arm: str
    workload: dict[str, Any]
    #: Fault-timeline knobs; present only on fault arms so baseline caches
    #: survive fault-parameter changes.
    fault: dict[str, Any] | None = None
    #: Speculation knobs; present only on the mitigation arm.
    speculation: dict[str, Any] | None = None
    #: Chaos-campaign knobs; present only on the chaos arm (absent keys keep
    #: every pre-chaos cell hash unchanged).
    chaos: dict[str, Any] | None = None
    #: Overload-campaign knobs; present only on the online arm (same
    #: hash-preservation rationale).
    online: dict[str, Any] | None = None

    def to_dict(self) -> dict[str, Any]:
        """Canonical plain-dict form (the hashing/serialisation substrate)."""
        out: dict[str, Any] = {
            "format": SWEEP_FORMAT,
            "seed": int(self.seed),
            "scheduler": self.scheduler,
            "topology": dict(self.topology),
            "arm": self.arm,
            "workload": dict(self.workload),
        }
        if self.fault is not None:
            out["fault"] = dict(self.fault)
        if self.speculation is not None:
            out["speculation"] = dict(self.speculation)
        if self.chaos is not None:
            out["chaos"] = dict(self.chaos)
        if self.online is not None:
            out["online"] = dict(self.online)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CellConfig":
        """Rebuild a cell from (possibly hand-written) plain data,
        re-normalising every section so the round-trip is canonical."""
        arm = str(raw["arm"])
        if arm not in ARMS:
            raise ValueError(f"unknown arm {arm!r} (known: {ARMS})")
        fault = raw.get("fault")
        speculation = raw.get("speculation")
        return cls(
            seed=int(raw["seed"]),
            scheduler=str(raw["scheduler"]),
            topology=_normalize_topology(raw["topology"]),
            arm=arm,
            workload=_normalized(
                "workload", raw.get("workload", {}), DEFAULT_WORKLOAD
            ),
            fault=(
                _normalized("fault", fault or {}, DEFAULT_FAULT)
                if arm in _FAULT_ARMS
                else None
            ),
            speculation=(
                _normalized(
                    "speculation", speculation or {}, DEFAULT_SPECULATION
                )
                if arm == "faults+speculation"
                else None
            ),
            chaos=(
                _normalized("chaos", raw.get("chaos") or {}, DEFAULT_CHAOS)
                if arm == "chaos"
                else None
            ),
            online=(
                _normalized("online", raw.get("online") or {}, DEFAULT_ONLINE)
                if arm == "online"
                else None
            ),
        )

    def canonical(self) -> str:
        """The cell's canonical JSON: the hash input and the sort key."""
        return canonical_json(self.to_dict())

    def config_hash(self) -> str:
        """sha256 over the canonical JSON.

        Stable across process restarts (no ``hash()``/``PYTHONHASHSEED``
        anywhere), insensitive to dict key order (keys are sorted), and
        sensitive to every semantic field (they are all in
        :meth:`to_dict`).
        """
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Short human-readable identity for logs and trace lines."""
        return (
            f"{self.topology['name']}/{self.scheduler}"
            f"/seed{self.seed}/{self.arm}"
        )


# ----------------------------------------------------- topologies & workloads
#: Per-topology tunable parameters (and their canonical defaults).  Every
#: parameter is part of the cell hash, so changing e.g. ``redundancy``
#: invalidates exactly the affected cells.
_TOPOLOGY_PARAMS: dict[str, dict[str, Any]] = {
    "testbed": {"redundancy": 2},
    "large64": {"redundancy": 2},
    "large512": {"redundancy": 2},
    "mini": {"depth": 2, "fanout": 4, "redundancy": 2, "slots": 3.0},
}


def build_cell_topology(topo: Mapping[str, Any]) -> Topology:
    """Fresh topology for one cell (registry keyed by ``topo['name']``)."""
    name = topo["name"]
    if name == "testbed":
        return configs.testbed_tree(redundancy=int(topo["redundancy"]))
    if name == "large64":
        return configs.large_tree(
            num_servers=64, redundancy=int(topo["redundancy"])
        )
    if name == "large512":
        return configs.large_tree(
            num_servers=512, redundancy=int(topo["redundancy"])
        )
    if name == "mini":
        return build_tree(
            TreeConfig(
                depth=int(topo["depth"]),
                fanout=int(topo["fanout"]),
                redundancy=int(topo["redundancy"]),
                server_resources=(float(topo["slots"]),),
            )
        )
    raise ValueError(f"unknown topology {name!r}")


def build_cell_workload(cell: CellConfig) -> list:
    """Fresh Table-1-style workload for one cell, seeded from the cell."""
    w = cell.workload
    generator = WorkloadGenerator(
        seed=cell.seed,
        input_size_range=(w["min_size"], w["max_size"]),
        split_size=1.0,
        reduces_per_maps=0.25,
        map_rate=w["map_rate"],
        reduce_rate=w["reduce_rate"],
    )
    return generator.make_workload(
        int(w["num_jobs"]), interarrival=w["interarrival"]
    )


# ------------------------------------------------------------- cell execution
def _cell_timeline(cell: CellConfig, topology: Topology):
    """Sample the cell's fault timeline (empty for non-fault arms)."""
    if cell.fault is None:
        return ()
    f = cell.fault
    return generate_timeline(
        topology,
        seed=cell.seed,
        horizon=f["horizon"],
        server_mtbf=f["server_mtbf"],
        server_mttr=f["server_mttr"],
        switch_mtbf=f["switch_mtbf"],
        switch_mttr=f["switch_mttr"],
        slowdown_mtbf=f["slowdown_mtbf"],
        slowdown_mttr=f["slowdown_mttr"],
        slowdown_factor=f["slowdown_factor"],
    )


def run_cell(cell: CellConfig) -> dict[str, Any]:
    """Execute one cell from nothing but its config; return plain data.

    Topology, workload, scheduler, fault timeline and simulation config are
    all rebuilt fresh inside the call and seeded from ``cell.seed`` — the
    function reads no global RNG and mutates no shared state, so the result
    depends only on the config (and the code version), never on which
    process or in which order the cell ran.
    """
    topology = build_cell_topology(cell.topology)
    jobs = build_cell_workload(cell)
    if cell.arm == "static":
        return run_static_cell(topology, jobs, cell.scheduler, seed=cell.seed)
    config = SimulationConfig(
        container_demand=Resources(1.0, 0.0),
        map_slots_per_job=16,
        seed=cell.seed,
    )
    if cell.arm == "chaos":
        assert cell.chaos is not None
        return run_chaos_cell(
            lambda: build_cell_topology(cell.topology),
            lambda: make_scheduler(cell.scheduler, seed=cell.seed),
            lambda: build_cell_workload(cell),
            config,
            seed=cell.seed,
            **cell.chaos,
        )
    if cell.arm == "online":
        from .online import run_online_cell

        assert cell.online is not None
        return run_online_cell(
            lambda: build_cell_topology(cell.topology),
            lambda: make_scheduler(cell.scheduler, seed=cell.seed),
            config,
            seed=cell.seed,
            **cell.online,
        )
    scheduler = make_scheduler(cell.scheduler, seed=cell.seed)
    if cell.arm == "telemetry":
        import dataclasses

        run = run_telemetry_cell(
            topology,
            scheduler,
            jobs,
            dataclasses.replace(config, timeline_dt=_TELEMETRY_DT),
        )
        return {
            "summary": {k: float(v) for k, v in run.metrics.summary().items()},
            "segments": {k: float(v) for k, v in run.mean_segments.items()},
            "counters": {k: int(v) for k, v in sorted(run.counters.items())},
        }
    timeline = _cell_timeline(cell, topology)
    speculation = None
    max_retries = 10
    if cell.fault is not None:
        max_retries = int(cell.fault["max_task_retries"])
    if cell.speculation is not None:
        s = cell.speculation
        speculation = SpeculationConfig(quota=s["quota"], threshold=s["threshold"])
    metrics, counters = run_fault_cell(
        topology,
        scheduler,
        jobs,
        config,
        timeline=timeline,
        speculation=speculation,
        max_task_retries=max_retries,
    )
    return {
        "summary": {k: float(v) for k, v in metrics.summary().items()},
        "counters": {k: int(v) for k, v in sorted(counters.items())},
    }


# -------------------------------------------------------------- the artifact
def cell_artifact_path(cache_dir: str | Path, cell: CellConfig) -> Path:
    """Where one cell's cached result lives: ``<cache>/<hash>.json``."""
    return Path(cache_dir) / f"{cell.config_hash()}.json"


def _result_checksum(result: Mapping[str, Any]) -> str:
    return hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()


def write_cell_artifact(
    cache_dir: str | Path, cell: CellConfig, result: Mapping[str, Any]
) -> Path:
    """Atomically persist one cell's result (write temp file, then rename).

    The artifact embeds the full config (auditability), the config hash
    (cheap identity check) and a checksum over the result (corruption
    detection on resume).  Atomic rename means an interrupted sweep leaves
    either a complete artifact or none — never a half-written one that a
    resume would have to guess about.
    """
    path = cell_artifact_path(cache_dir, cell)
    body = {
        "format": SWEEP_FORMAT,
        "hash": cell.config_hash(),
        "config": cell.to_dict(),
        "result": dict(result),
        "checksum": _result_checksum(result),
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(canonical_json(body) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_cell_artifact(
    cache_dir: str | Path, cell: CellConfig
) -> dict[str, Any] | None:
    """The cell's cached result, or ``None`` when it must be (re)computed.

    ``None`` covers every unusable state uniformly — missing file,
    unparseable JSON, format/hash mismatch (stale cache from other code or
    another cell) and checksum mismatch (bit rot, truncation, tampering).
    A corrupt artifact is never merged; it is recomputed.
    """
    path = cell_artifact_path(cache_dir, cell)
    try:
        body = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if not isinstance(body, dict) or body.get("format") != SWEEP_FORMAT:
        return None
    if body.get("hash") != cell.config_hash():
        return None
    result = body.get("result")
    if not isinstance(result, dict):
        return None
    if body.get("checksum") != _result_checksum(result):
        return None
    return result


# ------------------------------------------------------------------ the grid
@dataclass
class SweepSpec:
    """Declarative sweep grid: the cross product of the axis lists.

    Axis lists are deduplicated and sorted at construction, so two specs
    describing the same *set* of cells (in any order, with any dict key
    order) are the same spec — same ``spec_hash``, same cells, same merged
    bytes.
    """

    seeds: tuple[int, ...]
    schedulers: tuple[str, ...]
    topologies: tuple[dict[str, Any], ...]
    arms: tuple[str, ...]
    workload: dict[str, Any]
    fault: dict[str, Any]
    speculation: dict[str, Any]
    chaos: dict[str, Any] = field(default_factory=lambda: dict(DEFAULT_CHAOS))
    online: dict[str, Any] = field(
        default_factory=lambda: dict(DEFAULT_ONLINE)
    )

    _SECTIONS = (
        "seeds", "schedulers", "topologies", "arms",
        "workload", "fault", "speculation", "chaos", "online",
    )

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SweepSpec":
        unknown = set(raw) - set(cls._SECTIONS)
        if unknown:
            raise ValueError(
                f"unknown sweep spec section(s): {sorted(unknown)} "
                f"(known: {list(cls._SECTIONS)})"
            )
        seeds = tuple(sorted({int(s) for s in raw.get("seeds", (0,))}))
        schedulers = tuple(sorted({str(s) for s in raw.get("schedulers", ())}))
        if not schedulers:
            raise ValueError("sweep spec needs at least one scheduler")
        for name in schedulers:
            make_scheduler(name)  # validate eagerly; raises on unknown names
        arms = tuple(sorted({str(a) for a in raw.get("arms", ("baseline",))}))
        for arm in arms:
            if arm not in ARMS:
                raise ValueError(f"unknown arm {arm!r} (known: {ARMS})")
        topologies = [
            _normalize_topology(t) for t in raw.get("topologies", ("testbed",))
        ]
        topologies = tuple(
            sorted(
                {canonical_json(t): t for t in topologies}.values(),
                key=canonical_json,
            )
        )
        return cls(
            seeds=seeds,
            schedulers=schedulers,
            topologies=topologies,
            arms=arms,
            workload=_normalized(
                "workload", raw.get("workload", {}), DEFAULT_WORKLOAD
            ),
            fault=_normalized("fault", raw.get("fault", {}), DEFAULT_FAULT),
            speculation=_normalized(
                "speculation", raw.get("speculation", {}), DEFAULT_SPECULATION
            ),
            chaos=_normalized("chaos", raw.get("chaos", {}), DEFAULT_CHAOS),
            online=_normalized(
                "online", raw.get("online", {}), DEFAULT_ONLINE
            ),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "SweepSpec":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": SWEEP_FORMAT,
            "seeds": list(self.seeds),
            "schedulers": list(self.schedulers),
            "topologies": [dict(t) for t in self.topologies],
            "arms": list(self.arms),
            "workload": dict(self.workload),
            "fault": dict(self.fault),
            "speculation": dict(self.speculation),
            "chaos": dict(self.chaos),
            "online": dict(self.online),
        }

    def spec_hash(self) -> str:
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        ).hexdigest()

    def cells(self) -> list[CellConfig]:
        """Every grid point, in canonical order (sorted by canonical JSON).

        The order depends only on the cell *set*, never on spec axis order,
        shard assignment or resume history — it is the order the merge
        writes, which is what makes merged output byte-identical.
        """
        out: list[CellConfig] = []
        for seed in self.seeds:
            for scheduler in self.schedulers:
                for topology in self.topologies:
                    for arm in self.arms:
                        out.append(
                            CellConfig(
                                seed=seed,
                                scheduler=scheduler,
                                topology=dict(topology),
                                arm=arm,
                                workload=dict(self.workload),
                                fault=(
                                    dict(self.fault)
                                    if arm in _FAULT_ARMS
                                    else None
                                ),
                                speculation=(
                                    dict(self.speculation)
                                    if arm == "faults+speculation"
                                    else None
                                ),
                                chaos=(
                                    dict(self.chaos)
                                    if arm == "chaos"
                                    else None
                                ),
                                online=(
                                    dict(self.online)
                                    if arm == "online"
                                    else None
                                ),
                            )
                        )
        return sorted(out, key=CellConfig.canonical)


# ---------------------------------------------------------------- the runner
@dataclass
class SweepRunResult:
    """What one :func:`run_sweep` invocation did (not the merged data)."""

    spec: SweepSpec
    cells: list[CellConfig]
    #: Config hashes computed in this invocation, in completion order.
    ran: list[str] = field(default_factory=list)
    #: Config hashes served from valid cached artifacts.
    cached: list[str] = field(default_factory=list)
    #: Config hash -> error string for cells that raised.
    failed: dict[str, str] = field(default_factory=dict)
    #: Config hash -> wall-clock seconds (ran cells only; never merged).
    elapsed_s: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failed


def _pool_run_cell(
    cell_dict: dict[str, Any], cache_dir: str
) -> tuple[str, float, str | None]:
    """Worker-process entry point: run one cell and write its artifact.

    Takes/returns only picklable plain data.  Errors come back as strings
    rather than raising so one bad cell cannot tear down the pool (the
    parent records it in :attr:`SweepRunResult.failed`).
    """
    cell = CellConfig.from_dict(cell_dict)
    start = time.perf_counter()
    try:
        result = run_cell(cell)
        write_cell_artifact(cache_dir, cell, result)
        return cell.config_hash(), time.perf_counter() - start, None
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        return (
            cell.config_hash(),
            time.perf_counter() - start,
            f"{type(exc).__name__}: {exc}",
        )


def _trace_cell(cell: CellConfig, elapsed: float, error: str | None) -> None:
    """Per-cell obs hook: aggregate timer + one JSONL event when tracing."""
    if not _OBS.enabled:
        return
    tracer = _OBS.tracer
    tracer.count("sweep.cells_failed" if error else "sweep.cells_ran")
    tracer.timers.setdefault("sweep.cell", TimerStat()).add(elapsed)
    tracer.event(
        "sweep.cell",
        cell=cell.label(),
        hash=cell.config_hash()[:12],
        dur_ms=round(elapsed * 1e3, 3),
        ok=error is None,
        **({"error": error} if error else {}),
    )


def run_sweep(
    spec: SweepSpec,
    cache_dir: str | Path,
    workers: int = 1,
    force: bool = False,
) -> SweepRunResult:
    """Run (or resume) a sweep: compute every cell not already cached.

    ``workers > 1`` shards pending cells across a process pool; ``force``
    recomputes everything, ignoring (and overwriting) cached artifacts.
    Failed cells are recorded, not raised — the caller decides (the CLI
    exits non-zero; a later resume retries exactly the failed/missing
    cells, because failures never write artifacts).
    """
    cache = Path(cache_dir)
    cache.mkdir(parents=True, exist_ok=True)
    cells = spec.cells()
    result = SweepRunResult(spec=spec, cells=cells)
    pending: list[CellConfig] = []
    for cell in cells:
        if not force and load_cell_artifact(cache, cell) is not None:
            result.cached.append(cell.config_hash())
        else:
            pending.append(cell)

    if workers <= 1:
        for cell in pending:
            start = time.perf_counter()
            error: str | None = None
            try:
                write_cell_artifact(cache, cell, run_cell(cell))
            except Exception as exc:  # noqa: BLE001 - collected, not raised
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            _finish_cell(result, cell, elapsed, error)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_pool_run_cell, cell.to_dict(), str(cache)): cell
                for cell in pending
            }
            for future in as_completed(futures):
                cell = futures[future]
                _, elapsed, error = future.result()
                _finish_cell(result, cell, elapsed, error)

    if _OBS.enabled:
        _OBS.tracer.event(
            "sweep.summary",
            spec_hash=spec.spec_hash()[:12],
            cells=len(cells),
            ran=len(result.ran),
            cached=len(result.cached),
            failed=len(result.failed),
            workers=workers,
        )
    return result


def _finish_cell(
    result: SweepRunResult, cell: CellConfig, elapsed: float, error: str | None
) -> None:
    cell_hash = cell.config_hash()
    result.elapsed_s[cell_hash] = elapsed
    if error is None:
        result.ran.append(cell_hash)
    else:
        result.failed[cell_hash] = error
    _trace_cell(cell, elapsed, error)


# ----------------------------------------------------------------- the merge
def merge_sweep(spec: SweepSpec, cache_dir: str | Path) -> str:
    """Merged report of a completed sweep, from the cache alone.

    Cells are loaded and emitted in canonical order; a missing or corrupt
    artifact raises (merging a partial sweep silently would *look*
    byte-stable while dropping data).  The returned string's bytes are the
    sweep byte-identity contract.
    """
    entries: list[dict[str, Any]] = []
    for cell in spec.cells():
        result = load_cell_artifact(cache_dir, cell)
        if result is None:
            raise FileNotFoundError(
                f"missing or corrupt artifact for cell {cell.label()} "
                f"({cell.config_hash()}) in {cache_dir} — "
                "run the sweep (again) before merging"
            )
        entries.append(
            {"hash": cell.config_hash(), "config": cell.to_dict(), "result": result}
        )
    return render_sweep_report(
        spec.to_dict(), entries, spec.spec_hash(), format_id=SWEEP_FORMAT
    )
