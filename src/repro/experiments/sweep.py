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
import itertools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

from ..analysis.report import canonical_json, render_sweep_report
from ..faults import generate_timeline
from ..mapreduce.workload import WorkloadGenerator
from ..obs.runtime import STATE as _OBS
from ..obs.tracer import TimerStat
from ..schedulers import make_scheduler
from ..speculation import SpeculationConfig
from .configs import (
    build_fabric,
    normalize_fabric,
    normalize_params,
    testbed_simulation_config,
)
from .faults import run_chaos_cell, run_fault_cell
from .static import run_static_cell
from .telemetry import run_telemetry_cell

__all__ = [
    "SWEEP_FORMAT",
    "ARMS",
    "Arm",
    "CellConfig",
    "SweepSpec",
    "SweepRunResult",
    "build_cell_workload",
    "register_arm",
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

DEFAULT_WORKLOAD: dict[str, Any] = {
    "num_jobs": 8,
    "interarrival": 0.5,
    "min_size": 4.0,
    "max_size": 12.0,
    "map_rate": 8.0,
    "reduce_rate": 8.0,
}

#: Fault-arm knobs: ``max_task_retries`` plus the keywords of
#: :func:`repro.faults.generate_timeline`.
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


#: Config sections an arm can carry, with their canonical defaults.  A
#: cell carries only its arm's sections, so e.g. baseline cell hashes
#: survive fault-parameter changes.
SECTION_DEFAULTS: dict[str, dict[str, Any]] = {
    "fault": DEFAULT_FAULT,
    "speculation": DEFAULT_SPECULATION,
    "chaos": DEFAULT_CHAOS,
    "online": DEFAULT_ONLINE,
}


# ------------------------------------------------------------- arm registry
@dataclass(frozen=True)
class Arm:
    """One sweep arm: the config sections its cells carry and the runner
    that executes a cell from its config alone."""

    sections: tuple[str, ...]
    run: Callable[["CellConfig"], dict[str, Any]]


#: Every arm a cell can run, keyed by name.
ARMS: dict[str, Arm] = {}


def register_arm(name: str, *sections: str):
    """Decorator registering ``run(cell) -> plain data`` as arm ``name``,
    whose cells carry the given :data:`SECTION_DEFAULTS` sections."""

    def decorate(run: Callable[["CellConfig"], dict[str, Any]]):
        ARMS[name] = Arm(tuple(sections), run)
        return run

    return decorate


def _arm(name: str) -> Arm:
    if name not in ARMS:
        raise ValueError(f"unknown arm {name!r} (known: {sorted(ARMS)})")
    return ARMS[name]


# ------------------------------------------------------------------ the cell
@dataclass
class CellConfig:
    """One grid point: everything needed to run (and cache) a single cell."""

    seed: int
    scheduler: str
    topology: dict[str, Any]
    arm: str
    workload: dict[str, Any]
    #: The :data:`SECTION_DEFAULTS` sections; each is set exactly when the
    #: cell's arm carries it and ``None`` otherwise.
    fault: dict[str, Any] | None = None
    speculation: dict[str, Any] | None = None
    chaos: dict[str, Any] | None = None
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
        for section in _arm(self.arm).sections:
            out[section] = dict(getattr(self, section))
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "CellConfig":
        """Rebuild a cell from (possibly hand-written) plain data,
        re-normalising every section so the round-trip is canonical."""
        name = str(raw["arm"])
        return cls(
            seed=int(raw["seed"]),
            scheduler=str(raw["scheduler"]),
            topology=normalize_fabric(raw["topology"]),
            arm=name,
            workload=normalize_params(
                "workload", raw.get("workload", {}), DEFAULT_WORKLOAD
            ),
            **{
                section: normalize_params(
                    section, raw.get(section) or {}, SECTION_DEFAULTS[section]
                )
                for section in _arm(name).sections
            },
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


# ---------------------------------------------------------------- workloads
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
@register_arm("baseline")
@register_arm("faults", "fault")
@register_arm("faults+speculation", "fault", "speculation")
def _run_replay_cell(cell: CellConfig) -> dict[str, Any]:
    """One engine run, replaying the cell's sampled fault timeline (if the
    arm carries ``fault``) with speculation (if it carries ``speculation``)."""
    topology = build_fabric(cell.topology)
    fault = dict(cell.fault or {})
    max_task_retries = int(fault.pop("max_task_retries", 10))
    metrics, counters = run_fault_cell(
        topology,
        make_scheduler(cell.scheduler, seed=cell.seed),
        build_cell_workload(cell),
        testbed_simulation_config(cell.seed),
        timeline=(
            generate_timeline(topology, seed=cell.seed, **fault) if fault else ()
        ),
        speculation=(
            SpeculationConfig(**cell.speculation) if cell.speculation else None
        ),
        max_task_retries=max_task_retries,
    )
    return {
        "summary": {k: float(v) for k, v in metrics.summary().items()},
        "counters": {k: int(v) for k, v in sorted(counters.items())},
    }


@register_arm("static")
def _run_static_cell(cell: CellConfig) -> dict[str, Any]:
    return run_static_cell(
        build_fabric(cell.topology),
        build_cell_workload(cell),
        cell.scheduler,
        seed=cell.seed,
    )


@register_arm("telemetry")
def _run_telemetry_cell(cell: CellConfig) -> dict[str, Any]:
    import dataclasses

    run = run_telemetry_cell(
        build_fabric(cell.topology),
        make_scheduler(cell.scheduler, seed=cell.seed),
        build_cell_workload(cell),
        dataclasses.replace(
            testbed_simulation_config(cell.seed), timeline_dt=_TELEMETRY_DT
        ),
    )
    return {
        "summary": {k: float(v) for k, v in run.metrics.summary().items()},
        "segments": {k: float(v) for k, v in run.mean_segments.items()},
        "counters": {k: int(v) for k, v in sorted(run.counters.items())},
    }


@register_arm("chaos", "chaos")
def _run_chaos_cell(cell: CellConfig) -> dict[str, Any]:
    assert cell.chaos is not None
    return run_chaos_cell(
        lambda: build_fabric(cell.topology),
        lambda: make_scheduler(cell.scheduler, seed=cell.seed),
        lambda: build_cell_workload(cell),
        testbed_simulation_config(cell.seed),
        seed=cell.seed,
        **cell.chaos,
    )


@register_arm("online", "online")
def _run_online_cell(cell: CellConfig) -> dict[str, Any]:
    from .online import run_online_cell

    assert cell.online is not None
    return run_online_cell(
        lambda: build_fabric(cell.topology),
        lambda: make_scheduler(cell.scheduler, seed=cell.seed),
        testbed_simulation_config(cell.seed),
        seed=cell.seed,
        **cell.online,
    )


def run_cell(cell: CellConfig) -> dict[str, Any]:
    """Execute one cell from nothing but its config; return plain data.

    The arm's runner rebuilds topology, workload, scheduler, fault timeline
    and simulation config fresh inside the call, all seeded from
    ``cell.seed`` — it reads no global RNG and mutates no shared state, so
    the result depends only on the config (and the code version), never on
    which process or in which order the cell ran.
    """
    return _arm(cell.arm).run(cell)


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

    _AXES = ("seeds", "schedulers", "topologies", "arms")
    _SECTIONS = (*_AXES, "workload", *SECTION_DEFAULTS)

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
        for name in schedulers:
            make_scheduler(name)  # validate eagerly; raises on unknown names
        arms = tuple(sorted({str(a) for a in raw.get("arms", ("baseline",))}))
        for name in arms:
            _arm(name)
        topologies = {
            canonical_json(t): t
            for t in map(normalize_fabric, raw.get("topologies", ("testbed",)))
        }
        axes = {
            "seeds": seeds,
            "schedulers": schedulers,
            "topologies": tuple(topologies[k] for k in sorted(topologies)),
            "arms": arms,
        }
        for axis, values in axes.items():
            if not values:
                raise ValueError(f"sweep spec axis {axis!r} is empty")
        return cls(
            **axes,
            workload=normalize_params(
                "workload", raw.get("workload", {}), DEFAULT_WORKLOAD
            ),
            **{
                section: normalize_params(section, raw.get(section, {}), defaults)
                for section, defaults in SECTION_DEFAULTS.items()
            },
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
            **{s: dict(getattr(self, s)) for s in SECTION_DEFAULTS},
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
        out = [
            CellConfig(
                seed=seed,
                scheduler=scheduler,
                topology=dict(topology),
                arm=name,
                workload=dict(self.workload),
                **{s: dict(getattr(self, s)) for s in ARMS[name].sections},
            )
            for seed, scheduler, topology, name in itertools.product(
                self.seeds, self.schedulers, self.topologies, self.arms
            )
        ]
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
