"""One contract harness: grade a run, rerun it, explain a failure.

A *contract* is a list of clauses over the engine's end-of-run facts
(:meth:`~repro.simulator.MapReduceSimulator.outcome`); the chaos harness's
survivability contract (:mod:`repro.faults.chaos`) and the overload contract
(:mod:`repro.experiments.online`) are two such lists over this one loop.  A
run that raises is classified by exception type: ``RetryBudgetExceeded`` is
an *accounted* failure, ``SimTimeStall`` a liveness violation, anything else
an unaccounted failure.  :func:`run_contract` also reruns the build to check
determinism and repeats a failed or violating run with the provenance plane
on (faithful, by its byte-identity contract) so the result explains itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.report import canonical_json
from ..obs import InvariantChecker, ProvenanceConfig, decision_digest, observe
from ..simulator import MapReduceSimulator, RunOutcome, SimulationConfig
from ..simulator.errors import RetryBudgetExceeded, SimTimeStall

__all__ = [
    "Clause",
    "Contract",
    "Graded",
    "fingerprint",
    "graded_run",
    "plain_data",
    "run_contract",
    "simulator_build",
]

#: One contract clause: the violation text for an outcome, or ``None``.
Clause = Callable[[RunOutcome], "str | None"]

#: ``build(provenance)`` returns a freshly built simulator on every call.
Build = Callable[["ProvenanceConfig | None"], MapReduceSimulator]


def simulator_build(
    topology_factory: Callable[[], Any],
    scheduler_factory: Callable[[], Any],
    jobs_factory: Callable[[], list],
    config: SimulationConfig,
) -> Build:
    """A :data:`Build` over factories that return fresh objects per call."""

    def build(provenance: ProvenanceConfig | None) -> MapReduceSimulator:
        jobs = jobs_factory()
        return MapReduceSimulator(
            topology_factory(),
            scheduler_factory(),
            jobs,
            dataclasses.replace(config, provenance=provenance),
        )

    return build


def fingerprint(body: dict) -> str:
    """sha256 over the canonical JSON of ``body``."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def plain_data(record: Any) -> dict:
    """A harness config or result dataclass as plain data, in field order:
    tuples become lists and an empty ``provenance`` is left out."""
    body = {}
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if f.name != "provenance" or value:
            body[f.name] = list(value) if isinstance(value, tuple) else value
    return body


@dataclass(frozen=True)
class Contract:
    """Clauses plus what a graded run reports and fingerprints."""

    clauses: tuple[Clause, ...]
    #: ``record(sim, finished)`` returns the ``(summary, counters)`` a run
    #: reports; ``finished`` is False when the run raised.
    record: Callable[[MapReduceSimulator, bool], tuple[dict, dict]]


@dataclass
class Graded:
    """One graded run, after its optional rerun."""

    #: ``"ok"``, or ``"failed"`` with ``reason`` = ``"<Type>: <message>"``.
    status: str
    reason: str
    #: sha256 over (summary, counters, events), or (error, counters).
    fingerprint: str
    summary: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: Decision digest of a provenance-recording run; :func:`run_contract`
    #: attaches one to a failed or violating run.
    provenance: dict = field(default_factory=dict)


def graded_run(
    build: Build,
    contract: Contract,
    provenance: ProvenanceConfig | None = None,
) -> Graded:
    """One contract-graded pass of ``build(provenance)``, with the decision
    digest when ``provenance`` is set."""
    sim = build(provenance)
    try:
        with observe(checker=InvariantChecker(mode="raise")):
            sim.run()
    except Exception as exc:  # noqa: BLE001 — every escape is classified
        reason = f"{type(exc).__name__}: {exc}"
        _, counters = contract.record(sim, False)
        if isinstance(exc, RetryBudgetExceeded):
            # The engine spent the budget and said so: accounted, not lost.
            violations = []
        elif isinstance(exc, SimTimeStall):
            violations = [f"liveness: {reason}"]
        else:
            violations = [f"unaccounted failure: {reason}"]
        return Graded(
            status="failed",
            reason=reason,
            fingerprint=fingerprint({"error": reason, "counters": counters}),
            counters=counters,
            violations=violations,
            provenance=decision_digest(sim.provenance),
        )
    outcome = sim.outcome()
    summary, counters = contract.record(sim, True)
    return Graded(
        status="ok",
        reason="",
        fingerprint=fingerprint(
            dict(summary=summary, counters=counters, events=outcome.events)
        ),
        summary=summary,
        counters=counters,
        violations=[
            text for text in (c(outcome) for c in contract.clauses) if text
        ],
        provenance=decision_digest(sim.provenance),
    )


def run_contract(build: Build, contract: Contract, *, rerun: bool) -> Graded:
    """Grade a run; optionally rerun it and compare; repeat a failed or
    violating run with provenance on and attach its digest."""
    graded = graded_run(build, contract)
    if rerun:
        again = graded_run(build, contract)
        first = (graded.status, graded.reason, graded.fingerprint)
        if (again.status, again.reason, again.fingerprint) != first:
            graded.violations.append(
                f"nondeterministic rerun: {graded.fingerprint[:12]} vs "
                f"{again.fingerprint[:12]}"
            )
    if graded.status == "failed" or graded.violations:
        audited = graded_run(build, contract, ProvenanceConfig(ring_size=1024))
        graded.provenance = audited.provenance
    return graded
