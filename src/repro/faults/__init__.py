"""Deterministic fault injection and failure recovery (`repro.faults`).

The paper's Hadoop testbed assumes servers and switches stay up; this
subsystem lets the simulator answer the questions the paper could not run:
what happens to each scheduler's shuffle traffic when part of the fabric
dies mid-job?  Three layers:

* **spec** (:mod:`repro.faults.spec`) — declarative, seed-reproducible fault
  timelines: explicit :class:`FaultSpec` lists, JSON-lines fault files, or
  exponential MTBF/MTTR sampling.
* **injection** (:mod:`repro.faults.injector`) — turns a timeline into
  simulator events and tracks live fabric state + fault counters.
* **domains** (:mod:`repro.faults.domains`) — correlated failure domains
  (racks, pods, power feeds) derived from link adjacency.
* **chaos** (:mod:`repro.faults.chaos`, imported explicitly — it pulls in
  the engine) — seeded randomized chaos runs enforcing the survivability
  contract.
* **recovery** — lives in :mod:`repro.simulator.engine` (task re-execution,
  flow rerouting/parking), :mod:`repro.cluster.state` (server blacklists)
  and :mod:`repro.core.policy` (dead-switch routing masks).

See ``docs/fault_model.md`` for the fault taxonomy, the recovery semantics
and the determinism contract.
"""

from .domains import DOMAIN_KINDS, FailureDomain, domains_of
from .injector import FAULT_EVENT_KINDS, FaultInjector
from .spec import (
    FaultKind,
    FaultSpec,
    generate_timeline,
    load_fault_file,
    save_fault_file,
    validate_timeline,
)

__all__ = [
    "DOMAIN_KINDS",
    "FailureDomain",
    "FaultKind",
    "FaultSpec",
    "FaultInjector",
    "FAULT_EVENT_KINDS",
    "domains_of",
    "generate_timeline",
    "load_fault_file",
    "save_fault_file",
    "validate_timeline",
]
