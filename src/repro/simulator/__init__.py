"""Discrete-event execution substrate: events, fluid network, engine,
metrics."""

from .engine import MapReduceSimulator, RunOutcome, SimulationConfig, run_simulation
from .errors import (
    EventBudgetExceeded,
    RetryBudgetExceeded,
    RoutingViolation,
    SimTimeStall,
    UnfinishedJobs,
)
from .events import Event, EventKind, EventQueue
from .metrics import (
    FlowRecord,
    JobRecord,
    MetricsCollector,
    RejectionRecord,
    TaskRecord,
    jain_fairness,
)
from .network import ActiveFlow, DelayModel, FlowNetwork
from .trace import TraceEvent, dump_trace, load_trace, save_trace_file, trace_from_metrics

__all__ = [
    "MapReduceSimulator",
    "SimulationConfig",
    "RunOutcome",
    "run_simulation",
    "EventBudgetExceeded",
    "RetryBudgetExceeded",
    "RoutingViolation",
    "SimTimeStall",
    "UnfinishedJobs",
    "Event",
    "EventKind",
    "EventQueue",
    "MetricsCollector",
    "JobRecord",
    "TaskRecord",
    "FlowRecord",
    "RejectionRecord",
    "jain_fairness",
    "FlowNetwork",
    "ActiveFlow",
    "DelayModel",
    "TraceEvent",
    "trace_from_metrics",
    "dump_trace",
    "save_trace_file",
    "load_trace",
]
