"""Typed failures of a simulation run.

Contract graders (:mod:`repro.experiments.contract`) classify a failed run
with ``isinstance``, never by its message.  Each class is a ``RuntimeError``
carrying the engine's long-standing message text.
"""

__all__ = [
    "EventBudgetExceeded",
    "RetryBudgetExceeded",
    "RoutingViolation",
    "SimTimeStall",
    "UnfinishedJobs",
]


class RetryBudgetExceeded(RuntimeError):
    """A task needed more re-executions than ``max_task_retries``."""


class RoutingViolation(RuntimeError):
    """A path was installed across a failed switch or a dead link."""


class SimTimeStall(RuntimeError):
    """More than ``stall_limit`` consecutive events at one sim time."""


class EventBudgetExceeded(RuntimeError):
    """The run dispatched more than ``max_events`` events."""


class UnfinishedJobs(RuntimeError):
    """The event queue drained with jobs neither finished nor queued."""
