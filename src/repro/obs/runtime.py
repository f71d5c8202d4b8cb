"""Process-wide observability state and the opt-in hook surface.

Instrumented modules (``core/policy.py``, ``core/matching.py``,
``core/hit.py``, ``simulator/engine.py``) read the module-level
:data:`STATE` holder at their hook points:

.. code-block:: python

    from ..obs.runtime import STATE as _OBS
    ...
    if _OBS.enabled:                      # one attribute load + branch
        if _OBS.checker is not None:
            _OBS.checker.check_switch_capacity(self, where="assign")
        _OBS.tracer.count("alg1.assign")

With nothing installed ``STATE.enabled`` is ``False`` and the entire hook
costs a single predictable branch — the subsystem's "near-zero overhead when
disabled" contract.

Installation is either explicit (:func:`install` / :func:`uninstall`, or the
:func:`observe` context manager used by the CLI and tests) or via
environment variables read once at import.  A slot :func:`install` or
:func:`observe` is not given keeps what is installed, so a tracer-only scope
still runs under an environment-installed checker; passing ``None`` empties
the slot.  The environment switches:

* ``REPRO_CHECK_INVARIANTS=1`` — install a ``raise``-mode
  :class:`~repro.obs.invariants.InvariantChecker` (CI smoke runs).
* ``REPRO_TRACE=/path/to/file.jsonl`` — install a
  :class:`~repro.obs.tracer.Tracer` writing JSON lines to the path.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

from .invariants import InvariantChecker
from .tracer import NULL_TRACER, NullTracer, Tracer

__all__ = ["STATE", "ObsState", "install", "uninstall", "observe"]


class ObsState:
    """Mutable holder for the process's checker and tracer."""

    __slots__ = ("checker", "tracer", "enabled")

    def __init__(self) -> None:
        self.checker: InvariantChecker | None = None
        self.tracer: Tracer | NullTracer = NULL_TRACER
        self.enabled: bool = False

    def refresh(self) -> None:
        self.enabled = self.checker is not None or self.tracer.enabled


STATE = ObsState()

#: Default of :func:`install` / :func:`observe`: leave the slot as it is.
_KEEP: Any = object()


def install(
    checker: InvariantChecker | None = _KEEP,
    tracer: Tracer | None = _KEEP,
) -> None:
    """Install a checker and/or tracer process-wide.  An omitted slot keeps
    what is installed; ``None`` empties it."""
    if checker is not _KEEP:
        STATE.checker = checker
    if tracer is not _KEEP:
        STATE.tracer = tracer if tracer is not None else NULL_TRACER
    STATE.refresh()


def uninstall() -> None:
    """Return to the disabled default (no checker, null tracer)."""
    STATE.checker = None
    STATE.tracer = NULL_TRACER
    STATE.refresh()


@contextmanager
def observe(
    checker: InvariantChecker | None = _KEEP,
    tracer: Tracer | None = _KEEP,
) -> Iterator[ObsState]:
    """Scoped :func:`install`; restores both slots as they were on exit."""
    previous = (STATE.checker, STATE.tracer)
    install(checker=checker, tracer=tracer)
    try:
        yield STATE
    finally:
        STATE.checker, STATE.tracer = previous
        STATE.refresh()


def _init_from_env() -> None:
    flag = os.environ.get("REPRO_CHECK_INVARIANTS", "")
    if flag and flag not in ("0", "false", "no"):
        STATE.checker = InvariantChecker(mode="raise")
    trace_path = os.environ.get("REPRO_TRACE", "")
    if trace_path:
        STATE.tracer = Tracer.to_path(trace_path)
    STATE.refresh()


_init_from_env()
