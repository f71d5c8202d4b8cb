"""Every clause of the survivability and overload contracts is reachable.

Each row feeds the contract loop a stand-in simulator with a synthetic
``outcome()`` (or a typed failure) and asserts the exact violation text.
Most of these outcomes cannot come out of a correct engine — the retry
budget clause, for one, is pre-empted by the engine's own
``RetryBudgetExceeded`` — so the rows are built by hand.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.experiments.contract import Contract, fingerprint, run_contract
from repro.experiments.online import OVERLOAD
from repro.faults.chaos import SURVIVABILITY
from repro.simulator import (
    RetryBudgetExceeded,
    RunOutcome,
    SimTimeStall,
    UnfinishedJobs,
)

CLEAN = RunOutcome(
    jobs=3,
    completed=3,
    rejection_records=0,
    worst_retries=0,
    retry_budget=8,
    parked_flows=0,
    events=10,
)
ONLINE = dataclasses.replace(
    CLEAN,
    completed=2,
    rejection_records=1,
    admission={
        "admission.submitted": 3,
        "admission.rejected": 1,
        "admission.queued": 0,
    },
    queue_bound=4,
    peak_queue=4,
)


def _no_record(sim, finished):
    return {}, {}


SURV = Contract(SURVIVABILITY.clauses, record=_no_record)
OVER = Contract(OVERLOAD.clauses, record=_no_record)


def _events_print(events):
    return fingerprint({"summary": {}, "counters": {}, "events": events})[:12]


class FakeSim:
    """Stands in for the engine: ``run()`` raises ``error`` or returns."""

    provenance = None

    def __init__(self, outcome, error):
        self._outcome = outcome
        self._error = error

    def run(self):
        if self._error is not None:
            raise self._error

    def outcome(self):
        return self._outcome


CASES = [
    ("clean run", SURV, [CLEAN], None, []),
    ("clean online run", OVER, [ONLINE], None, []),
    (
        "silent loss",
        SURV,
        [dataclasses.replace(CLEAN, completed=2)],
        None,
        ["silent loss: 3 jobs submitted, 2 accounted"],
    ),
    (
        "retry budget",
        SURV,
        [dataclasses.replace(CLEAN, worst_retries=9)],
        None,
        ["retry budget exceeded: a task consumed 9 retries (budget 8)"],
    ),
    (
        "parked leak",
        SURV,
        [dataclasses.replace(CLEAN, parked_flows=2)],
        None,
        ["parked leak: 2 flows still parked at end"],
    ),
    (
        "arrival loss",
        OVER,
        [dataclasses.replace(ONLINE, jobs=5)],
        None,
        ["arrival loss: 5 jobs generated, 3 reached admission"],
    ),
    (
        "accounting hole",
        OVER,
        [dataclasses.replace(ONLINE, completed=1)],
        None,
        [
            "accounting hole: completed(1) + rejected(1) + queued(0) "
            "!= submitted(3)"
        ],
    ),
    (
        "silent rejection",
        OVER,
        [dataclasses.replace(ONLINE, rejection_records=0)],
        None,
        ["silent rejection: 1 counted, 0 carry records"],
    ),
    (
        "unbounded queue",
        OVER,
        [dataclasses.replace(ONLINE, peak_queue=5)],
        None,
        ["unbounded queue: peak tenant queue length 5 exceeds bound 4"],
    ),
    (
        "nondeterministic rerun",
        SURV,
        [CLEAN, dataclasses.replace(CLEAN, events=11)],
        None,
        [
            f"nondeterministic rerun: {_events_print(10)} vs "
            f"{_events_print(11)}"
        ],
    ),
    (
        "liveness",
        OVER,
        [ONLINE],
        SimTimeStall("stalled"),
        ["liveness: SimTimeStall: stalled"],
    ),
    (
        "unaccounted failure",
        SURV,
        [CLEAN],
        UnfinishedJobs("1 unfinished"),
        ["unaccounted failure: UnfinishedJobs: 1 unfinished"],
    ),
    ("accounted failure", SURV, [CLEAN], RetryBudgetExceeded("spent"), []),
]


@pytest.mark.parametrize(
    "contract, outcomes, error, expected",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_clause_reports_exactly_its_violation(
    contract, outcomes, error, expected
):
    runs = itertools.cycle(outcomes)
    graded = run_contract(
        lambda provenance: FakeSim(next(runs), error), contract, rerun=True
    )
    assert graded.violations == expected
    assert graded.status == ("ok" if error is None else "failed")
    if error is not None:
        assert graded.reason == f"{type(error).__name__}: {error}"

