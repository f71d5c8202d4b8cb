"""Engine-level overload contract: arrivals through the admission plane.

Every submitted job ends as exactly one of {completed, rejected-with-
reason, queued-at-end}; nothing is silently dropped, reruns are
byte-identical, and a job that can never be placed is an accounted
outcome, not a hang or a crash.
"""

import dataclasses

import pytest

from repro.obs import InvariantChecker, Tracer, observe
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig, UnfinishedJobs
from repro.topology import TreeConfig, build_tree
from repro.workload import (
    AdmissionConfig,
    ArrivalConfig,
    TenantSpec,
    generate_arrivals,
)

from ..conftest import make_job


@pytest.fixture
def topo():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )


def _overload_jobs(seed=0, rate=6.0, duration=2.0):
    """Far more offered work than 32 slots absorb in the window."""
    config = ArrivalConfig(
        tenants=(
            TenantSpec(0, rate=rate, input_size_range=(2.0, 4.0)),
            TenantSpec(1, rate=rate, weight=2.0, input_size_range=(2.0, 4.0)),
        ),
        profile="poisson",
        duration=duration,
    )
    return generate_arrivals(config, seed=seed)


def _run(topo, jobs, admission, scheduler="capacity", seed=0):
    sim = MapReduceSimulator(
        topo,
        make_scheduler(scheduler, seed=seed),
        jobs,
        SimulationConfig(seed=seed, admission=admission),
    )
    metrics = sim.run()
    return sim, metrics


class TestAccounting:
    def test_every_job_has_exactly_one_fate(self, topo):
        jobs = _overload_jobs()
        admission = AdmissionConfig(policy="queue-bound", queue_bound=2)
        sim, metrics = _run(topo, jobs, admission)
        completed = {r.job_id for r in metrics.jobs}
        rejected = {r.job_id for r in metrics.rejections}
        queued = {s.job_id for s in sim.admission.queued_jobs()}
        assert completed | rejected | queued == {j.job_id for j in jobs}
        assert not completed & rejected
        assert not completed & queued
        assert not rejected & queued
        assert rejected, "no rejections at 2x+ overload — not overloaded?"
        counters = sim.admission.counters()
        assert counters["admission.submitted"] == len(jobs)
        assert counters["admission.rejected"] == len(rejected)

    def test_rejections_carry_reason_and_skip_job_state(self, topo):
        jobs = _overload_jobs()
        admission = AdmissionConfig(policy="queue-bound", queue_bound=1)
        sim, metrics = _run(topo, jobs, admission)
        assert metrics.rejections
        for record in metrics.rejections:
            assert record.reason == "queue-full"
            # Rejected before materialisation: no job state, no HDFS blocks.
            assert record.job_id not in sim._jobs_by_id

    def test_bounded_queue_stays_bounded(self, topo):
        bound = 3
        jobs = _overload_jobs(rate=10.0)
        admission = AdmissionConfig(policy="queue-bound", queue_bound=bound)
        sim, _ = _run(topo, jobs, admission)
        assert sim.admission.max_queue_len() <= bound

    def test_admit_all_completes_everything_eventually(self, topo):
        jobs = _overload_jobs(rate=3.0, duration=1.0)
        sim, metrics = _run(topo, jobs, AdmissionConfig(policy="admit-all"))
        assert len(metrics.jobs) == len(jobs)
        assert not metrics.rejections
        assert sim.admission.queue_depth() == 0


class TestQueuedAtEnd:
    def test_unplaceable_job_is_accounted_not_fatal(self):
        """A job needing more slots than the cluster owns stays queued when
        the stream drains — the contract's third leg, not a RuntimeError."""
        topo = build_tree(
            TreeConfig(depth=2, fanout=2, redundancy=1,
                       server_resources=(2.0,))
        )  # 8 slots total
        whale = make_job(0, num_maps=4, num_reduces=9)  # needs 1+9 > 8
        sim, metrics = _run(topo, [whale], AdmissionConfig(policy="admit-all"))
        assert metrics.jobs == []
        assert sim.admission.queue_depth() == 1
        counters = sim.admission.counters()
        assert counters["admission.queued"] == 1
        assert counters["admission.submitted"] == 1

    def test_batch_mode_same_job_still_raises(self):
        """Without an admission plane the pre-online contract holds: an
        unfinishable workload is a configuration bug, not an outcome."""
        topo = build_tree(
            TreeConfig(depth=2, fanout=2, redundancy=1,
                       server_resources=(2.0,))
        )
        whale = make_job(0, num_maps=4, num_reduces=9)
        with pytest.raises(UnfinishedJobs, match="unfinished|unadmitted"):
            _run(topo, [whale], admission=None)


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", ["capacity", "hit"])
    def test_online_rerun_is_record_identical(self, topo, scheduler):
        admission = AdmissionConfig(policy="queue-bound", queue_bound=4)

        def once():
            # Regenerate everything from seeds, as a rerun would.
            return _run(
                topo, _overload_jobs(seed=5), admission,
                scheduler=scheduler, seed=5,
            )[1]

        a, b = once(), once()
        assert [dataclasses.astuple(r) for r in a.jobs] == [
            dataclasses.astuple(r) for r in b.jobs
        ]
        assert [dataclasses.astuple(r) for r in a.rejections] == [
            dataclasses.astuple(r) for r in b.rejections
        ]
        assert a.online_summary() == b.online_summary()


class TestObservedMode:
    def test_invariants_and_counters_clean_under_overload(self, topo):
        jobs = _overload_jobs()
        admission = AdmissionConfig(policy="queue-bound", queue_bound=2)
        checker = InvariantChecker(mode="raise")
        tracer = Tracer()
        with observe(checker=checker, tracer=tracer):
            sim, metrics = _run(topo, jobs, admission)
        assert checker.violations == []
        assert checker.checks_run > 0
        counts = tracer.counters
        assert counts["admission.submitted"] == len(jobs)
        assert counts["admission.rejected"] == len(metrics.rejections)
        assert counts["admission.queued"] == sim.admission.queue_depth()
