"""TimelineRecorder unit behaviour: grid, gauges, queries, summaries."""

import json

import numpy as np
import pytest

from repro.faults import FaultKind, FaultSpec
from repro.mapreduce import WorkloadGenerator
from repro.obs import TimelineRecorder
from repro.obs.timeline import TimelineSample
from repro.schedulers import make_scheduler
from repro.simulator import MapReduceSimulator, SimulationConfig
from repro.topology import TreeConfig, build_tree


def _topology():
    return build_tree(
        TreeConfig(depth=2, fanout=4, redundancy=2, server_resources=(2.0,))
    )


def _recorded_sim(dt=0.1, num_jobs=3, seed=0):
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(num_jobs, interarrival=0.3)
    sim = MapReduceSimulator(
        _topology(),
        make_scheduler("hit-online", seed=seed),
        jobs,
        SimulationConfig(seed=seed, timeline_dt=dt),
    )
    sim.run()
    return sim


def test_dt_must_be_positive():
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), dt=0.0)
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), dt=-1.0)


def test_recorder_off_by_default():
    jobs = WorkloadGenerator(seed=0).make_workload(1)
    sim = MapReduceSimulator(
        _topology(), make_scheduler("capacity", seed=0), jobs,
        SimulationConfig(),
    )
    assert sim.timeline is None


def test_samples_lie_on_the_grid():
    sim = _recorded_sim(dt=0.1)
    recorder = sim.timeline
    times = recorder.times()
    # All but the final drain sample sit exactly on multiples of dt.
    grid = times[:-1]
    assert np.allclose(grid, np.round(grid / 0.1) * 0.1)
    assert np.all(np.diff(times) >= 0)
    # The grid covers the whole run: one sample per step plus the drain.
    assert len(times) >= int(times[-1] / 0.1)


def test_sample_shapes_match_fabric():
    recorder = _recorded_sim().timeline
    sample = recorder.samples[0]
    assert sample.switch_util.shape == (len(recorder.switch_ids),)
    assert sample.server_occupancy.shape == (len(recorder.server_ids),)
    assert recorder.link_keys is not None
    assert sample.link_util.shape == (len(recorder.link_keys),)


def test_utilisation_bounded_and_active_at_some_point():
    recorder = _recorded_sim().timeline
    max_util = recorder.series("max_switch_util")
    assert np.all(max_util >= 0.0)
    assert np.all(max_util <= 1.0 + 1e-9)
    assert max_util.max() > 0.0, "no shuffle traffic ever observed"
    occupancy = recorder.series("mean_occupancy")
    assert occupancy.max() > 0.0, "no container ever occupied a server"


def test_series_queries():
    recorder = _recorded_sim().timeline
    n = len(recorder.samples)
    for name in (
        "max_switch_util", "max_link_util", "mean_link_util",
        "queue_depth", "active_flows", "parked_flows",
        "running_containers", "mean_occupancy",
    ):
        series = recorder.series(name)
        assert series.shape == (n,)
        assert np.all(np.isfinite(series))
    # Unknown names read as a flat-zero gauge (subsystem was off).
    assert np.all(recorder.series("failed_servers") == 0.0)
    sid = recorder.switch_ids[0]
    assert recorder.switch_series(sid).shape == (n,)


def test_summary_reports_peaks():
    recorder = _recorded_sim().timeline
    summary = recorder.summary()
    assert summary["samples"] == len(recorder.samples)
    assert summary["dt"] == recorder.dt
    assert summary["peak_switch_util"] == pytest.approx(
        max(s.max_switch_util for s in recorder.samples)
    )
    assert summary["peak_active_flows"] >= 1


def test_empty_recorder_summary():
    recorder = TimelineRecorder(_topology(), dt=0.5)
    assert recorder.summary() == {"samples": 0, "markers": 0}
    assert recorder.times().size == 0


def test_finish_is_idempotent():
    sim = _recorded_sim()
    recorder = sim.timeline
    n = len(recorder.samples)
    recorder.finish(sim, 99.0)  # engine already finished the recorder
    assert len(recorder.samples) == n


def _bounded_sim(max_samples, spill_path=None, dt=0.05, seed=0):
    jobs = WorkloadGenerator(
        seed=seed, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(3, interarrival=0.3)
    sim = MapReduceSimulator(
        _topology(),
        make_scheduler("hit-online", seed=seed),
        jobs,
        SimulationConfig(
            seed=seed,
            timeline_dt=dt,
            timeline_max_samples=max_samples,
            timeline_spill_path=None if spill_path is None else str(spill_path),
        ),
    )
    sim.run()
    return sim


def test_max_samples_must_be_positive():
    with pytest.raises(ValueError):
        TimelineRecorder(_topology(), max_samples=0)


def test_spill_bounds_memory_and_keeps_every_sample(tmp_path):
    spill = tmp_path / "timeline.jsonl"
    unbounded = _recorded_sim(dt=0.05).timeline
    total = len(unbounded.samples)
    assert total > 16, "scenario too small to exercise the bound"

    bounded = _bounded_sim(16, spill).timeline
    assert len(bounded.samples) < 16
    assert bounded.spilled_samples + len(bounded.samples) == total
    assert bounded.spill_events == bounded.spilled_samples // 16
    lines = [json.loads(l) for l in spill.read_text().splitlines()]
    assert len(lines) == bounded.spilled_samples
    # Spilled rows + the in-memory tail reproduce the unbounded grid.
    spilled_t = [row["t"] for row in lines]
    tail_t = [s.t for s in bounded.samples]
    assert spilled_t + tail_t == [s.t for s in unbounded.samples]
    assert set(lines[0]) >= {"t", "switch_util", "link_util",
                             "server_occupancy", "active_flows"}


def test_bounded_summary_matches_unbounded(tmp_path):
    unbounded = _recorded_sim(dt=0.05).timeline
    bounded = _bounded_sim(16, tmp_path / "tl.jsonl").timeline
    expect = unbounded.summary()
    got = bounded.summary()
    spilled = got.pop("spilled_samples")
    assert spilled == bounded.spilled_samples
    # Peaks and counts come from running aggregates, not the ring.
    assert got == pytest.approx(expect)


def test_spill_without_path_drops_but_counts(tmp_path):
    bounded = _bounded_sim(16, spill_path=None).timeline
    assert bounded.spill_path is None
    assert bounded.spilled_samples > 0
    assert len(bounded.samples) < 16
    assert bounded.summary()["spilled_samples"] == bounded.spilled_samples


# ------------------------------------- array-read samples vs dict construction
def _reference_by_switch(network):
    """``FlowNetwork.utilisation_by_switch`` as a per-switch loop (the
    implementation the array accessor replaced)."""
    used = network._agg
    out = {}
    for w, res in network._switch_resource.items():
        cap = network._caps[res]
        out[w] = float(used[res] / cap) if cap > 0 else 0.0
    return out


def _reference_by_link(network):
    """``FlowNetwork.utilisation_by_link`` as a per-link loop."""
    used = network._agg
    out = {}
    for (u, v), res in network._link_index.items():
        cap = network._caps[res]
        out[(u, v)] = float(used[res] / cap) if cap > 0 else 0.0
    return out


def _reference_sample(recorder, sim, t):
    """The dict-based sample construction the recorder replaced."""
    network = sim.network
    by_switch = _reference_by_switch(network)
    by_link = _reference_by_link(network)
    link_keys = tuple(sorted(by_link))
    cluster = sim.cluster
    occupancy = np.empty(len(recorder.server_ids), dtype=np.float64)
    running = 0
    for i, sid in enumerate(recorder.server_ids):
        cap = cluster.capacity(sid).memory
        occupancy[i] = cluster.used(sid).memory / cap if cap > 0 else 0.0
        running += len(cluster.hosted_on(sid))
    gauges = {}
    if sim.faults is not None:
        gauges.update(sim.faults.gauges())
    return link_keys, TimelineSample(
        t=t,
        switch_util=np.array(
            [by_switch[w] for w in recorder.switch_ids], dtype=np.float64
        ),
        link_util=np.array([by_link[k] for k in link_keys], dtype=np.float64),
        server_occupancy=occupancy,
        running_containers=running,
        queue_depth=len(sim._queue),
        active_flows=len(network.active_flows),
        parked_flows=len(sim._parked),
        gauges=gauges,
    )


def _exact(d):
    """Dict items with floats as hex, so ``-0.0`` and ``0.0`` differ."""
    return [(k, float(v).hex()) for k, v in d.items()]


def test_samples_equal_dict_construction_under_faults(monkeypatch):
    """Every sample of a faulty run, one link degraded to factor 0.0 (the
    zero-capacity branch), is byte-equal to the dict-based construction, and
    the dict views equal their per-resource loops."""
    topology = _topology()
    access_link = next(
        link for link in topology.links
        if topology.is_server(link.u) or topology.is_server(link.v)
    )
    core = max(topology.switch_ids)
    fabric_link = next(
        link for link in topology.links
        if topology.is_switch(link.u) and topology.is_switch(link.v)
    )
    faults = (
        FaultSpec(0.1, FaultKind.LINK_DEGRADE, access_link.u,
                  target2=access_link.v, factor=0.0),
        FaultSpec(0.2, FaultKind.SWITCH_FAIL, core),
        FaultSpec(0.3, FaultKind.LINK_FAIL, fabric_link.u, target2=fabric_link.v),
        FaultSpec(0.7, FaultKind.LINK_RECOVER, fabric_link.u, target2=fabric_link.v),
        FaultSpec(0.9, FaultKind.SWITCH_RECOVER, core),
        FaultSpec(1.2, FaultKind.LINK_DEGRADE, access_link.u,
                  target2=access_link.v, factor=1.0),
    )
    original = TimelineRecorder._sample
    zero_cap_samples = []

    def checked(self, sim, t):
        original(self, sim, t)
        got = self.samples[-1]
        link_keys, expected = _reference_sample(self, sim, t)
        assert self.link_keys == link_keys
        assert got.t == expected.t
        for name in ("switch_util", "link_util", "server_occupancy"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (t, name)
        for name in ("running_containers", "queue_depth", "active_flows",
                     "parked_flows", "gauges"):
            assert getattr(got, name) == getattr(expected, name), (t, name)
        # The recorder reads the engine's public gauges, not its privates.
        assert (got.queue_depth, got.parked_flows) == (
            sim.queue_depth, sim.parked_flows
        ), t
        network = sim.network
        assert _exact(network.utilisation_by_switch()) == _exact(
            _reference_by_switch(network)
        )
        assert _exact(network.utilisation_by_link()) == _exact(
            _reference_by_link(network)
        )
        if (network.resource_capacities == 0.0).any():
            zero_cap_samples.append(t)

    monkeypatch.setattr(TimelineRecorder, "_sample", checked)
    jobs = WorkloadGenerator(
        seed=0, input_size_range=(4.0, 8.0), map_rate=8.0, reduce_rate=8.0
    ).make_workload(4, interarrival=0.2)
    sim = MapReduceSimulator(
        topology,
        make_scheduler("hit", seed=0),
        jobs,
        SimulationConfig(
            seed=0, timeline_dt=0.05, faults=faults, max_task_retries=10
        ),
    )
    metrics = sim.run()
    assert len(metrics.jobs) == len(jobs)
    assert sim.faults.counters["faults.link_degrade"] == 1
    assert sim.faults.counters["faults.link_restore"] == 1
    assert len(sim.timeline.samples) > 20
    assert zero_cap_samples, "no sample saw the zero-capacity link"
    assert any(s.gauges.get("failed_switches") for s in sim.timeline.samples)
