"""Shuffle-flow construction."""

import numpy as np
import pytest

from repro.mapreduce import (
    build_flows,
    flows_between,
    shuffle_matrix,
)

from ..conftest import make_job


class TestBuildFlows:
    def test_flow_count_and_endpoints(self):
        job = make_job(num_maps=3, num_reduces=2)
        flows = build_flows(job, [10, 11, 12], [20, 21])
        assert len(flows) == 6
        assert {f.src_container for f in flows} == {10, 11, 12}
        assert {f.dst_container for f in flows} == {20, 21}

    def test_sizes_sum_to_shuffle_volume(self):
        job = make_job(input_size=8.0, shuffle_ratio=1.0)
        flows = build_flows(job, list(range(job.num_maps)),
                            list(range(100, 100 + job.num_reduces)))
        assert sum(f.size for f in flows) == pytest.approx(job.shuffle_volume)

    def test_respects_given_matrix(self):
        job = make_job(num_maps=2, num_reduces=2)
        matrix = np.array([[1.0, 0.0], [0.0, 3.0]])
        flows = build_flows(job, [0, 1], [2, 3], matrix=matrix)
        assert len(flows) == 2  # zero entries dropped
        assert {(f.src_container, f.dst_container, f.size) for f in flows} == {
            (0, 2, 1.0),
            (1, 3, 3.0),
        }

    def test_rate_scaling(self):
        job = make_job(num_maps=1, num_reduces=1, input_size=4.0, shuffle_ratio=1.0)
        (flow,) = build_flows(job, [0], [1], rate_epoch=2.0)
        assert flow.rate == pytest.approx(flow.size / 2.0)

    def test_flow_ids_sequential_from_offset(self):
        job = make_job(num_maps=2, num_reduces=2)
        flows = build_flows(job, [0, 1], [2, 3], first_flow_id=100)
        assert [f.flow_id for f in flows] == [100, 101, 102, 103]

    def test_validates_container_counts(self):
        job = make_job(num_maps=2, num_reduces=2)
        with pytest.raises(ValueError):
            build_flows(job, [0], [2, 3])
        with pytest.raises(ValueError):
            build_flows(job, [0, 1], [2])

    def test_validates_matrix_shape(self):
        job = make_job(num_maps=2, num_reduces=2)
        with pytest.raises(ValueError):
            build_flows(job, [0, 1], [2, 3], matrix=np.ones((3, 3)))

    def test_flows_between_selector(self):
        job = make_job(num_maps=2, num_reduces=2)
        flows = build_flows(job, [0, 1], [2, 3])
        sel = flows_between(flows, 0, 3)
        assert len(sel) == 1
        assert sel[0].src_container == 0 and sel[0].dst_container == 3

    def test_rejects_negative_size(self):
        from repro.mapreduce import ShuffleFlow

        with pytest.raises(ValueError):
            ShuffleFlow(0, 0, 0, 0, 1, 2, size=-1.0, rate=0.0)
