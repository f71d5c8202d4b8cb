"""Usage-cache checks tolerate float residue but still catch real drift.

Placing demands of 0.1 and 0.3 on one server and unplacing the 0.1 leaves
the cache at ``0.1 + 0.3 - 0.1 == 0.30000000000000004`` while the
re-derived sum is ``0.3``.  Both consistency checks — ``ClusterState.validate``
(reached through ``TAAInstance.verify_constraints``) and
``InvariantChecker.check_server_capacity`` — must accept that, and must
still flag a container missing from the server's hosted set or a cache off
by one container's demand.
"""

import pytest

from repro.cluster import Container, Resources
from repro.core.taa import TAAInstance
from repro.experiments import configs
from repro.obs import InvariantChecker


@pytest.fixture
def taa():
    containers = [
        Container(0, Resources(0.1, 0.0)),
        Container(1, Resources(0.3, 0.0)),
    ]
    return TAAInstance(configs.testbed_tree(), containers, [])


def capacity_violations(taa):
    return [
        v for v in taa.verify_constraints() if v.constraint == "server-capacity"
    ]


def checker_violations(taa):
    checker = InvariantChecker(mode="collect")
    return checker.check_server_capacity(taa.cluster)


def test_fractional_refund_is_not_drift(taa):
    cluster = taa.cluster
    server = cluster.server_ids[0]
    cluster.place(0, server)
    cluster.place(1, server)
    cluster.unplace(0)
    # The residue this test is about: the cache and the sum differ.
    assert cluster.used(server).memory != 0.3
    assert capacity_violations(taa) == []
    assert checker_violations(taa) == []


def test_container_missing_from_hosted_is_flagged(taa):
    cluster = taa.cluster
    server = cluster.server_ids[0]
    cluster.place(1, server)
    cluster._hosted[server].discard(1)
    assert capacity_violations(taa)
    assert checker_violations(taa)


def test_cache_off_by_one_demand_is_flagged(taa):
    cluster = taa.cluster
    server = cluster.server_ids[0]
    cluster.place(0, server)
    cluster.place(1, server)
    cluster._used[server] = cluster._used[server] - Resources(0.1, 0.0)
    assert capacity_violations(taa)
    assert checker_violations(taa)
