"""FaultInjector: event scheduling, live failed-element state, counters."""

import pytest

from repro.faults import FaultInjector, FaultKind, FaultSpec
from repro.simulator import RoutingViolation
from repro.simulator.events import EventKind, EventQueue


def make_injector(topology, specs=()):
    return FaultInjector(topology, specs)


class TestScheduling:
    def test_one_event_per_spec(self, flat_tree):
        switch = flat_tree.switch_ids[0]
        injector = make_injector(
            flat_tree,
            [
                FaultSpec(0.5, FaultKind.SERVER_FAIL, 1),
                FaultSpec(1.0, FaultKind.SWITCH_FAIL, switch),
                FaultSpec(2.0, FaultKind.SERVER_RECOVER, 1),
            ],
        )
        queue = EventQueue()
        assert injector.schedule(queue) == 3
        events = [queue.pop() for _ in range(3)]
        assert [e.kind for e in events] == [
            EventKind.SERVER_FAIL,
            EventKind.SWITCH_FAIL,
            EventKind.SERVER_RECOVER,
        ]
        assert [e.payload for e in events] == [1, switch, 1]

    def test_slowdown_payload_carries_factor(self, flat_tree):
        injector = make_injector(
            flat_tree, [FaultSpec(0.2, FaultKind.TASK_SLOWDOWN, 3, factor=2.5)]
        )
        queue = EventQueue()
        injector.schedule(queue)
        event = queue.pop()
        assert event.kind is EventKind.TASK_SLOWDOWN
        assert event.payload == (3, 2.5)

    def test_constructor_validates_targets(self, flat_tree):
        with pytest.raises(ValueError, match="not a switch"):
            make_injector(flat_tree, [FaultSpec(1.0, FaultKind.SWITCH_FAIL, 0)])


class TestLiveState:
    def test_mark_and_recover_server(self, flat_tree):
        injector = make_injector(flat_tree)
        assert injector.mark_server_failed(2)
        assert injector.failed_servers == frozenset({2})
        # Duplicate failure is a no-op and is not double-counted.
        assert not injector.mark_server_failed(2)
        assert injector.counters["faults.server_fail"] == 1
        assert injector.mark_server_recovered(2)
        assert injector.failed_servers == frozenset()
        assert not injector.mark_server_recovered(2)

    def test_mark_and_recover_switch(self, flat_tree):
        switch = flat_tree.switch_ids[0]
        injector = make_injector(flat_tree)
        assert injector.mark_switch_failed(switch)
        assert injector.failed_switches == frozenset({switch})
        assert not injector.mark_switch_failed(switch)
        assert injector.mark_switch_recovered(switch)
        assert injector.counters["faults.switch_recover"] == 1

    def test_assert_path_clear(self, flat_tree):
        tor, core = flat_tree.switch_ids[0], max(flat_tree.switch_ids)
        injector = make_injector(flat_tree)
        injector.mark_switch_failed(core)
        injector.assert_path_clear((0, tor, 1))  # core not on this path
        with pytest.raises(RoutingViolation, match=f"failed switch {core}"):
            injector.assert_path_clear((0, tor, core, tor, 2))
        assert issubclass(RoutingViolation, RuntimeError)

    def test_summary_sorted(self, flat_tree):
        injector = make_injector(flat_tree)
        injector.count("retries.map", 2)
        injector.count("faults.server_fail")
        assert list(injector.summary()) == ["faults.server_fail", "retries.map"]
        assert injector.summary() == {"faults.server_fail": 1, "retries.map": 2}
