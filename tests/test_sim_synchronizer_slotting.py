"""Tests for the channel synchronizer (7.1) and slotted-from-unslotted (7.2)."""

import pytest

from oracles import TreeAggregationProtocol, per_node
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.tree_utils import children_map
from repro.sim.engine import EventQueue
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.slotting import (
    UnslottedChannel,
    slotted_from_unslotted,
    verify_slot_semantics,
)
from repro.sim.synchronizer import ChannelSynchronizer
from repro.topology.generators import grid_graph


def _sum_inputs(graph, root):
    parents, _, _ = build_bfs_forest(graph, [root])
    children = children_map(parents)
    return {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": 1,
            "combine": lambda a, b: a + b,
            "redistribute": True,
        }
        for node in graph.nodes()
    }


class TestEventQueue:
    def test_events_run_in_time_order(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5, lambda: seen.append("late"))
        queue.schedule(1, lambda: seen.append("early"))
        queue.run_all()
        assert seen == ["early", "late"]
        assert queue.now == 5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().schedule(-1, lambda: None)

    def test_run_until(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1, lambda: seen.append(1))
        queue.schedule(3, lambda: seen.append(3))
        queue.run_until(2)
        assert seen == [1]

    def test_fast_forward_jumps_event_free_stretch(self):
        queue = EventQueue()
        seen = []
        queue.schedule(10, lambda: seen.append(10))
        queue.fast_forward(9.0)
        assert queue.now == 9.0
        assert seen == []
        queue.run_all()
        assert seen == [10]

    def test_fast_forward_refuses_to_skip_events(self):
        queue = EventQueue()
        queue.schedule(2, lambda: None)
        with pytest.raises(ValueError):
            queue.fast_forward(2.0)

    def test_fast_forward_refuses_past(self):
        queue = EventQueue()
        queue.schedule(1, lambda: None)
        queue.run_all()
        with pytest.raises(ValueError):
            queue.fast_forward(0.5)


class TestChannelSynchronizer:
    def test_same_result_as_synchronous_run(self):
        graph = grid_graph(4, 4)
        root = 0
        inputs = _sum_inputs(graph, root)
        sync = MultimediaNetwork(graph, seed=1).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        report = ChannelSynchronizer(graph, max_link_delay=4, seed=1).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert report.results[root] == sync.results[root] == 16
        assert all(value == 16 for value in report.results.values())

    def test_corollary4_message_overhead_at_most_two(self):
        graph = grid_graph(3, 3)
        inputs = _sum_inputs(graph, 0)
        report = ChannelSynchronizer(graph, max_link_delay=2, seed=3).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert report.ack_messages == report.algorithm_messages
        assert report.message_overhead_factor == pytest.approx(2.0)

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            ChannelSynchronizer(grid_graph(2, 2), max_link_delay=0)


class TestSlottedFromUnslotted:
    def test_disjoint_transmissions_become_successes(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 0.0)
        channel.transmit(2, "b", 5.0)
        events = slotted_from_unslotted(channel)
        assert [e.state.value for e in events] == ["success", "success"]
        assert verify_slot_semantics(events)

    def test_overlapping_transmissions_collide(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 0.0)
        channel.transmit(2, "b", 0.5)
        events = slotted_from_unslotted(channel)
        assert len(events) == 1
        assert events[0].is_collision()

    def test_guard_time_extends_slot(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 0.0)
        channel.transmit(2, "b", 1.2)
        assert len(slotted_from_unslotted(channel, guard_time=0.0)) == 2
        assert len(slotted_from_unslotted(channel, guard_time=0.5)) == 1

    def test_number_by_time_counts_idle_gaps(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 0.0)
        channel.transmit(2, "b", 5.5)
        dense = slotted_from_unslotted(channel)
        assert [e.slot for e in dense] == [0, 1]
        timed = slotted_from_unslotted(channel, number_by_time=True)
        # the first period ends at 1.0; 4 whole idle slots fit before 5.5
        assert [e.slot for e in timed] == [0, 5]
        assert timed[-1].slot + 1 - len(timed) == 4  # fast-forwarded idles
        assert verify_slot_semantics(timed)

    def test_number_by_time_counts_leading_idle(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 3.25)
        (event,) = slotted_from_unslotted(channel, number_by_time=True)
        assert event.slot == 3

    def test_number_by_time_contiguous_matches_dense(self):
        channel = UnslottedChannel()
        channel.transmit(1, "a", 0.0)
        channel.transmit(2, "b", 1.0)
        channel.transmit(3, "c", 2.0)
        dense = slotted_from_unslotted(channel)
        timed = slotted_from_unslotted(channel, number_by_time=True)
        assert [e.slot for e in dense] == [e.slot for e in timed] == [0, 1, 2]

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            UnslottedChannel().transmit(1, "a", -1.0)

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            slotted_from_unslotted(UnslottedChannel(), guard_time=-0.1)
