"""Unit tests for the point-to-point network and the slotted channel."""

import re

import pytest

from repro.sim.channel import SlottedChannel
from repro.sim.errors import ProtocolError, TopologyError
from repro.sim.events import SlotState
from repro.sim.metrics import MetricsRecorder
from repro.sim.network import PointToPointNetwork
from repro.topology.generators import path_graph
from repro.topology.graph import WeightedGraph


class TestPointToPointNetwork:
    def test_rejects_empty_and_disconnected(self):
        with pytest.raises(TopologyError):
            PointToPointNetwork(WeightedGraph())
        disconnected = WeightedGraph.from_edges([], n=2)
        with pytest.raises(TopologyError):
            PointToPointNetwork(disconnected)

    def test_delivery_one_round_later(self):
        network = PointToPointNetwork(path_graph(3))
        network.accept_round([(0, 1, "hello")], round_index=0)
        assert network.deliver(0) == {}
        inboxes = network.deliver(1)
        assert len(inboxes[1]) == 1
        assert inboxes[1][0].payload == "hello"
        assert not network.has_in_flight()

    def test_non_neighbor_send_rejected(self):
        network = PointToPointNetwork(path_graph(3))
        with pytest.raises(ProtocolError):
            network.accept_round([(0, 2, "x")], round_index=0)

    def test_message_counting(self):
        metrics = MetricsRecorder()
        network = PointToPointNetwork(path_graph(4), metrics=metrics)
        network.accept_round([(1, 0, "a"), (1, 2, "b")], round_index=0)
        assert metrics.point_to_point_messages == 2
        assert sum(map(len, network.deliver(1).values())) == 2

    def test_hub_batch_validates_against_its_row(self):
        # a hub sending to every neighbour in one round, then rounds that
        # end in a stranger
        graph = WeightedGraph.from_edges([(0, leaf) for leaf in range(1, 50)] + [(1, 2)])
        metrics = MetricsRecorder()
        network = PointToPointNetwork(graph, metrics=metrics)
        sends = [(0, leaf, leaf) for leaf in range(1, 50)]
        network.accept_round(sends, round_index=0)
        network.accept_round([(1, 0, "a"), (1, 2, "b")], round_index=1)
        for stray in ([(2, 3, "c")], sends + [(0, 50, "d")]):
            with pytest.raises(ProtocolError):
                network.accept_round(stray, round_index=1)
        assert metrics.point_to_point_messages == 49 + 2 + 49
        delivered = network.deliver(1)
        assert list(delivered) == list(range(1, 50))
        total = sum(map(len, delivered.values()))
        # held-back mail keeps first-mail order: the leaves had mail before 0
        delivered = network.deliver(2)
        assert list(delivered) == list(range(1, 50)) + [0]
        assert [m.payload for m in delivered[0]] == ["a"]
        assert [m.payload for m in delivered[2]] == ["b", 2]
        assert not network.has_in_flight()
        assert total + sum(map(len, delivered.values())) == 100

    @pytest.mark.parametrize("hub", [False, True], ids=["row", "hub"])
    def test_interleaved_senders_are_checked_against_their_own_rows(self, hub):
        # sender A, then B, then A again with a receiver that is B's neighbour
        # but not A's: a link cache kept from B must not let it through
        leaves = range(3, 3 + (20 if hub else 1))
        graph = WeightedGraph.from_edges(
            [(0, 1), (1, 2)] + [(0, leaf) for leaf in leaves]
        )
        metrics = MetricsRecorder()
        network = PointToPointNetwork(graph, metrics=metrics)
        batch = [(0, 1, "a"), (1, 2, "b"), (0, 2, "stray")]
        with pytest.raises(ProtocolError, match=re.escape(
            "node 0 attempted to send over a non-existent link to 2"
        )):
            network.accept_round(batch, round_index=0)
        assert metrics.point_to_point_messages == 2
        delivered = network.deliver(1)
        assert [m.payload for m in delivered[1]] == ["a"]
        assert [m.payload for m in delivered[2]] == ["b"]
        assert [m.sender for m in delivered[2]] == [1]


class TestSlottedChannel:
    def test_idle_success_collision(self):
        channel = SlottedChannel()
        idle = channel.resolve_slot(0, [])
        assert idle.state is SlotState.IDLE
        success = channel.resolve_slot(1, [(7, "payload")])
        assert success.state is SlotState.SUCCESS
        assert success.payload == "payload"
        assert success.writer == 7
        collision = channel.resolve_slot(2, [(1, "a"), (2, "b")])
        assert collision.state is SlotState.COLLISION
        assert collision.payload is None

    def test_history_and_utilisation(self):
        # the channel keeps no history: every resolved slot is charged to
        # the metrics, from which the utilisation follows
        metrics = MetricsRecorder()
        channel = SlottedChannel(metrics=metrics)
        channel.resolve_slot(0, [])
        channel.resolve_slot(1, [(1, "x")])
        channel.resolve_slot(2, [(1, "x"), (2, "y")])
        assert metrics.channel_slots == 3
        assert (metrics.channel_idle, metrics.channel_success, metrics.channel_collision) == (1, 1, 1)
        assert metrics.channel_success / metrics.channel_slots == pytest.approx(1 / 3)

    def test_metrics_charging(self):
        metrics = MetricsRecorder()
        channel = SlottedChannel(metrics=metrics)
        channel.resolve_slot(0, [(1, "x"), (2, "y")])
        assert metrics.channel_collision == 1
        assert metrics.channel_write_attempts == 2
