"""Regression tests for the batched round-loop fast paths.

The round-loop overhaul (preallocated inboxes with swap-based delivery,
cached public channel views, the ``_acted`` collection guard of the per-node
oracles, the skip of halted slots) must be observationally identical to the
per-message loop it replaced; these tests pin the edge cases the fast paths
skirt around.  The per-node protocols come from ``tests/oracles.py`` and run
through its adapter.
"""

import pytest

from oracles import NodeContext, NodeProtocol, per_node
from repro.sim.errors import ProtocolError
from repro.sim.events import SlotState, idle_event
from repro.sim.channel import SlottedChannel
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.network import PointToPointNetwork
from repro.topology.generators import path_graph, ring_graph


class TestBatchedDelivery:
    def test_future_sends_are_held_back(self):
        # the slow path: messages stamped for the current round stay queued
        network = PointToPointNetwork(path_graph(3))
        network.accept_sends(0, [(1, "early")], round_index=0)
        network.accept_sends(2, [(1, "late")], round_index=1)
        inboxes = network.deliver(1)
        assert [m.payload for m in inboxes[1]] == ["early"]
        assert network.has_in_flight()
        inboxes = network.deliver(2)
        assert [m.payload for m in inboxes[1]] == ["late"]
        assert not network.has_in_flight()

    def test_mixed_ready_and_future_in_one_inbox(self):
        network = PointToPointNetwork(path_graph(3))
        network.accept_sends(0, [(1, "a")], round_index=0)
        network.accept_sends(2, [(1, "b")], round_index=1)
        network.accept_sends(0, [(1, "c")], round_index=1)
        inboxes = network.deliver(1)
        assert [m.payload for m in inboxes[1]] == ["a"]
        inboxes = network.deliver(2)
        assert sorted(m.payload for m in inboxes[1]) == ["b", "c"]

    def test_delivered_inboxes_are_fresh_lists(self):
        # a protocol may keep a reference to its inbox; the next round's
        # sends must not appear in it
        network = PointToPointNetwork(path_graph(3))
        network.accept_sends(0, [(1, "one")], round_index=0)
        first = network.deliver(1)[1]
        network.accept_sends(0, [(1, "two")], round_index=1)
        second = network.deliver(2)[1]
        assert [m.payload for m in first] == ["one"]
        assert [m.payload for m in second] == ["two"]

    def test_partial_batch_counts_messages_before_error(self):
        from repro.sim.metrics import MetricsRecorder

        metrics = MetricsRecorder()
        network = PointToPointNetwork(path_graph(3), metrics=metrics)
        with pytest.raises(ProtocolError):
            network.accept_sends(0, [(1, "ok"), (2, "bad link")], round_index=0)
        assert metrics.point_to_point_messages == 1

    def test_partial_batch_keeps_one_round_delay(self):
        # a caller that catches the error must still see the synchronous
        # model's delay: the queued message is not deliverable in its own
        # send round
        network = PointToPointNetwork(path_graph(3))
        with pytest.raises(ProtocolError):
            network.accept_sends(0, [(1, "ok"), (2, "bad link")], round_index=0)
        assert network.deliver(0) == {}
        assert [m.payload for m in network.deliver(1)[1]] == ["ok"]

    def test_quiet_inbox_is_immutable(self):
        # all mail-less nodes share one inbox; mutating it must fail loudly
        observed = []

        class Prodder(NodeProtocol):
            def on_round(self, inbox, channel):
                observed.append(inbox)
                self.halt()

        MultimediaNetwork(path_graph(2)).run(per_node(Prodder))
        assert observed and all(len(inbox) == 0 for inbox in observed)
        with pytest.raises(AttributeError):
            observed[0].append("phantom")


class TestPublicViewCache:
    def test_idle_event_is_its_own_public_view(self):
        event = idle_event(3)
        assert event.public_view() is event

    def test_success_view_hides_writers_and_is_cached(self):
        event = SlottedChannel().resolve_slot(0, [(7, "payload")])
        public = event.public_view()
        assert public.writers == ()
        assert public.payload == "payload"
        assert public.writer == 7
        assert event.public_view() is public

    def test_collision_view_hides_writers(self):
        event = SlottedChannel().resolve_slot(0, [(1, "a"), (2, "b")])
        assert event.writers == (1, 2)
        assert event.public_view().writers == ()
        assert event.public_view().state is SlotState.COLLISION


class TestActionCollection:
    def _protocol(self):
        ctx = NodeContext(node_id=1, neighbors=(0, 2),
                          link_weights={0: 1.0, 2: 1.0}, n=3)

        class Noop(NodeProtocol):
            def on_round(self, inbox, channel):
                pass

        return Noop(ctx)

    def test_quiet_round_collects_nothing_without_allocating(self):
        protocol = self._protocol()
        assert protocol._acted is False
        outbox_before = protocol._outbox
        outbox, payload, wrote = protocol._collect_actions()
        assert outbox == [] and payload is None and wrote is False
        assert protocol._outbox is outbox_before

    def test_send_marks_acted_and_collect_resets(self):
        protocol = self._protocol()
        protocol.send(0, "x")
        assert protocol._acted is True
        outbox, _, wrote = protocol._collect_actions()
        assert outbox == [(0, "x")] and wrote is False
        assert protocol._acted is False

    def test_broadcast_then_send_still_rejects_duplicates(self):
        protocol = self._protocol()
        protocol.send_to_all_neighbors("hello")
        assert protocol._acted is True
        with pytest.raises(ProtocolError):
            protocol.send(0, "again")

    def test_channel_write_marks_acted(self):
        protocol = self._protocol()
        protocol.channel_write("w")
        assert protocol._acted is True
        _, payload, wrote = protocol._collect_actions()
        assert payload == "w" and wrote is True


class TestRoundLoopSemantics:
    def test_message_sent_in_round_r_arrives_in_round_r_plus_one(self):
        arrivals = {}

        class PingOnce(NodeProtocol):
            def on_start(self):
                if self.node_id == 0:
                    self.send(1, "ping")

            def on_round(self, inbox, channel):
                for message in inbox:
                    arrivals[self.node_id] = (message.payload, channel.slot)
                    self.halt()
                    return
                if self.node_id == 0:
                    self.halt()

        MultimediaNetwork(path_graph(2)).run(per_node(PingOnce))
        payload, observed_slot = arrivals[1]
        assert payload == "ping"
        # round 1 observes slot 0's resolution, so the message sent in round
        # 0 arrived exactly one round later
        assert observed_slot == 0

    def test_drain_rounds_resolve_idle_slots_after_everyone_halts(self):
        class SendAndHaltImmediately(NodeProtocol):
            def on_start(self):
                self.send_to_all_neighbors("bye")
                self.halt("done")

            def on_round(self, inbox, channel):  # pragma: no cover
                raise AssertionError("halted nodes are never dispatched")

        result = MultimediaNetwork(ring_graph(4)).run(per_node(SendAndHaltImmediately))
        # one round for the sends, one drain round for the in-flight messages
        assert result.rounds == 2
        assert all(event.is_idle() for event in result.channel_history)
        assert isinstance(result.channel_history, tuple)

    def test_halted_in_constructor_short_circuits(self):
        class BornDone(NodeProtocol):
            def __init__(self, ctx):
                super().__init__(ctx)
                self.halt("early")

            def on_round(self, inbox, channel):  # pragma: no cover
                raise AssertionError("never scheduled")

        result = MultimediaNetwork(path_graph(3)).run(per_node(BornDone))
        assert result.rounds == 0
        assert set(result.results.values()) == {"early"}

    def test_reusing_the_network_object_is_deterministic(self):
        class CoinFlip(NodeProtocol):
            def on_start(self):
                self.halt(self.ctx.rng.random())

            def on_round(self, inbox, channel):  # pragma: no cover
                raise AssertionError("halts at start")

        network = MultimediaNetwork(ring_graph(5), seed=42)
        first = network.run(per_node(CoinFlip)).results
        second = network.run(per_node(CoinFlip)).results
        assert first == second
