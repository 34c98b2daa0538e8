"""Regression tests for the batched round-loop fast paths.

The round-loop fast paths (inboxes created on first mail and handed over
whole by delivery, the ``_acted`` collection guard of the per-node oracles,
the skip of halted slots) must be observationally identical to a per-message loop; these tests pin the edge
cases the fast paths skirt around.  The per-node protocols come from
``tests/oracles.py`` and run through its adapter; the message-plane and
halting tests drive small flyweights of their own on both simulators.
"""

import functools
import re

import pytest

from oracles import NodeContext, NodeProtocol, neighbors, per_node
from repro.sim.adversity import AdversityState, adversity_spec
from repro.sim.errors import ProtocolError
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.metrics import MetricsRecorder
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.network import PointToPointNetwork
from repro.sim.synchronizer import ChannelSynchronizer
from repro.topology.generators import path_graph, ring_graph


class _StraySender(FlyweightProtocol):
    """Slot 0 sends to node 2 at the start, which on a path is no neighbour.

    ``extra`` sends (sender slot, receiver, payload) go into the buffer first.
    """

    def __init__(self, env, extra=()):
        super().__init__(env)
        self.extra = extra

    def on_start(self, slots):
        for slot in slots:
            if slot == 0:
                for send in self.extra:
                    self.send(*send)
                self.send(0, 2, "stray")

    def on_round(self, slots, inboxes, channel):  # pragma: no cover
        raise AssertionError("the start pulse raises")


def _run_multimedia(graph, factory, adversity=None):
    return MultimediaNetwork(graph, seed=1).run(factory, adversity=adversity)


def _run_synchronizer(graph, factory, adversity=None):
    return ChannelSynchronizer(graph, seed=1).run(factory, adversity=adversity)


SIMULATORS = pytest.mark.parametrize(
    "simulate", [_run_multimedia, _run_synchronizer], ids=["multimedia", "synchronizer"]
)


class TestBatchedDelivery:
    def test_future_sends_are_held_back(self):
        # the slow path: messages stamped for the current round stay queued
        network = PointToPointNetwork(path_graph(3))
        network.accept_round([(0, 1, "early")], round_index=0)
        network.accept_round([(2, 1, "late")], round_index=1)
        inboxes = network.deliver(1)
        assert [m.payload for m in inboxes[1]] == ["early"]
        assert network.has_in_flight()
        inboxes = network.deliver(2)
        assert [m.payload for m in inboxes[1]] == ["late"]
        assert not network.has_in_flight()

    def test_mixed_ready_and_future_in_one_inbox(self):
        network = PointToPointNetwork(path_graph(3))
        network.accept_round([(0, 1, "a")], round_index=0)
        network.accept_round([(2, 1, "b"), (0, 1, "c")], round_index=1)
        inboxes = network.deliver(1)
        assert [m.payload for m in inboxes[1]] == ["a"]
        inboxes = network.deliver(2)
        assert sorted(m.payload for m in inboxes[1]) == ["b", "c"]

    def test_delivered_inboxes_are_fresh_lists(self):
        # a protocol may keep a reference to its inbox; the next round's
        # sends must not appear in it
        network = PointToPointNetwork(path_graph(3))
        network.accept_round([(0, 1, "one")], round_index=0)
        first = network.deliver(1)[1]
        network.accept_round([(0, 1, "two")], round_index=1)
        second = network.deliver(2)[1]
        assert [m.payload for m in first] == ["one"]
        assert [m.payload for m in second] == ["two"]

    def test_partial_batch_counts_messages_before_error(self):
        metrics = MetricsRecorder()
        network = PointToPointNetwork(path_graph(3), metrics=metrics)
        with pytest.raises(ProtocolError):
            network.accept_round([(0, 1, "ok"), (0, 2, "bad link")], round_index=0)
        assert metrics.point_to_point_messages == 1

    def test_partial_batch_keeps_one_round_delay(self):
        # a caller that catches the error must still see the synchronous
        # model's delay: the queued message is not deliverable in its own
        # send round
        network = PointToPointNetwork(path_graph(3))
        with pytest.raises(ProtocolError):
            network.accept_round([(0, 1, "ok"), (0, 2, "bad link")], round_index=0)
        assert network.deliver(0) == {}
        assert [m.payload for m in network.deliver(1)[1]] == ["ok"]

    def test_failed_round_records_no_round_and_resolves_no_slot(self):
        # the simulator accepts a round before resolving its channel slot
        # and charging its round, so a stray send stops both
        metrics = MetricsRecorder()
        with pytest.raises(ProtocolError):
            MultimediaNetwork(path_graph(3)).run(
                functools.partial(_StraySender, extra=[(0, 1, "ok")]), metrics=metrics
            )
        assert metrics.point_to_point_messages == 1
        assert metrics.rounds == 0
        assert metrics.channel_slots == 0

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
        assert result.metrics.channel_idle == result.metrics.channel_slots == 2

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


class TestMessagePlane:
    """The one checked accept both simulators share."""

    @SIMULATORS
    def test_send_over_a_missing_link_raises_on_both_simulators(self, simulate):
        with pytest.raises(ProtocolError, match=re.escape(
            "node 0 attempted to send over a non-existent link to 2"
        )):
            simulate(path_graph(3), _StraySender)


class _FirstHaltsAll(FlyweightProtocol):
    """Everyone pings its neighbours; the first slot to hear back halts everyone.

    That slot also pings again, so the halted slots still have mail coming.
    ``dispatched`` records every (slot, payloads) the protocol ran.
    """

    MESSAGE_DRIVEN = True

    def __init__(self, env):
        super().__init__(env)
        self.dispatched = []

    def _ping(self, slot, payload):
        for neighbor in neighbors(self.env.csr, slot):
            self.send(slot, neighbor, payload)

    def on_start(self, slots):
        for slot in slots:
            if not self.halted[slot]:
                self._ping(slot, "ping")

    def on_round(self, slots, inboxes, channel):
        for slot in slots:
            if self.halted[slot]:
                continue
            self.dispatched.append((slot, [m.payload for m in inboxes[slot]]))
            self._ping(slot, "again")
            for each in range(self.env.num_slots):
                self.halt_slot(each, ("halted by", slot))


class TestHaltedInTheSameRound:
    """A slot halted by an earlier slot of its round is not dispatched."""

    @SIMULATORS
    @pytest.mark.parametrize("full_scan", [False, True], ids=["mail-only", "full-scan"])
    def test_later_slots_are_skipped_and_keep_absorbing_mail(self, simulate, full_scan):
        graph = ring_graph(6)
        adversity = None
        if full_scan:
            # a crash window forces the scan; it opens long after the run
            adversity = AdversityState(adversity_spec(
                {"name": "crash", "crash_rate": 0.0, "crash_nodes": (3,),
                 "crash_length": 1, "crash_period": 1000}
            ), seed=1)
            adversity.bind_topology(graph)
            assert adversity.has_crash_windows
            assert not any(adversity.node_crashed(3, r) for r in range(10))
        protocols = []

        def factory(env):
            protocols.append(_FirstHaltsAll(env))
            return protocols[0]

        result = simulate(graph, factory, adversity)
        (protocol,) = protocols
        assert protocol.dispatched == [(0, ["ping", "ping"])]
        assert protocol.active_count == 0
        assert set(result.results.values()) == {("halted by", 0)}
        sent = 2 * graph.num_edges() + 2
        if simulate is _run_multimedia:
            assert result.metrics.point_to_point_messages == sent
            # round 2 only drains the second pings into halted slots
            assert result.rounds == 3
        else:
            # every message, the ones to halted slots too, was acknowledged
            assert result.algorithm_messages == result.ack_messages == sent
