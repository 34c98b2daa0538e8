"""Regression tests for the batched round-loop fast paths.

The round-loop fast paths (inboxes created on first mail and handed over
whole by delivery, the ``_acted`` collection guard of the per-node oracles,
the skip of halted slots) must be observationally identical to a per-message loop; these tests pin the edge
cases the fast paths skirt around.  The per-node protocols come from
``tests/oracles.py`` and run through its adapter; the message-plane and
halting tests drive small flyweights of their own on both simulators.
"""

import functools
import random
import re

import pytest

from oracles import NodeContext, NodeProtocol, ScanDispatch, neighbors, per_node
from repro.experiments.harness import make_topology
from repro.sim import multimedia, synchronizer
from repro.sim.adversity import AdversityState, adversity_spec
from repro.sim.errors import AdversityAbort, ProtocolError
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

    def __init__(self, csr, extra=()):
        super().__init__(csr)
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
    return MultimediaNetwork(graph).run(factory, adversity=adversity)


def _run_synchronizer(graph, factory, adversity=None):
    return ChannelSynchronizer(graph, seed=1).run(factory, adversity=adversity)


SIMULATORS = pytest.mark.parametrize(
    "simulate", [_run_multimedia, _run_synchronizer], ids=["multimedia", "synchronizer"]
)


class TestBatchedDelivery:
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
        # a caller that catches the error still finds the messages before
        # it queued for the next round, stamped with their send round, and
        # nothing after it
        network = PointToPointNetwork(path_graph(3))
        with pytest.raises(ProtocolError):
            network.accept_round([(0, 1, "ok"), (0, 2, "bad link")], round_index=0)
        inboxes = network.deliver(1)
        assert list(inboxes) == [1]
        assert [(m.payload, m.round_sent) for m in inboxes[1]] == [("ok", 0)]
        assert not network.has_in_flight()

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

        network = MultimediaNetwork(ring_graph(5))
        first = network.run(per_node(CoinFlip, seed=42)).results
        second = network.run(per_node(CoinFlip, seed=42)).results
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

    def __init__(self, csr):
        super().__init__(csr)
        self.dispatched = []

    def _ping(self, slot, payload):
        for neighbor in neighbors(self.csr, slot):
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
            for each in range(self.csr.n):
                self.halt_slot(each, ("halted by", slot))


class TestHaltedInTheSameRound:
    """A slot halted by an earlier slot of its round is not dispatched."""

    @SIMULATORS
    @pytest.mark.parametrize("full_scan", [False, True], ids=["mail-only", "full-scan"])
    def test_later_slots_are_skipped_and_keep_absorbing_mail(self, simulate, full_scan):
        graph = ring_graph(6)
        adversity = None
        if full_scan:
            # a crash window takes the crash path; it opens long after the run
            adversity = AdversityState(adversity_spec(
                {"name": "crash", "crash_rate": 0.0, "crash_nodes": (3,),
                 "crash_length": 1, "crash_period": 1000}
            ), seed=1)
            adversity.bind_topology(graph)
            assert adversity.has_crash_windows
            assert not any(adversity.node_crashed(3, r) for r in range(10))
        protocols = []

        def factory(csr):
            protocols.append(_FirstHaltsAll(csr))
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


class _WriteAndHalt(FlyweightProtocol):
    """Every slot writes the channel and halts on the start pulse."""

    def on_start(self, slots):
        for slot in slots:
            self.channel_write(slot, slot)
            self.halt_slot(slot)

    def on_round(self, slots, inboxes, channel):  # pragma: no cover
        raise AssertionError("every slot halts at the start")


class TestChannelCharges:
    """Both simulators charge the algorithm's channel to the run's metrics."""

    @SIMULATORS
    def test_writes_on_the_final_pulse_are_resolved(self, simulate):
        result = simulate(ring_graph(8), _WriteAndHalt)
        metrics = result.metrics
        assert metrics.channel_write_attempts == 8
        assert metrics.channel_collision == 1
        # one slot per round (per pulse under the synchronizer)
        assert metrics.channel_slots == metrics.rounds == 1

    def test_synchronizer_counts_pulses_and_every_message(self):
        graph = ring_graph(6)
        report = _run_synchronizer(graph, _FirstHaltsAll)
        assert report.metrics.rounds == report.pulses
        assert report.metrics.channel_slots == report.pulses
        assert report.metrics.channel_idle == report.pulses
        assert report.metrics.point_to_point_messages == report.total_messages


class _CoinActor(FlyweightProtocol):
    """Sends, writes and halts on draws from one seeded source.

    A dispatched slot sends to each neighbour on a coin flip, writes the
    channel now and then, and halts on its own after a drawn number of
    dispatches, with the payloads it heard as its result.  The draws follow
    the protocol calls, so two runs draw alike exactly when they call alike.
    """

    #: the most dispatches a slot lives through
    LIVES = 6

    def __init__(self, csr, seed):
        super().__init__(csr)
        self.rng = random.Random(seed)
        self.lives = [self.rng.randint(1, self.LIVES) for _ in range(csr.n)]
        self.heard = [[] for _ in range(csr.n)]

    def _act(self, slot):
        rng = self.rng
        for neighbor in neighbors(self.csr, slot):
            if rng.random() < 0.6:
                self.send(slot, neighbor, (slot, rng.randrange(100)))
        if rng.random() < 0.2:
            self.channel_write(slot, slot)
        self.lives[slot] -= 1
        if not self.lives[slot]:
            self.halt_slot(slot, self.heard[slot])

    def on_start(self, slots):
        for slot in slots:
            if not self.halted[slot]:
                self._act(slot)

    def on_round(self, slots, inboxes, channel):
        for slot in slots:
            if not self.halted[slot]:
                self.heard[slot].extend(m.payload for m in inboxes.get(slot, ()))
                self._act(slot)


class _MailCoinActor(_CoinActor):
    """A message-driven :class:`_CoinActor`: it acts on mail only.

    Its slots live short enough for a run to end with every slot halted
    now and then, crashes notwithstanding.
    """

    MESSAGE_DRIVEN = True
    LIVES = 2


def _crash_schedule(seed, n):
    """A random crash schedule; now and then ``crash_length >= crash_period``."""
    rng = random.Random(seed)
    period = rng.randint(1, 12)
    return adversity_spec({
        "name": "crash",
        "crash_rate": rng.choice([0.1, 0.3, 0.6]),
        "crash_length": rng.randint(0, period + 3),
        "crash_period": period,
        "crash_nodes": tuple(rng.sample(range(n), 2)),
        "round_budget": 300,
        "stall_rounds": 32,
    })


def _traced_crash_run(monkeypatch, simulate, graph, protocol_class, spec, seed,
                      reference):
    """Run under ``spec``, logging every round's protocol calls.

    With ``reference`` the rounds go through ``oracles.ScanDispatch``.
    Returns the calls, the outcome (the result, or the abort's fields), the
    run's ``crash_node_rounds`` and the scan's own count (``None`` without
    ``reference``).
    """
    adversity = AdversityState(spec, seed=seed)
    dispatch = ScanDispatch(adversity) if reference else multimedia.dispatch_round
    calls = []

    def traced(protocol, inboxes, event, round_index, crashed, deferred):
        calls.append(("round", round_index))
        dispatch(protocol, inboxes, event, round_index, crashed, deferred)

    def factory(csr):
        protocol = protocol_class(csr, seed)
        on_start, on_round = protocol.on_start, protocol.on_round

        def start(slots):
            calls.append(("on_start", list(slots)))
            on_start(slots)

        def round_(slots, inboxes, event):
            calls.append(("on_round", list(slots), event))
            on_round(slots, inboxes, event)

        protocol.on_start, protocol.on_round = start, round_
        return protocol

    with monkeypatch.context() as patch:
        patch.setattr(multimedia, "dispatch_round", traced)
        patch.setattr(synchronizer, "dispatch_round", traced)
        try:
            outcome = simulate(graph, factory, adversity)
        except AdversityAbort as abort:
            outcome = ("abort", abort.rounds, abort.pending, abort.reason)
    scanned = dispatch.crash_node_rounds if reference else None
    return calls, outcome, adversity.crash_node_rounds, scanned


class TestCrashDispatchMatchesTheScan:
    """The crash path walks only the slots that can act, as the scan would.

    ``oracles.ScanDispatch`` visits every slot every round, as the crash
    path once did.  On random crash schedules both simulators must make the
    same protocol calls with the same slot lists, charge the same crash
    rounds and end the same way.
    """

    @SIMULATORS
    @pytest.mark.parametrize("protocol_class", [_CoinActor, _MailCoinActor],
                             ids=["every-slot", "message-driven"])
    def test_random_schedules(self, monkeypatch, simulate, protocol_class):
        deferred_starts = fail_stop = finished = 0
        for seed in range(40):
            graph = (ring_graph(10) if seed % 2
                     else make_topology("scale_free", 24, seed=seed))
            spec = _crash_schedule(seed, graph.num_nodes())
            runs = [
                _traced_crash_run(monkeypatch, simulate, graph, protocol_class,
                                  spec, seed, reference)
                for reference in (False, True)
            ]
            (calls, outcome, charged, _), (ref_calls, ref_outcome, _, scanned) = runs
            assert calls == ref_calls, seed
            assert outcome == ref_outcome, seed
            assert charged == scanned, seed
            first = calls.index(("round", 1)) if ("round", 1) in calls else len(calls)
            deferred_starts += any(call[0] == "on_start" for call in calls[first:])
            fail_stop += spec.crash_length >= spec.crash_period
            finished += not isinstance(outcome, tuple)
        # the schedules reach every case the walk has to get right
        assert deferred_starts and fail_stop and finished
