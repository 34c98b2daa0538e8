"""The channel synchronizer of Section 7.1.

A synchronizer (Awerbuch, 1985) lets a synchronous algorithm run on an
asynchronous point-to-point network.  The paper observes that the multiaccess
channel gives a particularly cheap synchronizer:

* every algorithm message is acknowledged on the point-to-point link it
  arrived on;
* a node transmits a **busy tone** on the channel as long as any message it
  sent is still unacknowledged;
* an **idle** channel slot is interpreted as the clock pulse that starts the
  next simulated round.

Corollary 4 of the paper: the resulting execution at most doubles the message
complexity (because of the acknowledgements) and multiplies the time
complexity by at most a constant factor.  :class:`ChannelSynchronizer` runs a
synchronous :class:`~repro.sim.flyweight.FlyweightProtocol` over an
asynchronous network with bounded random link delays and reports both cost
measures so the experiment can verify the corollary empirically.  It is the
same engine shape as :class:`~repro.sim.multimedia.MultimediaNetwork`: one
pulse loop making one protocol call per pulse, which dispatches a
``MESSAGE_DRIVEN`` protocol only on the slots that received mail.

The synchronous algorithm may itself use the channel; following Section 7.2
we assume an FDMA-provided second channel for the busy tones, so algorithm
channel writes are resolved once per simulated round on the primary channel
and charged to the report's metrics, as a synchronous run charges its own.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.collector import collector_paused
from repro.sim.errors import AdversityAbort, ProtocolError, SimulationTimeout
from repro.sim.events import Message, idle_event
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.multimedia import ProtocolFactory, dispatch_round
from repro.sim.network import file_round
from repro.topology.graph import WeightedGraph

#: safety bound on a run's pulses; a fault-free run that reaches it has a
#: protocol bug
MAX_PULSES = 1_000_000


@dataclass
class SynchronizerReport:
    """Cost breakdown of one synchronized asynchronous execution.

    Attributes:
        pulses: number of simulated synchronous rounds generated.
        asynchronous_time: total asynchronous time units elapsed.
        algorithm_messages: point-to-point messages sent by the algorithm.
        ack_messages: acknowledgements added by the synchronizer.
        busy_tone_slots: channel slots occupied by busy tones.
        results: each node's declared output.
        metrics: the run's accountant, comparable with a
            :class:`~repro.sim.multimedia.MultimediaNetwork` run's: one round
            per pulse, the algorithm messages and acknowledgements, and the
            algorithm's channel, one slot per pulse.
    """

    pulses: int
    asynchronous_time: float
    algorithm_messages: int
    ack_messages: int
    busy_tone_slots: int
    results: Dict[int, Any]
    metrics: MetricsSnapshot

    @property
    def total_messages(self) -> int:
        """Algorithm messages plus acknowledgements."""
        return self.algorithm_messages + self.ack_messages

    @property
    def message_overhead_factor(self) -> float:
        """Ratio of total to algorithm messages (Corollary 4 bounds this by 2)."""
        if self.algorithm_messages == 0:
            return 1.0
        return self.total_messages / self.algorithm_messages


class ChannelSynchronizer:
    """Run a synchronous protocol on an asynchronous network using the channel."""

    def __init__(
        self,
        graph: WeightedGraph,
        max_link_delay: int = 3,
        *,
        seed: int,
    ) -> None:
        """Create a synchronizer over ``graph``.

        Args:
            graph: the point-to-point topology.
            max_link_delay: every message (and acknowledgement) experiences an
                integer delay drawn uniformly from ``[1, max_link_delay]``
                asynchronous time units.
            seed: master seed of the link-delay draws.

        Raises:
            ValueError: if ``max_link_delay`` is not an ``int`` of at least 1
                (a ``bool`` is refused too).
        """
        if (
            isinstance(max_link_delay, bool)
            or not isinstance(max_link_delay, int)
            or max_link_delay < 1
        ):
            raise ValueError(
                f"max_link_delay must be an integer of at least 1, "
                f"got {max_link_delay!r}"
            )
        self._graph = graph
        self._max_delay = max_link_delay
        self._seed = seed

    @collector_paused
    def run(
        self,
        protocol_factory: ProtocolFactory,
        adversity: Optional[AdversityState] = None,
    ) -> SynchronizerReport:
        """Execute the protocol until every node halts.

        Asynchronous time is an integer clock.  Every delay is an integer in
        ``[1, max_link_delay]`` and every event is scheduled from an integer
        time, so the in-flight state is two maps keyed by arrival time: the
        messages delivered then, in schedule order, and the number of
        acknowledgements arriving then (an acknowledgement only lowers the
        busy tone, so a count is enough).  After a pulse the clock walks the
        due times in order until nothing is in flight; every slot before the
        last due time carries the busy tone, and the last one is idle and
        generates the next pulse.  Each delay is drawn with the rejection
        loop ``randint(1, max_link_delay)`` runs on ``getrandbits``, so the
        delay stream is the one the seed has always produced.

        Each pulse is one protocol call, like a round of
        :class:`~repro.sim.multimedia.MultimediaNetwork`, and the pulse's
        sends go through the network's checked filing pass
        (:func:`~repro.sim.network.file_round`) after their delay draws,
        so a send over a non-existent link raises the same
        :class:`~repro.sim.errors.ProtocolError` on both simulators.  The
        busy-tone accounting, the channel resolution point and the
        delay-draw order (acting slots in node order, messages in send
        order, acknowledgements in delivery order) are fixed by the slot
        order.  A ``MESSAGE_DRIVEN`` protocol is dispatched only on the
        slots whose inbox received mail since their last dispatch (the keys
        of the inbox dict the deliveries fill, created on first mail and
        taken whole at each pulse) — profiling e10 at n = 102400 showed
        ~2 × 10⁸ empty-inbox visits, which this removes wholesale.  Crash
        windows keep it so: each pulse reads its crashed set once
        (:meth:`~repro.sim.adversity.AdversityState.crash_round`), which
        holds back the crashed slots' inboxes and goes to the dispatch,
        and the dispatch adds only the slots whose node started the run
        crashed and has not started yet.

        With an ``adversity`` state attached, the schedule's faults apply at
        this layer's natural seams: a crashed node skips its pulses (its
        inbox buffers until recovery; link-level acknowledgements still
        flow), a lost or churn-dropped message is never delivered — and,
        because its acknowledgement is then never sent, the busy tone stays
        up forever, which the run detects as a deadlock and converts into an
        :class:`~repro.sim.errors.AdversityAbort` instead of spinning — and
        the pulse budget shrinks to the schedule's round budget.  A run that
        finishes on exactly its last budgeted pulse has finished.

        Raises:
            ProtocolError: if a node sends over a non-existent link.
            SimulationTimeout: if the pulse budget (:data:`MAX_PULSES`) is exhausted.
            AdversityAbort: if an adversity schedule deadlocks the busy tone
                or exhausts the budget.
        """
        adv = adversity
        loss_rng: Optional[random.Random] = None
        max_pulses = MAX_PULSES
        if adv is not None:
            adv.bind_topology(self._graph)
            loss_rng = adv.spawn_rng()
            max_pulses = min(max_pulses, adv.round_budget(self._graph.num_nodes()))
        # the delay stream derivation is load-bearing: every seeded
        # synchronizer result depends on it, so it stays a master draw
        master = random.Random(self._seed)
        getrandbits = random.Random(master.randrange(2**63)).getrandbits
        max_delay = self._max_delay
        bits = max_delay.bit_length()

        csr = self._graph.csr()
        protocol: FlyweightProtocol = protocol_factory(csr)
        # the slots whose node starts the run crashed, until they start
        deferred = set() if adv is not None and adv.has_crash_windows else None
        crashed = None
        sends = protocol._sends
        channel_writes = protocol._writes

        recorder = MetricsRecorder()
        channel = SlottedChannel(
            metrics=recorder,
            adversity=adv.channel_adversity() if adv is not None else None,
        )
        # arrival time → the messages delivered then, in schedule order, and
        # arrival time → the acknowledgements arriving then; every event is
        # due 1..max_delay after the time it was scheduled at
        mail_due: Dict[int, List[Message]] = {}
        acks_due: Dict[int, int] = {}
        # receiver slot → mail delivered since its last dispatch; an inbox is
        # created on first mail, so the keys are exactly the slots with mail
        # (the message-driven fast path dispatches them instead of every slot)
        pending_inbox: Dict[int, List[Message]] = {}
        now = 0
        algorithm = 0  # messages sent
        acked = 0  # acknowledgements arrived
        busy_slots = 0

        def accept(pulse: int, at: int) -> int:
            """Accept the pulse's sends, scheduled from time ``at``.

            One delay draw per message in send order, then the network's
            checked filing pass into the arrival-time buckets.  Clears the
            send buffer and returns the number of messages sent.
            """
            due = []
            for _ in sends:
                r = getrandbits(bits)
                while r >= max_delay:
                    r = getrandbits(bits)
                due.append(at + 1 + r)
            filed = file_round(csr, sends, pulse, due, mail_due)
            if filed < len(sends):
                sender, receiver, _ = sends[filed]
                raise ProtocolError(
                    f"node {sender} attempted to send over a non-existent link to {receiver!r}"
                )
            del sends[:]
            return filed

        # pulse 0: on_start (deferred past the crash window for a node that
        # starts the run crashed — it joins at its first up pulse)
        if deferred is not None:
            crashed = adv.crash_round(0, protocol.halted)
        dispatch_round(protocol, {}, idle_event(-1), 0, crashed, deferred)
        if sends:
            algorithm += accept(0, now)
        pulses = 1

        while pulses < max_pulses:
            if protocol.active_count == 0 and not mail_due and not acks_due:
                break
            # run the clock to the next idle slot, walking the due times in
            # order: the busy tone is up while anything is in flight
            start = now
            while mail_due or acks_due:
                now = min([*mail_due, *acks_due])
                delivered = mail_due.pop(now, None)
                if delivered is not None:
                    for message in delivered:
                        if adv is not None and adv.drop_message(
                            loss_rng, message.sender, message.receiver, pulses
                        ):
                            # lost in transit: never delivered, never
                            # acknowledged
                            continue
                        receiver = message.receiver
                        inbox = pending_inbox.get(receiver)
                        if inbox is None:
                            pending_inbox[receiver] = [message]
                        else:
                            inbox.append(message)
                        # the acknowledgement travels back over the link
                        r = getrandbits(bits)
                        while r >= max_delay:
                            r = getrandbits(bits)
                        due = now + 1 + r
                        acks_due[due] = acks_due.get(due, 0) + 1
                acked += acks_due.pop(now, 0)
            # the slot of the last due time is idle (with nothing in flight,
            # the next slot is), and every slot before it is busy
            now = max(now, start + 1)
            busy_slots += now - start - 1
            if acked < algorithm:
                # nothing is due, yet a dropped message's acknowledgement
                # will never arrive: the busy tone would stay up forever
                raise AdversityAbort(
                    pulses,
                    protocol.active_count,
                    reason="busy-tone deadlock (lost message)",
                )
            # idle slot observed: generate the next pulse
            event = channel.resolve_slot(pulses - 1, channel_writes)
            if channel_writes:
                del channel_writes[:]
            # take every inbox at once: deliveries only happen while the
            # clock runs, never during dispatch
            mail = pending_inbox
            pending_inbox = {}
            if deferred is not None:
                # a crashed node's inbox buffers until it recovers
                crashed = adv.crash_round(pulses, protocol.halted)
                for slot, inbox in mail.items():
                    if slot in crashed:
                        pending_inbox[slot] = inbox
            dispatch_round(protocol, mail, event, pulses, crashed, deferred)
            if sends:
                algorithm += accept(pulses, now)
            pulses += 1
        else:
            pending = protocol.active_count
            if pending or mail_due or acks_due:
                if adv is not None:
                    raise AdversityAbort(max_pulses, pending)
                raise SimulationTimeout(max_pulses, pending)
        # the final pulse's channel slot: every earlier one resolved at the
        # idle slot that generated the next pulse
        channel.resolve_slot(pulses - 1, channel_writes)
        recorder.record_round(pulses)
        recorder.record_messages(algorithm + acked)

        return SynchronizerReport(
            pulses=pulses,
            asynchronous_time=float(now),
            algorithm_messages=algorithm,
            # the run ends with nothing in flight: every acknowledgement
            # sent has arrived
            ack_messages=acked,
            busy_tone_slots=busy_slots,
            results=protocol.results_by_node(),
            metrics=recorder.snapshot(),
        )
