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
pulse loop over the protocol's slots, which under no adversity dispatches a
``MESSAGE_DRIVEN`` protocol only on the slots that received mail.

The synchronous algorithm may itself use the channel; following Section 7.2
we assume an FDMA-provided second channel for the busy tones, so algorithm
channel writes are resolved once per simulated round on the primary channel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.engine import EventQueue
from repro.sim.errors import AdversityAbort, SimulationTimeout
from repro.sim.events import NO_MESSAGES, Message
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.multimedia import ProtocolFactory, topology_environment
from repro.sim.substreams import NodeStreams
from repro.topology.graph import WeightedGraph

NodeId = Hashable

#: Substream scope for per-node random sources under the synchronizer (kept
#: distinct from the synchronous sim's scope so a shared master seed never
#: hands the two layers correlated per-node streams).
STREAM_SCOPE = "sim.synchronizer"


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
    """

    pulses: int
    asynchronous_time: float
    algorithm_messages: int
    ack_messages: int
    busy_tone_slots: int
    results: Dict[NodeId, Any]

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
        seed: Optional[int] = None,
        n_known: bool = True,
    ) -> None:
        """Create a synchronizer over ``graph``.

        Args:
            graph: the point-to-point topology.
            max_link_delay: every message (and acknowledgement) experiences an
                integer delay drawn uniformly from ``[1, max_link_delay]``
                asynchronous time units.
            seed: master seed for delays and per-node random sources.
            n_known: whether nodes are told ``n``.
        """
        if max_link_delay < 1:
            raise ValueError("max_link_delay must be at least 1")
        self._graph = graph
        self._max_delay = max_link_delay
        self._seed = seed
        self._n_known = n_known

    def run(
        self,
        protocol_factory: ProtocolFactory,
        inputs: Optional[Dict[NodeId, Dict[str, Any]]] = None,
        max_pulses: int = 1_000_000,
        adversity: Optional[AdversityState] = None,
    ) -> SynchronizerReport:
        """Execute the protocol until every node halts.

        The busy-tone accounting, the channel resolution point and the
        delay-draw order (acting slots in node order, messages in send
        order) are fixed by the slot order.  Without adversity, a
        ``MESSAGE_DRIVEN`` protocol is dispatched only on the slots whose
        inbox received mail since their last dispatch (tracked by a dirty
        list the delivery callback maintains) — profiling e10 at n = 102400
        showed ~2 × 10⁸ empty-inbox dispatch calls, which this removes
        wholesale.

        With an ``adversity`` state attached, the schedule's faults apply at
        this layer's natural seams: a crashed node skips its pulses (its
        inbox buffers until recovery; link-level acknowledgements still
        flow), a lost or churn-dropped message is never delivered — and,
        because its acknowledgement is then never sent, the busy tone stays
        up forever, which the run detects as a deadlock and converts into an
        :class:`~repro.sim.errors.AdversityAbort` instead of spinning — and
        the pulse budget shrinks to the schedule's round budget.

        Raises:
            SimulationTimeout: if the pulse budget is exhausted.
            AdversityAbort: if an adversity schedule deadlocks the busy tone
                or exhausts the budget.
        """
        adv = adversity
        loss_rng: Optional[random.Random] = None
        if adv is not None:
            adv.bind_topology(self._graph)
            loss_rng = adv.spawn_rng()
            max_pulses = min(max_pulses, adv.round_budget(self._graph.num_nodes()))
        # the delay stream derivation is load-bearing: it predates the
        # per-node substream family and every seeded synchronizer result
        # depends on it, so it stays a master draw
        master = random.Random(self._seed)
        delay_rng = random.Random(master.randrange(2**63))

        env = topology_environment(
            self._graph, self._n_known, NodeStreams(self._seed, STREAM_SCOPE)
        )
        env.inputs = inputs if inputs is not None else {}
        protocol: FlyweightProtocol = protocol_factory(env)
        message_driven = protocol.MESSAGE_DRIVEN
        nodes = env.nodes
        slot_of = env.slot_of
        num_slots = env.num_slots
        halted = protocol.halted
        on_start = protocol.on_start
        on_round = protocol.on_round
        sends = protocol._sends
        channel_writes = protocol._writes
        max_delay = self._max_delay

        queue = EventQueue()
        channel = SlottedChannel(
            adversity=adv.channel_adversity() if adv is not None else None
        )
        pending_inbox: Dict[NodeId, List[Message]] = {node: [] for node in nodes}
        # slots whose inbox went empty → non-empty since their last dispatch
        # (the message-driven fast path walks this instead of every node)
        mail_nodes: List[NodeId] = []
        counters = {"algorithm": 0, "ack": 0, "busy_slots": 0, "unacked": 0}
        schedule = queue.schedule

        def deliver(message: Message) -> None:
            """Deliver one link message (or lose it) and schedule its ack."""
            if adv is not None and adv.drop_message(
                loss_rng, message.sender, message.receiver, pulses
            ):
                # lost in transit: never delivered, never acknowledged
                return
            inbox = pending_inbox[message.receiver]
            if not inbox:
                mail_nodes.append(message.receiver)
            inbox.append(message)
            # acknowledgement travels back over the same link
            counters["ack"] += 1
            schedule(delay_rng.randint(1, max_delay), ack)

        def ack() -> None:
            """Count one acknowledgement arrival (lowers the busy tone)."""
            counters["unacked"] -= 1

        def dispatch_sends(node: NodeId, pulse: int) -> None:
            """Schedule one slot's queued sends and clear the shared buffer.

            Delay draws happen in send order.
            """
            counters["algorithm"] += len(sends)
            counters["unacked"] += len(sends)
            randint = delay_rng.randint
            for receiver, payload in sends:
                schedule(
                    randint(1, max_delay),
                    deliver,
                    Message(node, receiver, payload, pulse),
                )
            del sends[:]

        # pulse 0: on_start (deferred past the crash window for a node that
        # starts the run crashed — it joins at its first up pulse)
        pulses = 0
        started = bytearray(num_slots)
        for slot in range(num_slots):
            if halted[slot]:
                continue
            node = nodes[slot]
            if adv is not None and adv.node_crashed(node, 0):
                adv.count_crash_round()
                continue
            started[slot] = 1
            on_start(slot)
            if sends:
                dispatch_sends(node, 0)
        pulses = 1

        fast_path = adv is None and message_driven
        while pulses < max_pulses:
            if protocol.active_count == 0 and queue.is_empty():
                break
            # advance asynchronous time one slot at a time; the busy tone is
            # raised while any message remains unacknowledged or in flight.
            # Event times are integral (integer delays from integral starts),
            # so a stretch of slots with no events is uniformly busy and can
            # be accounted for in one arithmetic jump.
            while True:
                if adv is not None and counters["unacked"] > 0 and queue.is_empty():
                    # a dropped message's acknowledgement will never arrive,
                    # so the busy tone would stay up forever
                    raise AdversityAbort(
                        pulses,
                        protocol.active_count,
                        reason="busy-tone deadlock (lost message)",
                    )
                next_time = queue.peek_time()
                if next_time is not None:
                    dead = int(next_time - queue.now) - 1
                    if dead > 0:
                        # the stretch is known event-free, so the clock jumps
                        # over it in O(1) instead of walking slot by slot
                        counters["busy_slots"] += dead
                        queue.fast_forward(queue.now + dead)
                slot_end = queue.now + 1.0
                queue.run_until(slot_end)
                if counters["unacked"] > 0 or not queue.is_empty():
                    counters["busy_slots"] += 1
                else:
                    break
            # idle slot observed: generate the next pulse
            event = channel.resolve_slot(pulses - 1, channel_writes)
            if channel_writes:
                del channel_writes[:]
            public = event.public_view()
            if fast_path:
                if mail_nodes:
                    # slot (= node) order keeps the delay-draw order of a
                    # full scan
                    order = sorted(slot_of[node] for node in mail_nodes)
                    del mail_nodes[:]
                    for slot in order:
                        if halted[slot]:
                            # halted nodes keep absorbing (and ignoring) mail
                            continue
                        node = nodes[slot]
                        inbox = pending_inbox[node]
                        pending_inbox[node] = []
                        on_round(slot, inbox, public)
                        if sends:
                            dispatch_sends(node, pulses)
            else:
                for slot in range(num_slots):
                    if halted[slot]:
                        continue
                    node = nodes[slot]
                    if adv is not None:
                        if adv.node_crashed(node, pulses):
                            adv.count_crash_round()
                            continue
                        if not started[slot]:
                            # first up pulse after starting the run crashed
                            started[slot] = 1
                            on_start(slot)
                            inbox = pending_inbox[node]
                            if inbox:
                                pending_inbox[node] = []
                                on_round(slot, inbox, public)
                            if sends:
                                dispatch_sends(node, pulses)
                            continue
                    inbox = pending_inbox[node]
                    if inbox:
                        pending_inbox[node] = []
                        on_round(slot, inbox, public)
                    elif not message_driven:
                        on_round(slot, NO_MESSAGES, public)
                    if sends:
                        dispatch_sends(node, pulses)
            pulses += 1
        else:
            pending = protocol.active_count
            if adv is not None:
                raise AdversityAbort(max_pulses, pending)
            raise SimulationTimeout(max_pulses, pending)

        return SynchronizerReport(
            pulses=pulses,
            asynchronous_time=queue.now,
            algorithm_messages=counters["algorithm"],
            ack_messages=counters["ack"],
            busy_tone_slots=counters["busy_slots"],
            results=protocol.results_by_node(),
        )
