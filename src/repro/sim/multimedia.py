"""The multimedia network: synchronous point-to-point network + slotted channel.

This module contains the simulation driver used by every algorithm in the
library.  One *time unit* advances both media: each node may send one message
per incident link (delivered next round) and may attempt one write to the
current channel slot (whose idle/success/collision outcome every node
observes at the start of the next round).

Protocols are flyweights (:mod:`repro.sim.flyweight`): one shared instance
holds every node's state in slot-indexed columns, slot = node order.

Round semantics (batched delivery)
----------------------------------

Each round of :meth:`MultimediaNetwork.run` makes one protocol call for the
*active* (non-halted, non-crashed) slots, in slot order:

1. the network hands over every inbox in one batch, keyed by receiver slot
   — all messages sent in round ``r − 1`` are delivered together at the
   start of round ``r``
   (:meth:`~repro.sim.network.PointToPointNetwork.deliver` hands its whole
   in-flight dict over rather than filtering message by message);
2. round 0 is the start pulse, one
   :meth:`~repro.sim.flyweight.FlyweightProtocol.on_start` call; every
   later round is one
   :meth:`~repro.sim.flyweight.FlyweightProtocol.on_round` call with the
   slots to dispatch, their inboxes and the previous channel slot's event.
   Those are the slots with mail for a ``MESSAGE_DRIVEN`` protocol and
   every slot otherwise.  Under crash windows the crashed slots drop out,
   a slot whose node started the run crashed is started at its first up
   round, and the round may split into a few calls; a ``MESSAGE_DRIVEN``
   round still visits only the slots with mail and those deferred starts
   (:func:`dispatch_round`), so a crash run costs what a fault-free one
   does;
3. the round's send buffer — each send tagged with its sender slot, in slot
   order — is accepted for round ``r + 1`` in one checked pass
   (:meth:`~repro.sim.network.PointToPointNetwork.accept_round`), and the
   round's channel writes join the current slot;
4. the slot resolves once after every node has acted, so no node sees the
   current slot's outcome early.

Slots that halt leave the dispatch but keep receiving (and dropping) late
traffic; the loop keeps running — resolving idle slots — until the last
in-flight message has drained.

A run allocates nothing per node beyond the protocol's own columns: the
protocol reads the graph's CSR view in place, and the network holds
inboxes only for receivers with mail.

The run loop holds the cyclic garbage collector
(:func:`~repro.sim.collector.collector_paused`).  A wide round allocates a
send tuple, a stamped :class:`~repro.sim.events.Message` and an inbox
entry per message, all freed by reference counting a round later, and
the collector's passes over them — full ones included — cost a quarter
of a scale-free aggregation's CPU time while finding nothing to free.
The collector is back on when the run returns or raises, unless the
caller had it off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.collector import collector_paused
from repro.sim.errors import AdversityAbort, SimulationTimeout
from repro.sim.events import ChannelEvent, Message, idle_event
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.network import PointToPointNetwork
from repro.topology.graph import CSRView, WeightedGraph

ProtocolFactory = Callable[[CSRView], FlyweightProtocol]

#: safety bound on a run's rounds; a fault-free run that reaches it has a
#: protocol bug
MAX_ROUNDS = 1_000_000


@dataclass
class SimulationResult:
    """The outcome of one simulation run.

    Attributes:
        rounds: number of time units elapsed until every node halted.
        metrics: snapshot of the shared complexity accountant.
        results: each node's declared local output.
    """

    rounds: int
    metrics: MetricsSnapshot
    results: Dict[int, Any]


class MultimediaNetwork:
    """A multimedia network over a fixed point-to-point topology.

    The object can be reused for several runs; each run gets a fresh protocol
    instance and (unless a shared recorder is supplied per run) a fresh
    :class:`MetricsRecorder`.  The graph is immutable, so every run sees
    the same topology.
    """

    def __init__(self, graph: WeightedGraph) -> None:
        """Create a multimedia network over ``graph``.

        All of the point-to-point topology's nodes are also attached to the
        multiaccess channel.  Nothing here is random: a run's only draws
        are the adversity schedule's, from its own substreams.
        """
        self._graph = graph

    @collector_paused
    def run(
        self,
        protocol_factory: ProtocolFactory,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional[AdversityState] = None,
    ) -> SimulationResult:
        """Run one shared protocol instance over every node until all halt.

        Each round is one protocol call over the slots to dispatch, in node
        order; the round's sends are accepted as one batch, and the channel
        slot resolves once after all nodes acted.  A ``MESSAGE_DRIVEN``
        protocol is dispatched only on the slots that received mail — a
        no-op skip by the declaration, and the flat win at scale.  Under an
        adversity schedule with crash windows, each round first reads its
        crashed set and charges the crash rounds
        (:meth:`~repro.sim.adversity.AdversityState.crash_round`); the
        dispatch (:func:`dispatch_round`) then skips the crashed slots and
        starts the deferred ones in slot order, still visiting only the
        slots with mail and the deferred starts for a ``MESSAGE_DRIVEN``
        protocol.

        Args:
            protocol_factory: the :class:`~repro.sim.flyweight.FlyweightProtocol`
                class (or any callable building one from the graph's
                :class:`~repro.topology.graph.CSRView`).
            metrics: an externally owned recorder to charge (used when an
                algorithm composes several runs); a fresh one is created
                otherwise.
            adversity: optional adversity state.  Faults are applied at the
                network/channel layer; a node inside a crash window neither
                observes nor acts, and its pending ``on_start`` is deferred
                to its first up round.  The run is bounded by the schedule's
                round budget (capped by :data:`MAX_ROUNDS`) and by a stall
                detector: after ``stall_patience()`` consecutive rounds with
                no deliveries, no actions and an un-jammed idle slot, only
                further fault draws could change anything, so it aborts.

        Returns:
            A :class:`SimulationResult`.

        Raises:
            SimulationTimeout: if the protocols do not all halt in time.
            AdversityAbort: if an adversity schedule keeps the run from
                terminating within its budget (or it stalls).
        """
        recorder = metrics if metrics is not None else MetricsRecorder()
        network = PointToPointNetwork(
            self._graph, metrics=recorder, adversity=adversity
        )
        channel = SlottedChannel(
            metrics=recorder,
            adversity=adversity.channel_adversity() if adversity is not None else None,
        )
        protocol: FlyweightProtocol = protocol_factory(self._graph.csr())

        deliver = network.deliver
        accept_round = network.accept_round
        resolve_slot = channel.resolve_slot
        record_round = recorder.record_round
        sends = protocol._sends
        writes = protocol._writes

        crashed = deferred = None
        if adversity is None:
            budget = MAX_ROUNDS
        else:
            budget = min(MAX_ROUNDS, adversity.round_budget(protocol.csr.n))
            patience = adversity.stall_patience()
            if adversity.has_crash_windows:
                deferred = set()
                crash_round = adversity.crash_round
                halted = protocol.halted
        quiet_streak = 0

        last_event: ChannelEvent = idle_event(-1)
        rounds_used = 0
        for round_index in range(budget):
            if protocol.active_count == 0 and not network.has_in_flight():
                break

            inboxes = deliver(round_index)
            if deferred is not None:
                crashed = crash_round(round_index, halted)
            dispatch_round(protocol, inboxes, last_event, round_index,
                           crashed, deferred)
            acted_any = bool(sends) or bool(writes)
            if sends:
                accept_round(sends, round_index)
                del sends[:]
            last_event = resolve_slot(round_index, writes)
            if writes:
                del writes[:]
            record_round(1)
            rounds_used = round_index + 1

            if adversity is None:
                continue
            if inboxes or acted_any or not last_event.is_idle():
                quiet_streak = 0
            else:
                quiet_streak += 1
                if quiet_streak > patience:
                    pending = protocol.active_count
                    if pending == 0:
                        # everything halted; only undeliverable stragglers
                        # keep the network "in flight" — that is completion
                        break
                    raise AdversityAbort(
                        rounds_used, pending, reason="stalled (no progress)"
                    )
        else:
            # a run that finishes on exactly its last budgeted round has
            # finished
            pending = protocol.active_count
            if adversity is None:
                if pending or network.has_in_flight():
                    raise SimulationTimeout(budget, pending)
            elif pending:
                raise AdversityAbort(budget, pending)

        return SimulationResult(
            rounds=rounds_used,
            metrics=recorder.snapshot(),
            results=protocol.results_by_node(),
        )


def dispatch_round(
    protocol: FlyweightProtocol,
    inboxes: Mapping[int, Sequence[Message]],
    event: ChannelEvent,
    round_index: int,
    crashed: Optional[Set[int]],
    deferred: Optional[Set[int]],
) -> None:
    """Make one round's (or pulse's) protocol calls, in slot order.

    Without crash windows (``crashed`` is ``None``), round 0 is one
    ``on_start`` call for every slot, and each later round one ``on_round``
    call: for every slot, or for a ``MESSAGE_DRIVEN`` protocol the slots
    with mail only (none, no call).

    With crash windows, ``crashed`` holds the round's crashed nodes and
    ``deferred`` the slots whose node was crashed in round 0 and has not
    started yet.  Round 0 starts every slot that is neither halted nor
    crashed in one ``on_start`` call and defers the crashed ones.  A later
    round walks, in slot order, every slot, or for a ``MESSAGE_DRIVEN``
    protocol the slots with mail and the deferred ones: any other slot is a
    no-op for it.  Halted and crashed slots are skipped.  The rest go to the
    protocol in as few calls as keep them in slot order: a run of deferred
    slots that start now is one ``on_start`` call, and a run of started
    slots is one ``on_round`` call.  A starting slot with mail joins the
    next ``on_round`` call.
    """
    message_driven = protocol.MESSAGE_DRIVEN
    if crashed is None:
        # every node starts in round 0 and is up ever after
        if not round_index:
            protocol.on_start(range(protocol.csr.n))
        elif not message_driven:
            protocol.on_round(range(protocol.csr.n), inboxes, event)
        elif inboxes:
            protocol.on_round(sorted(inboxes), inboxes, event)
        return
    num_slots = protocol.csr.n
    halted = protocol.halted
    if not round_index:
        deferred.update(slot for slot in crashed if not halted[slot])
        starting = [
            slot for slot in range(num_slots)
            if not halted[slot] and slot not in crashed
        ]
        if starting:
            protocol.on_start(starting)
        return
    slots: Iterable[int] = (
        sorted(inboxes.keys() | deferred) if message_driven else range(num_slots)
    )
    starting = []
    batch: List[int] = []
    for slot in slots:
        if halted[slot] or slot in crashed:
            continue
        if slot in deferred:
            deferred.remove(slot)
            if batch:
                protocol.on_round(batch, inboxes, event)
                batch = []
            starting.append(slot)
            if slot in inboxes:
                protocol.on_start(starting)
                starting = []
                batch.append(slot)
        else:
            if starting:
                protocol.on_start(starting)
                starting = []
            batch.append(slot)
    if starting:
        protocol.on_start(starting)
    if batch:
        protocol.on_round(batch, inboxes, event)
