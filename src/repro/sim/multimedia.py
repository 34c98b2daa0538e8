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
   slots to dispatch, their inboxes and the previous channel slot's event.  Those are the slots with mail for a ``MESSAGE_DRIVEN``
   protocol and every slot otherwise; under crash windows a scan picks them
   and may split the round into a few calls (:func:`dispatch_round`);
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
environment wraps the graph's CSR view, and the network holds inboxes
only for receivers with mail.

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
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.collector import collector_paused
from repro.sim.errors import AdversityAbort, SimulationTimeout
from repro.sim.events import ChannelEvent, Message, idle_event
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.network import PointToPointNetwork
from repro.sim.substreams import NodeStreams
from repro.topology.graph import WeightedGraph

ProtocolFactory = Callable[[FlyweightEnvironment], FlyweightProtocol]

DEFAULT_MAX_ROUNDS = 1_000_000

#: Substream scope for per-node random sources in synchronous runs (the
#: synchronizer uses its own scope so the two sims never correlate).
STREAM_SCOPE = "sim.multimedia"


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

    def __init__(
        self,
        graph: WeightedGraph,
        seed: Optional[int] = None,
    ) -> None:
        """Create a multimedia network.

        Args:
            graph: the point-to-point topology; all its nodes are also
                attached to the multiaccess channel.
            seed: master seed from which per-node private random sources are
                derived (deterministic given the seed).
        """
        self._graph = graph
        self._seed = seed
        # the per-node substream family: cheap, stateless, shared by every
        # run on this object (see repro.sim.substreams)
        self._streams = NodeStreams(seed, STREAM_SCOPE)

    @collector_paused
    def run(
        self,
        protocol_factory: ProtocolFactory,
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional[AdversityState] = None,
    ) -> SimulationResult:
        """Run one shared protocol instance over every node until all halt.

        Each round is one protocol call over the slots to dispatch, in node
        order; the round's sends are accepted as one batch, and the channel
        slot resolves once after all nodes acted.  A ``MESSAGE_DRIVEN``
        protocol is dispatched only on the slots that received mail — a
        no-op skip by the declaration, and the flat win at scale.  Under an
        adversity schedule with crash windows, every round scans the slots
        (:func:`dispatch_round`) so crash skips and deferred starts follow
        one fixed order.

        Args:
            protocol_factory: the :class:`~repro.sim.flyweight.FlyweightProtocol`
                class (or any callable building one from the run's
                :class:`~repro.sim.flyweight.FlyweightEnvironment`).
            max_rounds: safety bound; exceeded means a protocol bug.
            metrics: an externally owned recorder to charge (used when an
                algorithm composes several runs); a fresh one is created
                otherwise.
            adversity: optional adversity state.  Faults are applied at the
                network/channel layer; a node inside a crash window neither
                observes nor acts, and its pending ``on_start`` is deferred
                to its first up round.  The run is bounded by the schedule's
                round budget (capped by ``max_rounds``) and by a stall
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
        env = FlyweightEnvironment(self._graph.csr(), self._streams)
        protocol: FlyweightProtocol = protocol_factory(env)

        deliver = network.deliver
        accept_round = network.accept_round
        resolve_slot = channel.resolve_slot
        record_round = recorder.record_round
        num_slots = env.num_slots
        sends = protocol._sends
        writes = protocol._writes

        if adversity is None:
            budget = max_rounds
            started = None
        else:
            budget = min(max_rounds, adversity.round_budget(num_slots))
            patience = adversity.stall_patience()
            started = bytearray(num_slots)
        quiet_streak = 0

        last_event: ChannelEvent = idle_event(-1)
        rounds_used = 0
        for round_index in range(budget):
            if protocol.active_count == 0 and not network.has_in_flight():
                break

            inboxes = deliver(round_index)
            dispatch_round(protocol, inboxes, last_event, round_index,
                           adversity, started)
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
                    raise SimulationTimeout(max_rounds, pending)
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
    adversity: Optional[AdversityState],
    started: Optional[bytearray],
) -> None:
    """Make one round's (or pulse's) protocol calls, in slot order.

    Without crash windows, round 0 is one ``on_start`` call for every slot,
    and each later round one ``on_round`` call: for every slot, or for a
    ``MESSAGE_DRIVEN`` protocol the slots with mail only (none, no call).

    With crash windows, the slots are scanned.  Halted slots are skipped,
    and a slot whose node is inside a crash window is skipped and charged
    one crash round.  The rest go to the protocol in as few calls as keep
    them in slot order: a run of slots that start now (their first up
    round, marked in ``started``) is one ``on_start`` call, and a run of
    started slots is one ``on_round`` call (the slots with mail only, for a
    ``MESSAGE_DRIVEN`` protocol).  A starting slot with mail joins the next
    ``on_round`` call.
    """
    message_driven = protocol.MESSAGE_DRIVEN
    if adversity is None or not adversity.has_crash_windows:
        # every node starts in round 0 and is up ever after
        if not round_index:
            protocol.on_start(range(protocol.env.num_slots))
        elif not message_driven:
            protocol.on_round(range(protocol.env.num_slots), inboxes, event)
        elif inboxes:
            protocol.on_round(sorted(inboxes), inboxes, event)
        return
    halted = protocol.halted
    crashed = adversity.crashed_nodes(round_index)
    starting: List[int] = []
    batch: List[int] = []
    for slot in range(protocol.env.num_slots):
        if halted[slot]:
            continue
        if slot in crashed:
            adversity.count_crash_round()
            continue
        if not started[slot]:
            started[slot] = 1
            if batch:
                protocol.on_round(batch, inboxes, event)
                batch = []
            starting.append(slot)
            if slot in inboxes:
                protocol.on_start(starting)
                starting = []
                batch.append(slot)
        elif not message_driven or slot in inboxes:
            if starting:
                protocol.on_start(starting)
                starting = []
            batch.append(slot)
    if starting:
        protocol.on_start(starting)
    if batch:
        protocol.on_round(batch, inboxes, event)
