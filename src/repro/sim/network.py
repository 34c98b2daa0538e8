"""The synchronous point-to-point network.

The network delivers every message exactly one round after it was sent
(synchronous model, Section 2).  It validates that messages travel only over
existing links and charges every delivery to the shared
:class:`~repro.sim.metrics.MetricsRecorder`.

The network keeps no per-node state: in-flight mail lives in one
``receiver → inbox`` dict whose inboxes are created on a receiver's first
mail of the round, so its insertion order is first-mail order.  Link
validation reads the graph's CSR rows, and the connectivity check is the
graph's own, computed once per graph.  :meth:`PointToPointNetwork.deliver`
hands the whole dict over and starts a new one when every in-flight message
is ready (which in the synchronous round loop is always — sends happen
strictly before the next round's delivery).  Per-message filtering survives only as a slow path
for callers that pre-load future rounds, and for the adversity schedule.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.sim.errors import ProtocolError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.adversity import AdversityState
from repro.sim.events import Message
from repro.sim.metrics import MetricsRecorder
from repro.topology.graph import WeightedGraph

NodeId = Hashable

_new_tuple = tuple.__new__


class PointToPointNetwork:
    """Synchronous store-and-forward delivery over a fixed topology."""

    def __init__(
        self,
        graph: WeightedGraph,
        metrics: Optional[MetricsRecorder] = None,
        require_connected: bool = True,
        adversity: Optional["AdversityState"] = None,
    ) -> None:
        """Create a network over ``graph``.

        Args:
            graph: the point-to-point topology.
            metrics: shared complexity accountant; when omitted a private one
                is created (accessible via :attr:`metrics`).
            require_connected: the paper's model assumes a connected network;
                set to ``False`` only for targeted unit tests.
            adversity: optional adversity state; when attached, delivery
                applies the schedule's crash, churn, loss and delay faults
                (see :meth:`deliver`).

        Raises:
            TopologyError: if the graph is empty or (when required) not
                connected.
        """
        csr = graph.csr()
        if csr.n == 0:
            raise TopologyError("cannot build a network over an empty graph")
        if require_connected and not csr.is_connected():
            raise TopologyError("the point-to-point topology must be connected")
        self._graph = graph
        self._csr = csr
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        # receiver -> queued messages, in first-mail order; only receivers
        # with mail have an entry
        self._inboxes: Dict[NodeId, List[Message]] = {}
        self._in_flight = 0
        self._latest_round_sent = -1
        self._delivered_total = 0
        self._adversity = adversity
        if adversity is not None:
            adversity.bind_topology(graph)
            self._fault_rng = adversity.spawn_rng()
        else:
            self._fault_rng = None

    @property
    def graph(self) -> WeightedGraph:
        """Return the underlying topology."""
        return self._graph

    @property
    def num_nodes(self) -> int:
        """Return the number of processors ``n``."""
        return self._csr.n

    @property
    def num_links(self) -> int:
        """Return the number of point-to-point links ``m``."""
        return self._graph.num_edges()

    @property
    def delivered_total(self) -> int:
        """Return the number of messages delivered since construction."""
        return self._delivered_total

    def accept_sends(
        self,
        sender: NodeId,
        sends: Sequence[Tuple[NodeId, object]],
        round_index: int,
    ) -> None:
        """Accept the messages ``sender`` emits in ``round_index``.

        The messages will be delivered at the start of round
        ``round_index + 1``.

        Raises:
            ProtocolError: if a destination is not adjacent to ``sender``.
                The messages before it stay queued and counted, so a
                caller that catches the error still sees the one-round
                delivery delay; it and the rest are dropped.
        """
        csr = self._csr
        if csr.identity and sender.__class__ is int and 0 <= sender < csr.n:
            links: Collection[NodeId] = csr.targets[
                csr.offsets[sender]:csr.offsets[sender + 1]
            ]
        else:
            links = self._links(sender)
        if len(sends) > 1:
            # a hub's batch: one set build instead of a row scan per send
            links = set(links)
        inboxes = self._inboxes
        get_inbox = inboxes.get
        count = 0
        for receiver, payload in sends:
            if receiver not in links:
                self._queued(count, round_index)
                raise ProtocolError(
                    f"node {sender!r} attempted to send over a non-existent "
                    f"link to {receiver!r}"
                )
            message = _new_tuple(Message, (sender, receiver, payload, round_index))
            inbox = get_inbox(receiver)
            if inbox is None:
                inboxes[receiver] = [message]
            else:
                inbox.append(message)
            count += 1
        self._queued(count, round_index)

    def _links(self, sender: NodeId) -> Collection[NodeId]:
        """Return the neighbour labels of ``sender`` (empty if it is no node)."""
        csr = self._csr
        if csr.identity:
            if not self._graph.has_node(sender):
                return ()
            slot = int(sender)
            return csr.targets[csr.offsets[slot]:csr.offsets[slot + 1]]
        slot = csr.index_of.get(sender)
        if slot is None:
            return ()
        nodes = csr.nodes
        return [nodes[t] for t in csr.targets[csr.offsets[slot]:csr.offsets[slot + 1]]]

    def _queued(self, count: int, round_index: int) -> None:
        """Charge ``count`` newly queued messages sent in ``round_index``."""
        if count:
            self.metrics.record_messages(count)
            self._in_flight += count
            if round_index > self._latest_round_sent:
                self._latest_round_sent = round_index

    def deliver(self, round_index: int) -> Dict[NodeId, List[Message]]:
        """Return and clear the inboxes for the start of ``round_index``.

        Only messages sent in earlier rounds are delivered; in the
        synchronous model that is every in-flight message, so the common case
        hands the whole in-flight dict over (receivers in first-mail order)
        and starts a new one instead of filtering each message by its send
        round.

        With an adversity state attached, every due message runs the fault
        gauntlet instead: dropped when the receiver is crashed this round,
        when the link is inside a churn window, or on an independent loss
        draw; surviving messages may be deferred one round on an independent
        delay draw (re-drawn each round, so delays are geometric).  The
        fault-free path is untouched — zero adversity means the exact
        pre-adversity delivery semantics and randomness.
        """
        inboxes = self._inboxes
        if not inboxes:
            return {}
        if self._adversity is not None:
            return self._deliver_under_adversity(round_index)
        if self._latest_round_sent < round_index:
            # fast path: every queued message was sent in an earlier round
            self._inboxes = {}
            self._delivered_total += self._in_flight
            self._in_flight = 0
            return inboxes
        # slow path: some messages are stamped for this round or later
        # (only reachable by driving the network by hand in tests)
        delivered: Dict[NodeId, List[Message]] = {}
        kept_inboxes: Dict[NodeId, List[Message]] = {}
        count = 0
        for receiver, inbox in inboxes.items():
            ready = [msg for msg in inbox if msg.round_sent < round_index]
            if len(ready) < len(inbox):
                kept_inboxes[receiver] = [
                    msg for msg in inbox if msg.round_sent >= round_index
                ]
            if ready:
                delivered[receiver] = ready
                count += len(ready)
        self._inboxes = kept_inboxes
        self._in_flight -= count
        self._delivered_total += count
        return delivered

    def _deliver_under_adversity(self, round_index: int) -> Dict[NodeId, List[Message]]:
        """Delivery slow path applying the attached adversity schedule.

        Draw order is fixed — receivers in first-mail order, messages in
        inbox order, loss before delay — so a given substream seed always
        produces the same fault trace.
        """
        state = self._adversity
        spec = state.spec
        rng = self._fault_rng
        loss_rate = spec.loss_rate
        delay_rate = spec.delay_rate
        delivered: Dict[NodeId, List[Message]] = {}
        kept_inboxes: Dict[NodeId, List[Message]] = {}
        count = 0
        in_flight = 0
        for receiver, inbox in self._inboxes.items():
            ready: List[Message] = []
            kept: List[Message] = []
            receiver_crashed = state.node_crashed(receiver, round_index)
            for msg in inbox:
                if msg.round_sent >= round_index:
                    kept.append(msg)
                    continue
                if receiver_crashed:
                    state.count_drop()
                    continue
                if state.link_down(msg.sender, receiver, round_index):
                    state.count_drop()
                    continue
                if loss_rate and rng.random() < loss_rate:
                    state.count_drop()
                    continue
                if delay_rate and rng.random() < delay_rate:
                    state.count_delay()
                    kept.append(msg)
                    continue
                ready.append(msg)
            if kept:
                kept_inboxes[receiver] = kept
                in_flight += len(kept)
            if ready:
                delivered[receiver] = ready
                count += len(ready)
        self._inboxes = kept_inboxes
        self._in_flight = in_flight
        self._delivered_total += count
        return delivered

    def has_in_flight(self) -> bool:
        """Return ``True`` when undelivered messages remain in the network."""
        return bool(self._inboxes)
