"""Per-node reference protocols, run on the simulators' flyweight loops.

The simulators (:mod:`repro.sim.multimedia`, :mod:`repro.sim.synchronizer`)
drive one shared :class:`~repro.sim.flyweight.FlyweightProtocol` per run.
The per-node form — one :class:`NodeProtocol` instance per processor,
holding only that processor's state — is the plain reading of the paper's
model, so it is kept here as a test oracle: :func:`per_node` wraps a
per-node protocol class in :class:`PerNode`, a flyweight that holds one
instance per slot and forwards each instance's sends, channel write and halt
into the shared columns.  The differential tests in ``test_flyweight.py``
then run an oracle and its library flyweight on the very same engine.

In each round a node

1. observes the messages delivered to it (sent by neighbours in the previous
   round) and the resolution of the previous channel slot,
2. updates its local state,
3. queues at most one message per incident link and at most one channel write
   for the current slot, and
4. optionally declares itself finished via :meth:`NodeProtocol.halt`.

The node may consult only the information the model grants it: its own
identifier, its list of incident links (with weights), the total number of
nodes ``n`` when known, and a private random source.
"""

from __future__ import annotations

import functools
import random
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from repro.protocols.collision.greenberg_ladner import MultiplicityEstimate
from repro.sim.errors import ProtocolError
from repro.sim.events import ChannelEvent, Message
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol

NodeId = Hashable
Combine = Callable[[Any, Any], Any]


class NodeContext:
    """Everything a node is allowed to know about its environment.

    Attributes:
        node_id: this processor's unique identifier (O(log n) bits).
        neighbors: identifiers of the processors adjacent in the
            point-to-point topology, in a fixed (but arbitrary) local order.
        link_weights: weight of the link to each neighbour.  Algorithms that
            do not use weights simply ignore this.  Shared with the
            simulator's cached topology rows — protocols must treat it as
            read-only.
        n: the number of processors in the network, when known.
        rng: a private seeded random source for randomized protocols.  When
            the context was built with an ``rng_factory`` (the per-node
            substream derivation of :mod:`repro.sim.substreams`), the
            generator is materialised on first access — protocols that never
            draw (the common case) cost no ``random.Random`` construction.
        extra: free-form per-node inputs (e.g. the local operand of a global
            sensitive function).
    """

    __slots__ = ("node_id", "neighbors", "link_weights", "n", "extra",
                 "_rng", "_rng_factory")

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Tuple[NodeId, ...],
        link_weights: Dict[NodeId, float],
        n: Optional[int],
        rng: Optional[random.Random] = None,
        extra: Optional[Dict[str, Any]] = None,
        rng_factory: Optional[Callable[[NodeId], random.Random]] = None,
    ) -> None:
        """Create a context; supply either a concrete ``rng`` or a factory."""
        self.node_id = node_id
        self.neighbors = neighbors
        self.link_weights = link_weights
        self.n = n
        self.extra = {} if extra is None else extra
        self._rng = rng
        self._rng_factory = rng_factory

    @property
    def rng(self) -> random.Random:
        """Return the node's private generator, materialising it lazily."""
        rng = self._rng
        if rng is None:
            factory = self._rng_factory
            if factory is None:
                raise ProtocolError(
                    f"node {self.node_id!r} has no random source: the context "
                    "was built without an rng or rng_factory"
                )
            rng = self._rng = factory(self.node_id)
        return rng

    @rng.setter
    def rng(self, value: random.Random) -> None:
        """Install an explicit random source (tests pin streams this way)."""
        self._rng = value

    def degree(self) -> int:
        """Return the number of incident point-to-point links."""
        return len(self.neighbors)

    def sorted_incident_links(self) -> List[Tuple[float, NodeId]]:
        """Return ``(weight, neighbour)`` pairs sorted by weight then id.

        This is the "ordered list of links" each node scans in Step 2 of the
        deterministic partitioning algorithm.
        """
        return sorted(
            ((self.link_weights[v], v) for v in self.neighbors),
            key=lambda pair: (pair[0], repr(pair[1])),
        )


class NodeProtocol:
    """Base class for one processor's side of a distributed algorithm.

    Subclasses override :meth:`on_start` (called once, before round 0's
    sends are collected) and :meth:`on_round` (called every round with the
    newly delivered messages and the previous slot's outcome).  Within those
    callbacks they may call :meth:`send`, :meth:`send_to_all_neighbors`,
    :meth:`channel_write` and :meth:`halt`.

    A node that has halted is no longer scheduled, but messages addressed to
    it are still delivered and retained; this mirrors a processor that has
    terminated its algorithm while its network interface keeps absorbing
    late traffic.
    """

    def __init__(self, ctx: NodeContext) -> None:
        """Bind the protocol instance to its node's context."""
        self.ctx = ctx
        self._outbox: List[Tuple[NodeId, Any]] = []
        # destinations already used this round, kept in sync with _outbox so
        # the one-message-per-link check is O(1) per send instead of a scan
        # of the outbox (O(deg²) for a hub that messages every neighbour);
        # None means "rebuild from _outbox on next send"
        self._outbox_dests: Optional[Set[NodeId]] = set()
        self._channel_payload: Optional[Any] = None
        self._channel_write_pending = False
        # set by send()/channel_write(), cleared by _collect_actions(): lets
        # the simulator skip the collection call for nodes that did nothing
        # this round (the common case in large sparse rounds)
        self._acted = False
        self._halted = False
        self._result: Any = None

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        """Return this processor's identifier."""
        return self.ctx.node_id

    @property
    def neighbors(self) -> Tuple[NodeId, ...]:
        """Return the identifiers of this processor's neighbours."""
        return self.ctx.neighbors

    def send(self, neighbor: NodeId, payload: Any) -> None:
        """Queue ``payload`` for delivery to ``neighbor`` next round.

        Raises:
            ProtocolError: if ``neighbor`` is not adjacent, or a message has
                already been queued on that link this round (the model allows
                one message per link per round).
        """
        if neighbor not in self.ctx.link_weights:
            raise ProtocolError(
                f"node {self.node_id!r} tried to send to non-neighbour {neighbor!r}"
            )
        dests = self._outbox_dests
        if dests is None:
            dests = self._outbox_dests = {dest for dest, _ in self._outbox}
        if neighbor in dests:
            raise ProtocolError(
                f"node {self.node_id!r} queued two messages to {neighbor!r} "
                "in the same round"
            )
        dests.add(neighbor)
        self._outbox.append((neighbor, payload))
        self._acted = True

    def send_to_all_neighbors(self, payload: Any) -> None:
        """Queue ``payload`` on every incident link."""
        if self._outbox:
            # a message is already queued on some link; go through send() so
            # the one-message-per-link rule is enforced per neighbour
            for neighbor in self.ctx.neighbors:
                self.send(neighbor, payload)
            return
        # empty outbox: neighbours are unique, so no duplicate check is needed
        # (this keeps a high-degree hub's broadcast O(deg) instead of O(deg²));
        # the dest set is marked stale and only rebuilt if send() runs later
        self._outbox = [(neighbor, payload) for neighbor in self.ctx.neighbors]
        self._outbox_dests = None
        if self._outbox:
            self._acted = True

    def channel_write(self, payload: Any) -> None:
        """Attempt to broadcast ``payload`` in the current channel slot.

        Raises:
            ProtocolError: if a write has already been queued for this slot.
        """
        if self._channel_write_pending:
            raise ProtocolError(
                f"node {self.node_id!r} attempted two channel writes in one slot"
            )
        self._channel_write_pending = True
        self._channel_payload = payload
        self._acted = True

    def halt(self, result: Any = None) -> None:
        """Declare the local algorithm finished with an optional ``result``."""
        self._halted = True
        self._result = result

    def set_result(self, result: Any) -> None:
        """Record the local output without halting (used by multi-stage runs)."""
        self._result = result

    # ------------------------------------------------------------------
    # callbacks to override
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once before the first round; queue initial sends here."""

    def on_round(self, inbox: Sequence[Message], channel: ChannelEvent) -> None:
        """Called each round with newly delivered messages and slot feedback.

        ``inbox`` must be treated as read-only: nodes without mail all share
        one immutable empty sequence
        (:data:`~repro.sim.events.NO_MESSAGES`).
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # simulator-facing plumbing
    # ------------------------------------------------------------------
    @property
    def halted(self) -> bool:
        """Return ``True`` once the node has called :meth:`halt`."""
        return self._halted

    @property
    def result(self) -> Any:
        """Return the node's declared local output (``None`` until set)."""
        return self._result

    def _collect_actions(self) -> Tuple[List[Tuple[NodeId, Any]], Optional[Any], bool]:
        """Return and clear the queued sends and channel write for this round.

        Runs once per node per round; an empty outbox is handed back without
        being replaced (the caller only reads it), so quiet rounds allocate
        nothing.
        """
        self._acted = False
        outbox = self._outbox
        if outbox:
            self._outbox = []
            dests = self._outbox_dests
            if dests:
                dests.clear()
            # a stale (None) marker stays stale: send() rebuilds from the
            # now-empty outbox, which is the empty set anyway
        wrote = self._channel_write_pending
        if not wrote:
            return outbox, None, False
        payload = self._channel_payload
        self._channel_payload = None
        self._channel_write_pending = False
        return outbox, payload, wrote


class PerNode(FlyweightProtocol):
    """A flyweight holding one per-node protocol instance per slot.

    Each callback runs the slot's instance and forwards what it did into the
    shared columns: its collected sends into the send buffer, its channel
    write into the write buffer, and its halt into :meth:`halt_slot`.  The
    engine then sees exactly the per-node grouping and order of actions.
    """

    def __init__(self, env: FlyweightEnvironment,
                 factory: Callable[[NodeContext], NodeProtocol]) -> None:
        """Build one context and one protocol instance per slot."""
        super().__init__(env)
        inputs = env.inputs
        self.protocols: List[NodeProtocol] = [
            factory(NodeContext(
                node_id=node,
                neighbors=env.neighbors[slot],
                link_weights=env.link_weights[slot],
                n=env.n,
                extra=dict(inputs.get(node, {})),
                rng_factory=env.streams.rng_for,
            ))
            for slot, node in enumerate(env.nodes)
        ]
        for slot, protocol in enumerate(self.protocols):
            if protocol.halted:
                self.halt_slot(slot)

    def _forward(self, slot: int) -> None:
        protocol = self.protocols[slot]
        if protocol._acted:
            outbox, payload, wrote = protocol._collect_actions()
            self._sends.extend(outbox)
            if wrote:
                self._writes.append((self.env.nodes[slot], payload))
        if protocol.halted:
            self.halt_slot(slot)

    def on_start(self, slot: int) -> None:
        self.protocols[slot].on_start()
        self._forward(slot)

    def on_round(self, slot: int, inbox: Sequence[Message],
                 channel: ChannelEvent) -> None:
        self.protocols[slot].on_round(inbox, channel)
        self._forward(slot)

    def results_by_node(self) -> Dict[NodeId, Any]:
        """Read each instance's result (set with or without halting)."""
        return {node: p.result for node, p in zip(self.env.nodes, self.protocols)}


def per_node(factory: Callable[[NodeContext], NodeProtocol]) -> Callable:
    """Return a simulator protocol factory running ``factory`` on every node."""
    return functools.partial(PerNode, factory=factory)


# ----------------------------------------------------------------------
# the per-node twins of the library's flyweights, plus distributed BFS
# ----------------------------------------------------------------------

class BFSTreeProtocol(NodeProtocol):
    """Per-node protocol growing BFS trees from the nodes marked as roots.

    Inputs (via ``ctx.extra``):
        ``is_root`` (bool): whether this node is a BFS root.
        ``depth_limit`` (int, optional): maximum label to adopt.
        ``num_rounds`` (int, optional): how many rounds to run before halting;
            defaults to ``depth_limit`` when given, else ``n``.

    Output (``result``): a dictionary with ``root``, ``parent`` and ``label``
    (``root`` is ``None`` for nodes no tree reached within the limits).

    A node adopts a new ``(label, root)`` pair only when it strictly improves
    — smaller label, or equal label with a smaller root identifier — and
    announces every improvement to its neighbours, exactly the rule of
    Section 4, Step 2.
    """

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self._is_root = bool(ctx.extra.get("is_root", False))
        self._depth_limit = ctx.extra.get("depth_limit")
        default_rounds = (
            self._depth_limit
            if self._depth_limit is not None
            else (ctx.n if ctx.n is not None else 1)
        )
        # +2 rounds of slack: one for the final announcements to land and one
        # for the adopting nodes to settle
        self._deadline = int(ctx.extra.get("num_rounds", default_rounds)) + 2
        self._round = 0
        self._label: Optional[int] = 0 if self._is_root else None
        self._root: Optional[NodeId] = ctx.node_id if self._is_root else None
        self._parent: Optional[NodeId] = None

    def _announce(self) -> None:
        if self._label is None:
            return
        self.send_to_all_neighbors(("bfs", self._root, self._label))

    def on_start(self) -> None:
        if self._is_root:
            self._announce()

    def on_round(self, inbox: List[Message], channel: ChannelEvent) -> None:
        self._round += 1
        improved = False
        for message in inbox:
            kind, root, label = message.payload
            if kind != "bfs":
                continue
            candidate_label = label + 1
            if self._depth_limit is not None and candidate_label > self._depth_limit:
                continue
            if self._better(candidate_label, root):
                self._label = candidate_label
                self._root = root
                self._parent = message.sender
                improved = True
        if improved:
            self._announce()
        if self._round >= self._deadline:
            self.halt(
                {"root": self._root, "parent": self._parent, "label": self._label}
            )

    def _better(self, candidate_label: int, candidate_root: NodeId) -> bool:
        if self._label is None:
            return True
        if candidate_label < self._label:
            return True
        if candidate_label == self._label and self._root is not None:
            return repr(candidate_root) < repr(self._root)
        return False


class TreeAggregationProtocol(NodeProtocol):
    """Per-node broadcast-and-respond over an already-established forest.

    Inputs (via ``ctx.extra``):
        ``parent``: this node's parent in the forest (``None`` for roots).
        ``children``: list of this node's children.
        ``value``: the local operand.
        ``combine``: the semigroup operation (a two-argument callable shared
            by all nodes).
        ``redistribute`` (bool): when set, each root broadcasts the aggregate
            back down so every node halts knowing its tree's aggregate.

    Output (``result``): the tree aggregate for roots (and for every node
    when ``redistribute`` is set); ``None`` otherwise.
    """

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self._parent: Optional[NodeId] = ctx.extra.get("parent")
        self._children: Tuple[NodeId, ...] = tuple(ctx.extra.get("children", ()))
        self._combine: Combine = ctx.extra["combine"]
        self._value: Any = ctx.extra["value"]
        self._redistribute: bool = bool(ctx.extra.get("redistribute", False))
        self._pending = set(self._children)
        self._accumulated = self._value
        self._reported = False

    def _maybe_report(self) -> None:
        if self._pending or self._reported:
            return
        self._reported = True
        if self._parent is not None:
            self.send(self._parent, ("aggregate", self._accumulated))
            if not self._redistribute:
                self.halt(None)
        else:
            if self._redistribute:
                for child in self._children:
                    self.send(child, ("final", self._accumulated))
            self.halt(self._accumulated)

    def on_start(self) -> None:
        # leaves can report immediately
        self._maybe_report()

    def on_round(self, inbox: List[Message], channel: ChannelEvent) -> None:
        for message in inbox:
            kind, payload = message.payload
            if kind == "aggregate":
                if message.sender in self._pending:
                    self._pending.discard(message.sender)
                    self._accumulated = self._combine(self._accumulated, payload)
            elif kind == "final":
                for child in self._children:
                    self.send(child, ("final", payload))
                self.halt(payload)
                return
        # inline _maybe_report's guard: this runs every round on every node,
        # and most rounds a node is either still waiting or already reported
        if not (self._pending or self._reported):
            self._maybe_report()


class GreenbergLadnerEstimator(NodeProtocol):
    """Node-protocol form of the estimation, runnable on the full simulator.

    Every node participates; round ``i`` of the protocol occupies channel
    slot ``i − 1``.  When the first idle slot is observed every node halts
    with the common estimate ``2^(rounds − 1)`` as its result.
    """

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self._round = 1

    def _flip_and_maybe_write(self) -> None:
        probability = 1.0 / (2.0 ** self._round)
        if self.ctx.rng.random() < probability:
            self.channel_write("busy")

    def on_start(self) -> None:
        self._flip_and_maybe_write()

    def on_round(self, inbox: List[Message], channel: ChannelEvent) -> None:
        if channel.is_idle() and channel.slot >= 0:
            self.halt(MultiplicityEstimate(rounds=self._round, estimate=2 ** (self._round - 1)))
            return
        self._round += 1
        self._flip_and_maybe_write()


class BitByBitLeaderElection(NodeProtocol):
    """Node-protocol form of the deterministic bit-by-bit election.

    Every node is a candidate; identifiers must be non-negative integers.
    All nodes learn the leader (the maximum identifier): candidates that
    withdraw keep reconstructing the leader's identifier from the public slot
    outcomes, because a non-idle slot at bit position ``b`` reveals that the
    leader's bit ``b`` is 1 and an idle slot that it is 0.
    """

    def __init__(self, ctx: NodeContext, id_bits: Optional[int] = None) -> None:
        super().__init__(ctx)
        if id_bits is None:
            n = ctx.n if ctx.n is not None else 2
            id_bits = max(1, (max(int(ctx.node_id), n)).bit_length())
        self._bits = id_bits
        self._bit = id_bits - 1
        self._candidate = True
        self._leader_prefix = 0

    def _transmit_if_set(self) -> None:
        if self._candidate and (int(self.node_id) >> self._bit) & 1:
            self.channel_write("bit")

    def on_start(self) -> None:
        self._transmit_if_set()

    def on_round(self, inbox: List[Message], channel: ChannelEvent) -> None:
        my_bit = (int(self.node_id) >> self._bit) & 1
        if not channel.is_idle():
            self._leader_prefix = (self._leader_prefix << 1) | 1
            if self._candidate and my_bit == 0:
                self._candidate = False
        else:
            self._leader_prefix = self._leader_prefix << 1
        if self._bit == 0:
            self.halt(self._leader_prefix)
            return
        self._bit -= 1
        self._transmit_if_set()


class RandomizedLeaderElection(NodeProtocol):
    """Randomized thinning election; expected O(log n) slots from ``n`` candidates.

    Each surviving candidate transmits with probability ``1/2`` in every slot.
    On a success the transmitter is elected and every node halts with the
    winner's identifier.  On a collision, the candidates that transmitted
    survive and the rest withdraw (halving the field in expectation); on an
    idle slot nothing changes.  The protocol is a Las-Vegas election: it only
    ever terminates with a correct, unique leader.
    """

    def __init__(self, ctx: NodeContext) -> None:
        super().__init__(ctx)
        self._candidate = True
        self._transmitted = False

    def _flip(self) -> None:
        self._transmitted = False
        if self._candidate and self.ctx.rng.random() < 0.5:
            self.channel_write(self.node_id)
            self._transmitted = True

    def on_start(self) -> None:
        self._flip()

    def on_round(self, inbox: List[Message], channel: ChannelEvent) -> None:
        if channel.is_success():
            self.halt(channel.payload)
            return
        if channel.is_collision() and self._candidate and not self._transmitted:
            self._candidate = False
        self._flip()
