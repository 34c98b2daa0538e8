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

The end of the module holds the other references the tests hold the
library to: exact solves (the absorbing-chain MFPT), checkers (legal
colourings, maximal independent sets, identical spanning trees,
global sensitivity), the paper's contention bounds, and the plain forms
the faster library paths replaced (the per-node diameter sweep, the
canonical-edge row scan, the all-pairs geometric scan, the crash-window
dispatch that scans every slot, the per-slot Capetanakis and
Metcalfe–Boggs contenders and their slot loop, and the point-to-point MST baseline on node-keyed
dicts), and the reader of
``repro run --json`` result files that the round-trip tests rebuild
results with.

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
import math
import operator
import random
from collections import deque
from typing import (
    Any, Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.core.global_function.semigroup import (
    INTEGER_ADDITION,
    INTEGER_MAXIMUM,
    INTEGER_MINIMUM,
    XOR,
    GlobalSensitiveFunction,
)
from repro.core.mst.ghs_baseline import PointToPointMSTResult
from repro.core.mst.kruskal import MSTEdges
from repro.core.partition.forest import SpanningForest
from repro.core.partition.randomized import escalation_sequence
from repro.experiments.registry import DEFAULT_PRESET
from repro.experiments.runner import RESULT_SCHEMA, ExperimentResult
from repro.protocols.collision.base import ScheduleOutcome
from repro.protocols.collision.greenberg_ladner import MultiplicityEstimate
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError
from repro.sim.events import ChannelEvent, Message, SlotState
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.metrics import MetricsRecorder
from repro.sim.substreams import substream_seed
from repro.topology.graph import CSRView, Edge, WeightedGraph, edge_key

NodeId = Hashable
Combine = Callable[[Any, Any], Any]

# The inbox handed to every node without mail.  Immutable on purpose: the
# adapter shares one instance across all quiet nodes and rounds, so a
# protocol that tried to mutate its inbox (never part of the contract) fails
# loudly instead of silently corrupting other nodes' observations.
NO_MESSAGES: Sequence[Message] = ()


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
            the context was built with an ``rng_factory`` (the adapter's
            per-node substream derivation, see :func:`per_node`), the
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
        (:data:`NO_MESSAGES`).
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


#: the scope of the per-node random sources; the v4 goldens pin its draws
STREAM_SCOPE = "sim.multimedia"


class PerNode(FlyweightProtocol):
    """A flyweight holding one per-node protocol instance per slot.

    Each callback runs the instances of its slots in order, skipping a slot
    halted by then, and forwards what each did into the shared columns: its
    collected sends into the send buffer (tagged with its slot), its channel
    write into the write buffer, and its halt into :meth:`halt_slot`.  The
    engine then sees exactly the per-node grouping and order of actions.

    Node ``i``'s ``ctx.rng`` is ``random.Random(substream_seed(seed,
    STREAM_SCOPE, i))``, built on its first draw.
    """

    def __init__(self, csr: CSRView,
                 factory: Callable[[NodeContext], NodeProtocol],
                 extras: Dict[NodeId, Dict[str, Any]],
                 seed: object) -> None:
        """Build one context and one protocol instance per slot."""
        super().__init__(csr)

        def node_rng(node: NodeId) -> random.Random:
            return random.Random(substream_seed(seed, STREAM_SCOPE, node))

        self.protocols: List[NodeProtocol] = [
            factory(NodeContext(
                node_id=node,
                neighbors=neighbors(csr, node),
                link_weights=link_weights(csr, node),
                n=csr.n,
                extra=dict(extras.get(node, {})),
                rng_factory=node_rng,
            ))
            for node in range(csr.n)
        ]
        for slot, protocol in enumerate(self.protocols):
            if protocol.halted:
                self.halt_slot(slot)

    def _forward(self, slot: int) -> None:
        protocol = self.protocols[slot]
        if protocol._acted:
            outbox, payload, wrote = protocol._collect_actions()
            for neighbor, message in outbox:
                self.send(slot, neighbor, message)
            if wrote:
                self.channel_write(slot, payload)
        if protocol.halted:
            self.halt_slot(slot)

    def on_start(self, slots: Iterable[int]) -> None:
        for slot in slots:
            if not self.halted[slot]:
                self.protocols[slot].on_start()
                self._forward(slot)

    def on_round(self, slots: Iterable[int],
                 inboxes: Mapping[int, Sequence[Message]],
                 channel: ChannelEvent) -> None:
        for slot in slots:
            if not self.halted[slot]:
                self.protocols[slot].on_round(inboxes.get(slot, NO_MESSAGES), channel)
                self._forward(slot)

    def results_by_node(self) -> Dict[NodeId, Any]:
        """Read each instance's result (set with or without halting)."""
        return {node: p.result for node, p in enumerate(self.protocols)}


def per_node(factory: Callable[[NodeContext], NodeProtocol],
             extras: Optional[Dict[NodeId, Dict[str, Any]]] = None,
             seed: object = None) -> Callable:
    """Return a simulator protocol factory running ``factory`` on every node.

    ``extras`` maps a node to its per-node inputs (its context's ``extra``).
    ``seed`` keys the nodes' private random sources (see :class:`PerNode`).
    """
    return functools.partial(PerNode, factory=factory, extras=extras or {},
                             seed=seed)


class ScanDispatch:
    """The crash-window dispatch as a scan of every slot per round.

    A drop-in for :func:`repro.sim.multimedia.dispatch_round` (same
    arguments), kept as the reference for its crash path, which walks only
    the slots that can act.  It ignores the library's ``crashed`` and
    ``deferred`` sets and reads each slot's state itself: crashes through
    the per-node predicate ``adversity.node_crashed``, starts in its own
    n-byte column.  Every crashed, non-halted slot the scan meets adds one
    to :attr:`crash_node_rounds`.  Runs without crash windows are not its
    business.
    """

    def __init__(self, adversity) -> None:
        """Scan against ``adversity``'s crash windows."""
        self.adversity = adversity
        self.started: Optional[bytearray] = None
        self.crash_node_rounds = 0

    def __call__(self, protocol: FlyweightProtocol,
                 inboxes: Mapping[int, Sequence[Message]], event: ChannelEvent,
                 round_index: int, crashed, deferred) -> None:
        """Make one round's protocol calls, scanning every slot."""
        assert crashed is not None, "the reference covers crash windows only"
        num_slots = protocol.csr.n
        if self.started is None:
            self.started = bytearray(num_slots)
        started = self.started
        message_driven = protocol.MESSAGE_DRIVEN
        halted = protocol.halted
        starting: List[int] = []
        batch: List[int] = []
        for slot in range(num_slots):
            if halted[slot]:
                continue
            if self.adversity.node_crashed(slot, round_index):
                self.crash_node_rounds += 1
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


def neighbors(csr, node: int) -> Tuple[int, ...]:
    """Return ``node``'s neighbours in CSR row order.

    Raises:
        KeyError: if ``node`` is not a node of the graph.
    """
    slot = csr.slot(node)
    return tuple(csr.targets[csr.offsets[slot]:csr.offsets[slot + 1]])


def degree(graph, node: int) -> int:
    """Return the number of ``node``'s incident links."""
    return len(neighbors(graph.csr(), node))


def link_weights(csr, node: int) -> Dict[int, float]:
    """Return ``node``'s ``{neighbour: weight}`` row, in CSR row order."""
    lo = csr.offsets[node]
    hi = csr.offsets[node + 1]
    return dict(zip(csr.targets[lo:hi], csr.weights[lo:hi]))


def bfs_maps(graph, columns) -> Tuple[Dict, Dict]:
    """Turn ``build_bfs_forest``'s columns into node-keyed maps.

    Returns ``(parents, labels)`` — parent node (``None`` at the root) and
    hop label — over the labelled nodes only, in the visit order of a
    level-by-level BFS: the root, then level by level, each node's children
    in its row order.  That is the order a node-at-a-time queue visits them
    in, and the order the parent and children inputs of the oracles are
    built in.
    """
    parent, label = columns
    csr = graph.csr()
    offsets, targets = csr.offsets, csr.targets
    level = [slot for slot in range(csr.n) if label[slot] == 0]
    visit: List[int] = []
    while level:
        visit.extend(level)
        level = [
            target
            for slot in level
            for target in targets[offsets[slot]:offsets[slot + 1]]
            if parent[target] == slot
        ]
    assert len(visit) == sum(1 for value in label if value >= 0)
    return (
        {slot: parent[slot] if parent[slot] >= 0 else None for slot in visit},
        {slot: label[slot] for slot in visit},
    )


def queue_bfs_forest(graph, roots, depth_limit=None) -> Tuple[Dict, Dict, Dict]:
    """Grow BFS trees from ``roots`` by a node-at-a-time FIFO queue.

    The reference both :meth:`repro.topology.graph.CSRView.bfs` (one root,
    no limit) and the distributed BFS oracle (several roots, a depth limit)
    are held to.  The roots start the queue in ``repr`` order — the
    protocol's "least id" rule — and a node at ``depth_limit`` does not
    expand.  Returns ``(parents, root_of, labels)`` maps over the labelled
    nodes, each in visit order.
    """
    parents, root_of, labels = {}, {}, {}
    queue = deque()
    for root in sorted(roots, key=repr):
        parents[root] = None
        root_of[root] = root
        labels[root] = 0
        queue.append(root)
    while queue:
        node = queue.popleft()
        if depth_limit is not None and labels[node] >= depth_limit:
            continue
        for neighbor in neighbors(graph.csr(), node):
            if neighbor not in labels:
                labels[neighbor] = labels[node] + 1
                parents[neighbor] = node
                root_of[neighbor] = root_of[node]
                queue.append(neighbor)
    return parents, root_of, labels


# ----------------------------------------------------------------------
# per-node protocols: the tree-aggregation flyweight's twin, distributed
# BFS, and the channel protocols the v4 goldens pin
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
        if channel.state is SlotState.SUCCESS:
            self.halt(channel.payload)
            return
        if channel.state is SlotState.COLLISION and self._candidate and not self._transmitted:
            self._candidate = False
        self._flip()


# ----------------------------------------------------------------------
# forests and trees given as node -> parent maps
# ----------------------------------------------------------------------

def children_map(parents: Mapping[NodeId, Optional[NodeId]]) -> Dict[NodeId, List[NodeId]]:
    """Return ``node → list of children`` for a parent map."""
    children: Dict[NodeId, List[NodeId]] = {node: [] for node in parents}
    for node, parent in parents.items():
        if parent is not None:
            children[parent].append(node)
    return children


def spanning_forest(parents: Mapping[int, Optional[int]]) -> SpanningForest:
    """Build a :class:`SpanningForest` from a node → parent map (roots map to ``None``).

    The map's keys must be the nodes ``0..n-1``, in any order.

    Raises:
        ValueError: if a key is outside ``0..n-1``, a referenced parent is
            missing, or a cycle exists.
    """
    column = [-1] * len(parents)
    for node, up in parents.items():
        if not 0 <= node < len(column):
            raise ValueError(f"node {node!r} is outside 0..{len(column) - 1}")
        if up is not None:
            if up not in parents:
                raise ValueError(f"parent {up!r} of {node!r} is not in the map")
            column[node] = up
    return SpanningForest(column)


def parent_map(forest: SpanningForest) -> Dict[int, Optional[int]]:
    """Return ``node → parent`` (cores map to ``None``), fragment by fragment:
    cores in first-appearance order, each fragment's members ascending."""
    fragments: Dict[int, List[int]] = {core: [] for core in forest.cores}
    for node, core in enumerate(forest.root):
        fragments[core].append(node)
    parent = forest.parent
    return {
        node: parent[node] if parent[node] >= 0 else None
        for members in fragments.values()
        for node in members
    }


def node_depths(parents: Mapping[NodeId, Optional[NodeId]]) -> Dict[NodeId, int]:
    """Return each node's hop distance to its root, by one BFS from the roots.

    Raises:
        KeyError: if a node's parent chain leaves the map or cycles.
    """
    depths: Dict[NodeId, int] = {}
    children = children_map(parents)
    frontier = [node for node, parent in parents.items() if parent is None]
    depth = 0
    while frontier:
        for node in frontier:
            depths[node] = depth
        frontier = [child for node in frontier for child in children[node]]
        depth += 1
    if len(depths) != len(parents):
        unreachable = next(node for node in parents if node not in depths)
        raise KeyError(f"{unreachable!r} is not reachable from any root")
    return depths


def reroot(parents: Dict[NodeId, Optional[NodeId]], new_root: NodeId) -> None:
    """Re-root the tree holding ``new_root`` there, in place, by reversing
    the parent pointers on the path to the old root."""
    path = [new_root]
    while parents[path[-1]] is not None:
        path.append(parents[path[-1]])
    for index in range(len(path) - 1, 0, -1):
        parents[path[index]] = path[index - 1]
    parents[new_root] = None


def p2p_mst_by_dicts(graph):
    """Return :class:`~repro.core.mst.ghs_baseline.PointToPointMST`'s result,
    computed on node-keyed dicts.

    The point-to-point GHS baseline as first written: fragments are a
    node → parent map and a node → core map, each node scans its links in
    ``(weight, repr(neighbour))`` order past a set of rejected edge keys,
    the fragment graph's components are found by a DFS over a core → core
    map (rooted at the larger-``repr`` end of the component's 2-cycle), and
    every phase re-walks the whole forest for depths.  Same charges: Step 1's
    broadcast-and-respond, two messages per link test, and per merge two
    messages per spliced node plus one per merged node; a phase's rounds are
    twice the largest radius, twice the most tests one node made, and the
    largest merged radius.
    """
    metrics = MetricsRecorder()
    nodes = graph.nodes()
    links: Dict[NodeId, List[Tuple[float, NodeId, Tuple[NodeId, NodeId]]]] = {
        node: [] for node in nodes
    }
    for u, v, w in graph.edges():
        key = edge_key(u, v)
        links[u].append((w, v, key))
        links[v].append((w, u, key))
    for row in links.values():
        row.sort(key=lambda link: (link[0], repr(link[1])))
    parents: Dict[NodeId, Optional[NodeId]] = {v: None for v in nodes}
    core_of: Dict[NodeId, NodeId] = {v: v for v in nodes}
    link_pos: Dict[NodeId, int] = {v: 0 for v in nodes}
    rejected: Set[Tuple[NodeId, NodeId]] = set()
    mst_keys: Set[Tuple[NodeId, NodeId]] = set()

    metrics.set_phase("ghs")
    phases = 0
    while True:
        members: Dict[NodeId, List[NodeId]] = {}
        for node, core in core_of.items():
            members.setdefault(core, []).append(node)
        if len(members) <= 1:
            break
        phases += 1
        depths = node_depths(parents)
        rounds = 2 * max(depths.values())
        metrics.record_messages(2 * (len(nodes) - len(members)))

        chosen: Dict[NodeId, Tuple[float, NodeId, NodeId]] = {}
        max_tests = total_tests = 0
        for core, fragment in members.items():
            best = None
            for node in fragment:
                tests = 0
                row = links[node]
                index = link_pos[node]
                while index < len(row):
                    weight, neighbor, key = row[index]
                    if key in rejected:
                        index += 1
                        continue
                    tests += 1
                    if core_of[neighbor] == core:
                        rejected.add(key)
                        index += 1
                        continue
                    if best is None or (weight, node, neighbor) < best:
                        best = (weight, node, neighbor)
                    break
                link_pos[node] = index
                total_tests += tests
                max_tests = max(max_tests, tests)
            if best is not None:
                chosen[core] = best
        metrics.record_messages(2 * total_tests)
        rounds += 2 * max_tests

        # the fragment graph's weakly connected components, each rooted at
        # the larger-repr end of its 2-cycle (or at a core that chose nothing)
        out_edge = {core: core_of[v] for core, (_, _, v) in chosen.items()}
        adjacency: Dict[NodeId, List[NodeId]] = {}
        for source, target in out_edge.items():
            adjacency.setdefault(source, []).append(target)
            adjacency.setdefault(target, []).append(source)
        seen: Set[NodeId] = set()
        merged: List[List[NodeId]] = []
        for start in adjacency:
            if start in seen:
                continue
            seen.add(start)
            stack, group = [start], []
            while stack:
                vertex = stack.pop()
                group.append(vertex)
                for neighbor in adjacency[vertex]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        stack.append(neighbor)
            root = next(
                vertex if vertex not in out_edge
                else max(vertex, out_edge[vertex], key=repr)
                for vertex in group
                if vertex not in out_edge or out_edge.get(out_edge[vertex]) == vertex
            )
            spliced = 0
            for core in group:
                if core != root:
                    _, u, v = chosen[core]
                    mst_keys.add(edge_key(u, v))
                    reroot(parents, u)
                    parents[u] = v
                    spliced += len(members[core])
            new_members = [node for core in group for node in members[core]]
            for node in new_members:
                core_of[node] = root
            metrics.record_messages(2 * spliced + len(new_members))
            merged.append(new_members)
        depths = node_depths(parents)
        rounds += max(max(depths[node] for node in group) for group in merged)
        metrics.record_round(rounds)
    metrics.set_phase(None)

    edges = [Edge(u, v, graph.weight(u, v)) for u, v in sorted(mst_keys, key=repr)]
    mst = MSTEdges(edges=edges, total_weight=sum(edge.weight for edge in edges))
    return PointToPointMSTResult(mst=mst, metrics=metrics.snapshot(), phases=phases)


def same_tree(first, second) -> bool:
    """Return ``True`` when two MSTs consist of exactly the same edges."""
    return first.edge_keys() == second.edge_keys()


def spanning_tree_weight(graph, keys) -> float:
    """Return the total weight of the edges named by ``keys`` in ``graph``.

    Raises:
        KeyError: if a key does not name an edge of the graph.
    """
    total = 0.0
    for u, v in keys:
        total += graph.weight(u, v)
    return total


def edge_weight_sum(graph) -> float:
    """Return the sum of ``graph``'s edge weights, left to right in
    :meth:`~repro.topology.graph.WeightedGraph.edges` order.

    A plain running sum on purpose: ``sum()`` over floats compensates its
    rounding on Python 3.12+, which would change the pinned values.
    """
    total = 0.0
    for w in graph.csr().canonical_edges()[2]:
        total += w
    return total


# ----------------------------------------------------------------------
# randomized partition: inputs whose runs reach a second iteration
# ----------------------------------------------------------------------

def chorded_path(n: int = 4096) -> WeightedGraph:
    """An ``n``-node path with a chord over every 50th pair of links.

    A path is the topology on which a first iteration is likeliest to
    leave nodes free: its labels grow fastest with the distance to a
    centre.  The chords give the link removal non-tree links to drop.
    """
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(i, i + 2) for i in range(0, n - 2, 50)]
    return WeightedGraph.from_edges(edges, n=n)


def damped_escalation(factor: float) -> Callable[[int], List[float]]:
    """Return ``escalation_sequence`` with every term scaled by ``factor``.

    Patched into :mod:`repro.core.partition.randomized`, it makes fewer
    centres per iteration, so most runs take several iterations and BFS
    waves of a later iteration meet nodes labelled in an earlier one (the
    last iteration still promotes every free node).
    """
    return lambda length: [factor * e for e in escalation_sequence(length)]


# ----------------------------------------------------------------------
# symmetry breaking: checkers over a forest held in columns (vertices
# 0..k-1, ``parent[v]`` the parent slot, -1 at a root)
# ----------------------------------------------------------------------

def is_legal_coloring(colors: Sequence[int], parent: Sequence[int]) -> bool:
    """Return ``True`` when no vertex shares a colour with its parent."""
    return all(up < 0 or colors[vertex] != colors[up] for vertex, up in enumerate(parent))


def is_independent_set(parent: Sequence[int], vertices: Set[int]) -> bool:
    """Return ``True`` when no two vertices of ``vertices`` are adjacent in the forest."""
    return not any(
        up >= 0 and vertex in vertices and up in vertices
        for vertex, up in enumerate(parent)
    )


def is_maximal_independent_set(parent: Sequence[int], vertices: Set[int]) -> bool:
    """Return ``True`` when ``vertices`` is independent and cannot be extended."""
    if not is_independent_set(parent, vertices):
        return False
    # a vertex outside the set must have a neighbour (parent or child) in it
    covered = set(vertices)
    for vertex, up in enumerate(parent):
        if up < 0:
            continue
        if up in vertices:
            covered.add(vertex)
        if vertex in vertices:
            covered.add(up)
    return all(vertex in covered for vertex in range(len(parent)))


# ----------------------------------------------------------------------
# global sensitivity (Section 5)
# ----------------------------------------------------------------------

#: Boolean OR — a counter-example: it is NOT global sensitive (once some
#: operand is True, the others do not matter), so the checker must reject it.
BOOLEAN_OR = GlobalSensitiveFunction(name="or", combine=operator.or_, identity=False)

#: each function's sensitivity witness ``y_i``: a replacement for operand
#: ``i`` that must change the product.  Minimum and maximum need the whole
#: tuple, since the witness must undercut (overshoot) the global extreme.
SENSITIVITY_WITNESSES: Dict[str, Callable[[Sequence[Any], int], Any]] = {
    "sum": lambda operands, index: operands[index] + 1,
    "min": lambda operands, index: min(operands) - 1,
    "max": lambda operands, index: max(operands) + 1,
    "xor": lambda operands, index: operands[index] ^ 1,
    "or": lambda operands, index: not operands[index],
}


def standard_functions() -> List[GlobalSensitiveFunction]:
    """Return the library's global sensitive functions."""
    return [INTEGER_ADDITION, INTEGER_MINIMUM, INTEGER_MAXIMUM, XOR]


def is_sensitive_at(function: GlobalSensitiveFunction, operands: Sequence[Any],
                    index: int) -> bool:
    """Return ``True`` when changing ``operands[index]`` changes the value."""
    modified = list(operands)
    modified[index] = SENSITIVITY_WITNESSES[function.name](operands, index)
    return function.evaluate(modified) != function.evaluate(operands)


def check_global_sensitivity(function: GlobalSensitiveFunction,
                             operands: Sequence[Any]) -> bool:
    """Return ``True`` when the function is sensitive in every position."""
    return all(is_sensitive_at(function, operands, index) for index in range(len(operands)))


# ----------------------------------------------------------------------
# channel contention: the per-slot contender references and the bounds
# ----------------------------------------------------------------------

class ChannelContender:
    """One contender's state machine, asked every slot by :func:`per_slot_contention`.

    Each slot the contender says whether it transmits (``wants_to_transmit``)
    and then hears the slot's public outcome (``observe``), which records
    ``success_slot`` when it transmitted alone.  Its decision may depend only
    on its identity, its payload, its private source and the slot outcomes
    heard so far, which every node hears.
    """

    def __init__(self, identity: NodeId, payload: Any) -> None:
        self.identity = identity
        self.payload = payload
        self.success_slot: Optional[int] = None

    @property
    def resolved(self) -> bool:
        return self.success_slot is not None


class SlotByCapetanakis(ChannelContender):
    """Capetanakis' protocol as one contender's state machine.

    The reference for :func:`repro.protocols.collision.base.run_contention`'s
    walk of a :class:`~repro.protocols.collision.capetanakis.Capetanakis`
    stage: every contender keeps its own copy of the public interval stack,
    transmits when its identity lies in the top interval and advances the
    stack on every slot it hears (a collision pushes the right half, then
    the left; a success or an idle slot retires the interval).  Drive a
    batch with :func:`per_slot_contention`.
    """

    def __init__(self, identity: int, universe_size: int, payload: Any) -> None:
        if not 0 <= identity < universe_size:
            raise ValueError(
                f"identity {identity} outside universe [0, {universe_size})"
            )
        super().__init__(identity, payload)
        self.intervals: List[Tuple[int, int]] = [(0, universe_size)]

    def wants_to_transmit(self, slot: int) -> bool:
        if not self.intervals:
            return False
        low, high = self.intervals[-1]
        return low <= self.identity < high

    def observe(self, event: ChannelEvent, transmitted: bool) -> None:
        if transmitted and event.state is SlotState.SUCCESS:
            self.success_slot = event.slot
        if not self.intervals:
            return
        low, high = self.intervals.pop()
        if event.state is SlotState.COLLISION:
            mid = (low + high) // 2
            if mid < high:
                self.intervals.append((mid, high))
            if low < mid:
                self.intervals.append((low, mid))


class SlotByMetcalfeBoggs(ChannelContender):
    """Metcalfe–Boggs access as one contender's state machine.

    The reference for a
    :class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggs` stage's
    per-slot loop: every contender counts the successes it hears and
    transmits each slot with probability ``1/(estimate − successes)`` drawn
    from its own ``Random(seed)``; with at most one contender left by that
    count it transmits for sure, and still draws.  Drive a batch with
    :func:`per_slot_contention`.
    """

    def __init__(self, identity: NodeId, estimate: int, payload: Any, *,
                 seed: int) -> None:
        if estimate < 1:
            raise ValueError("the contender estimate must be at least 1")
        super().__init__(identity, payload)
        self.estimate = estimate
        self.successes_seen = 0
        self.rng = random.Random(seed)

    def wants_to_transmit(self, slot: int) -> bool:
        remaining = self.estimate - self.successes_seen
        draw = self.rng.random()
        return remaining <= 1 or draw < 1.0 / remaining

    def observe(self, event: ChannelEvent, transmitted: bool) -> None:
        if event.state is SlotState.SUCCESS:
            self.successes_seen += 1
            if transmitted:
                self.success_slot = event.slot


def per_slot_contention(contenders, max_slots=1_000_000, metrics=None,
                        adversity=None, network_size=None) -> ScheduleOutcome:
    """Run one channel stage slot by slot: ``run_contention``'s reference.

    Every slot asks each unresolved contender whether it transmits, resolves
    the writes on a channel built like the library's (jammed by
    ``adversity``'s jam rate, budget ``adversity.round_budget(network_size)``
    when an adversity schedule is given) and hands every unresolved
    contender the outcome.  Running out of budget raises ``AdversityAbort``
    on a jammed channel and ``ProtocolError`` otherwise, after charging the
    slots spent.
    """
    jam = None
    if adversity is not None:
        jam = adversity.channel_adversity()
        max_slots = adversity.round_budget(
            len(contenders) if network_size is None else network_size
        )
    channel = SlottedChannel(metrics=metrics, adversity=jam)
    pending = [contender for contender in contenders if not contender.resolved]
    order, broadcasts = [], []
    collisions = idle = slot = 0
    while pending:
        if slot >= max_slots:
            if metrics is not None:
                metrics.record_round(slot)
            if jam is not None:
                raise AdversityAbort(slot, len(pending))
            raise ProtocolError(f"contention did not resolve within {max_slots} slots")
        flags = [contender.wants_to_transmit(slot) for contender in pending]
        event = channel.resolve_slot(slot, [
            (contender.identity, contender.payload)
            for contender, transmitted in zip(pending, flags) if transmitted
        ])
        if event.state is SlotState.SUCCESS:
            order.append(event.writer)
            broadcasts.append(event.payload)
        elif event.state is SlotState.COLLISION:
            collisions += 1
        else:
            idle += 1
        for contender, transmitted in zip(pending, flags):
            contender.observe(event, transmitted)
        pending = [contender for contender in pending if not contender.resolved]
        slot += 1
    if metrics is not None:
        metrics.record_round(slot)
    return ScheduleOutcome(slots_used=slot, order=order, broadcasts=broadcasts,
                           collisions=collisions, idle=idle)


def heard_success_slots(monkeypatch) -> Dict[NodeId, int]:
    """Spy on every channel's ``resolve_slot``: writer → the slot it succeeded in.

    The returned dict fills as slots resolve, for the library's stages and
    the references alike (the library keeps no per-contender record).
    """
    heard: Dict[NodeId, int] = {}
    resolve = SlottedChannel.resolve_slot

    def spy(channel, slot, writes):
        event = resolve(channel, slot, writes)
        if event.state is SlotState.SUCCESS:
            heard[event.writer] = slot
        return event

    monkeypatch.setattr(SlottedChannel, "resolve_slot", spy)
    return heard


def universe_bits(universe_size: int) -> int:
    """Return the number of identifier bits needed for ``universe_size`` ids."""
    if universe_size < 1:
        raise ValueError("the identifier universe must be non-empty")
    return max(1, (universe_size - 1).bit_length())


def deterministic_schedule_bound(num_contenders: int, universe_size: int) -> int:
    """Return Capetanakis' worst-case slot bound O(k log N), as 2·k·(bits + 1)."""
    bits = universe_bits(universe_size)
    return max(1, 2 * num_contenders * (bits + 1))


def expected_slots_per_success(estimate: int) -> float:
    """Return the expected number of slots per success for ``estimate`` contenders.

    With ``k`` contenders each transmitting with probability ``1/k`` the
    per-slot success probability is ``(1 − 1/k)^{k−1} ≥ 1/e``, so the
    expected number of slots until a success is at most ``e``
    (Metcalfe–Boggs).
    """
    if estimate < 1:
        raise ValueError("estimate must be at least 1")
    if estimate == 1:
        return 1.0
    p_success = (1.0 - 1.0 / estimate) ** (estimate - 1)
    return 1.0 / p_success


def estimate_error_factor(true_value: int, estimate: int) -> float:
    """Return the multiplicative error ``max(est/true, true/est)`` of an estimate."""
    if true_value <= 0 or estimate <= 0:
        return math.inf
    return max(estimate / true_value, true_value / estimate)


# ----------------------------------------------------------------------
# random walks
# ----------------------------------------------------------------------

def exact_mfpt(graph, target: int) -> List[float]:
    """Solve the absorbing-chain system ``(I − Q)·t = 1`` exactly.

    ``Q`` is the walk's transition matrix restricted to the transient
    (non-target) nodes; the solution ``t[u]`` is the expected number of
    steps an unbiased walk starting at slot ``u`` needs to first reach
    ``target``.  Plain Gaussian elimination with partial pivoting over
    stdlib floats — O(n³), the reference the statistical tests hold the
    Monte-Carlo engine (:func:`repro.sim.walks.mean_first_passage_time`)
    to on small graphs.

    Returns:
        A list indexed by slot; ``t[target] == 0.0``.

    Raises:
        ValueError: on a target outside the slot range, a graph with fewer
            than two nodes, an isolated transient node, or a transient node
            with no path to the target (singular system).
    """
    csr = graph.csr()
    n = csr.n
    if n < 2:
        raise ValueError("the absorbing chain needs at least two nodes")
    if not 0 <= target < n:
        raise ValueError(f"target slot {target} outside 0..{n - 1}")
    offsets = csr.offsets
    neighbours = csr.targets
    transient = [u for u in range(n) if u != target]
    column = {u: r for r, u in enumerate(transient)}
    size = n - 1
    # dense augmented rows [I - Q | 1]
    rows = [[0.0] * (size + 1) for _ in range(size)]
    for r, u in enumerate(transient):
        lo = offsets[u]
        degree = offsets[u + 1] - lo
        if degree == 0:
            raise ValueError(f"isolated slot {u} can never reach the target")
        row = rows[r]
        row[r] += 1.0
        row[size] = 1.0
        p = 1.0 / degree
        for k in range(lo, lo + degree):
            v = neighbours[k]
            if v != target:
                row[column[v]] -= p
    # Gaussian elimination with partial pivoting
    for col in range(size):
        pivot = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if abs(rows[pivot][col]) < 1e-12:
            raise ValueError(
                "singular absorbing chain: some node cannot reach the target"
            )
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
        pivot_row = rows[col]
        inv = 1.0 / pivot_row[col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor == 0.0:
                continue
            row = rows[r]
            for c in range(col, size + 1):
                row[c] -= factor * pivot_row[c]
    solution = [0.0] * size
    for r in range(size - 1, -1, -1):
        row = rows[r]
        acc = row[size]
        for c in range(r + 1, size):
            acc -= row[c] * solution[c]
        solution[r] = acc / row[r]
    result = [0.0] * n
    for r, u in enumerate(transient):
        result[u] = solution[r]
    return result


# ----------------------------------------------------------------------
# topology
# ----------------------------------------------------------------------

def diameter_by_sweep(graph) -> int:
    """Return the hop diameter by one BFS from every node.

    The plain n-pass sweep over the CSR rows, the reference the
    eccentricity-bound :func:`repro.topology.properties.diameter` is held
    to.

    Raises:
        ValueError: if the graph is empty or disconnected (same messages as
            the library function).
    """
    csr = graph.csr()
    n = csr.n
    if n == 0:
        raise ValueError("the diameter of an empty graph is undefined")
    offsets = csr.offsets
    rows = [list(csr.targets[offsets[i]:offsets[i + 1]]) for i in range(n)]
    best = 0
    for start in range(n):
        seen = bytearray(n)
        seen[start] = 1
        visited = 1
        frontier = [start]
        depth = 0
        while True:
            next_frontier = []
            for slot in frontier:
                for target in rows[slot]:
                    if not seen[target]:
                        seen[target] = 1
                        next_frontier.append(target)
            if not next_frontier:
                break
            depth += 1
            visited += len(next_frontier)
            frontier = next_frontier
        if visited != n:
            raise ValueError("eccentricity is undefined on a disconnected graph")
        best = max(best, depth)
    return best


def scan_canonical_edges(csr) -> Tuple[List[int], List[int], List[float]]:
    """Return the canonical edge columns read off the filled CSR rows.

    Every row entry to a higher slot, by slot, in row order: the order
    :meth:`repro.topology.graph.CSRView.canonical_edges` must produce from
    the edge stream without reading a row.
    """
    edge_u, edge_v, edge_w = [], [], []
    for u in range(csr.n):
        for k in range(csr.offsets[u], csr.offsets[u + 1]):
            if csr.targets[k] > u:
                edge_u.append(u)
                edge_v.append(csr.targets[k])
                edge_w.append(csr.weights[k])
    return edge_u, edge_v, edge_w


def geometric_pairs_all_pairs(
    n: int, radius: Optional[float] = None, seed: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Return :func:`~repro.topology.generators.random_geometric_graph`'s pairs.

    The all-pairs scan the cell-bucketed generator replaced: the same
    positions (drawn from the same seeded stream), every pair ``u < v``
    tested in ascending ``(u, v)`` order with the same
    ``du * du + dv * dv <= radius * radius`` test.  Before any stitching
    bridge.  A negative or NaN radius is refused, as the generator does.
    """
    rng = random.Random(seed)
    if radius is None:
        radius = math.sqrt(2.0 * math.log(max(n, 2)) / n)
    elif not radius >= 0:
        raise ValueError(f"radius must be a non-negative number, not {radius!r}")
    positions = {node: (rng.random(), rng.random()) for node in range(n)}
    pairs = []
    for u in range(n):
        for v in range(u + 1, n):
            du = positions[u][0] - positions[v][0]
            dv = positions[u][1] - positions[v][1]
            if du * du + dv * dv <= radius * radius:
                pairs.append((u, v))
    return pairs


def ad_hoc_links_all_pairs(
    n: int, seed: int, base_range: Optional[float] = None, power_spread: float = 2.0
) -> Dict[Tuple[int, int], float]:
    """Return :func:`~repro.topology.generators.ad_hoc_affectance_graph`'s
    in-range links, each with its affectance.

    An all-pairs scan over the same draws (x, y, then the range fraction,
    node by node): ``(u, v)`` with ``u < v`` is a link when the stations lie
    within both ranges, and maps to ``max(dist / min(range_u, range_v),
    1e-9)``.  Before any stitching bridge.
    """
    rng = random.Random(seed)
    if base_range is None:
        base_range = math.sqrt(1.5 * math.log(max(n, 2)) / (math.pi * n))
    stations = []
    for _ in range(n):
        x = rng.random()
        y = rng.random()
        stations.append((x, y, base_range * (1.0 + (power_spread - 1.0) * rng.random())))
    links = {}
    for u in range(n):
        for v in range(u + 1, n):
            du = stations[u][0] - stations[v][0]
            dv = stations[u][1] - stations[v][1]
            reach = min(stations[u][2], stations[v][2])
            if du * du + dv * dv <= reach * reach:
                links[(u, v)] = max(math.sqrt(du * du + dv * dv) / reach, 1e-9)
    return links


#: result-file schemas :func:`load_result` reads: the current one, and
#: schema 1, whose ``wall_seconds`` doubles as ``invocation_seconds``
LOADABLE_RESULT_SCHEMAS = (1, RESULT_SCHEMA)


def load_result(data: Mapping[str, Any]) -> ExperimentResult:
    """Rebuild a result from :meth:`ExperimentResult.to_json_dict` output.

    Raises:
        ValueError: on an unknown schema version.
    """
    if data.get("schema") not in LOADABLE_RESULT_SCHEMAS:
        raise ValueError(f"unsupported result schema: {data.get('schema')!r}")
    wall = data.get("wall_seconds", 0.0)
    return ExperimentResult(
        experiment_id=data["experiment"],
        title=data["title"],
        columns=tuple(data["columns"]),
        rows=[dict(row) for row in data["rows"]],
        params=dict(data.get("params", {})),
        preset=data.get("preset", DEFAULT_PRESET),
        wall_seconds=wall,
        invocation_seconds=data.get("invocation_seconds", wall),
        pending_points=data.get("pending_points", 0),
        executor=data.get("executor", "serial"),
    )
