"""Broadcast-and-respond on a rooted tree (PIF, Segall 1983).

The paper's local computations all reduce to this primitive: the root
broadcasts a request down its tree, every node answers after hearing from all
its children, and answers are combined on the way up with an associative,
commutative operation.  On a tree of radius ``r`` with ``s`` nodes the
primitive takes ``2r`` rounds and ``2(s − 1)`` messages — the counts the
paper charges for Step 1 of the deterministic partition and for the local
stage of the global-sensitive-function algorithms.

Two forms are provided:

* :class:`TreeAggregationFlyweight` — the protocol, run on the simulator as
  a flyweight (:mod:`repro.sim.flyweight`): one shared instance holding all
  per-node state in columnar slots, message-driven so large quiet networks
  cost no dispatch.  Each node is told its parent and children (established
  by a partitioning algorithm beforehand) and its local value.  It is
  message-for-message equivalent to the per-node reference protocol in
  ``tests/oracles.py`` (``tests/test_flyweight.py`` pins the equivalence).
* :func:`simulate_pif` / :func:`simulate_convergecast` /
  :func:`simulate_broadcast` — sequential references returning both the
  aggregate(s) and the exact time/message cost of the distributed execution;
  the orchestrated algorithms use these to charge their local stages.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.protocols.spanning.tree_utils import (
    children_map,
    node_depths,
    roots_of,
)
from repro.sim.events import ChannelEvent, Message
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol

NodeId = Hashable
ParentMap = Dict[NodeId, Optional[NodeId]]
Combine = Callable[[Any, Any], Any]


@dataclass
class PIFCost:
    """Exact cost of one broadcast-and-respond on a forest.

    Attributes:
        rounds: time units (2 × the deepest tree's radius, plus one when the
            result is redistributed to the leaves).
        messages: point-to-point messages (2 per tree edge, plus one per edge
            for redistribution when requested).
    """

    rounds: int
    messages: int


def simulate_convergecast(
    parents: ParentMap,
    values: Dict[NodeId, Any],
    combine: Combine,
) -> Tuple[Dict[NodeId, Any], PIFCost]:
    """Aggregate ``values`` up every tree of the forest.

    Returns:
        ``(root → aggregate of its tree, cost)`` where the cost covers the
        upward wave only (``radius`` rounds, one message per tree edge).
    """
    children = children_map(parents)
    depths = node_depths(parents)
    aggregates: Dict[NodeId, Any] = {}

    order = sorted(parents, key=lambda node: -depths[node])
    partial: Dict[NodeId, Any] = {}
    for node in order:
        value = values[node]
        for child in children[node]:
            value = combine(value, partial[child])
        partial[node] = value
    for root in roots_of(parents):
        aggregates[root] = partial[root]
    radius = max(depths.values()) if depths else 0
    messages = sum(1 for parent in parents.values() if parent is not None)
    return aggregates, PIFCost(rounds=radius, messages=messages)


def simulate_broadcast(parents: ParentMap) -> PIFCost:
    """Return the cost of broadcasting one message from every root to its tree."""
    depths = node_depths(parents)
    radius = max(depths.values()) if depths else 0
    messages = sum(1 for parent in parents.values() if parent is not None)
    return PIFCost(rounds=radius, messages=messages)


def simulate_pif(
    parents: ParentMap,
    values: Dict[NodeId, Any],
    combine: Combine,
    redistribute: bool = False,
) -> Tuple[Dict[NodeId, Any], PIFCost]:
    """Broadcast-and-respond: request down, aggregate up, optionally result down.

    Returns:
        ``(root → aggregate, cost)``; the cost is the full broadcast +
        convergecast (+ redistribution when ``redistribute`` is set).
    """
    aggregates, up = simulate_convergecast(parents, values, combine)
    down = simulate_broadcast(parents)
    rounds = up.rounds + down.rounds
    messages = up.messages + down.messages
    if redistribute:
        rounds += down.rounds
        messages += down.messages
    return aggregates, PIFCost(rounds=rounds, messages=messages)


class TreeAggregationFlyweight(FlyweightProtocol):
    """Broadcast-and-respond over an already-established forest — columnar state.

    Inputs (via ``env.inputs``, one dict per node):
        ``parent``: this node's parent in the forest (``None`` for roots).
        ``children``: list of this node's children.
        ``value``: the local operand.
        ``combine``: the semigroup operation (a two-argument callable shared
            by all nodes).
        ``redistribute`` (bool): when set, each root broadcasts the aggregate
            back down so every node halts knowing its tree's aggregate.

    Output (``results``): the tree aggregate for roots (and for every node
    when ``redistribute`` is set); ``None`` otherwise.

    All per-node state lives in slot-indexed columns: the pending-children
    counts in an ``array('l')``, the reported flags in a ``bytearray``, the
    accumulators in one list.

    The protocol is message-driven (a node with an empty inbox can never
    change state: it either already reported or is waiting for mail), so
    without adversity the simulator loops dispatch only slots with mail — the property
    that makes n = 10⁵ aggregations cost O(messages), not
    O(rounds × nodes).

    The count-based pending column relies on the forest inputs being
    consistent (``children`` maps are exact inverses of ``parent``
    pointers, as :func:`~repro.protocols.spanning.tree_utils.children_map`
    produces), so each child reports at most once and only true children
    report — a per-sender membership check would be redundant.
    """

    MESSAGE_DRIVEN = True

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Load the forest inputs into slot-indexed columns."""
        super().__init__(env)
        num_slots = env.num_slots
        inputs = env.inputs
        parent_col: List[Optional[NodeId]] = [None] * num_slots
        children_col: List[Tuple[NodeId, ...]] = [()] * num_slots
        pending = array("l", [0]) * num_slots
        acc: List[Any] = [None] * num_slots
        redistribute = bytearray(num_slots)
        combine: Optional[Combine] = None
        for slot, node in enumerate(env.nodes):
            extra = inputs[node]
            parent_col[slot] = extra.get("parent")
            children = tuple(extra.get("children", ()))
            children_col[slot] = children
            pending[slot] = len(children)
            acc[slot] = extra["value"]
            if extra.get("redistribute", False):
                redistribute[slot] = 1
            combine = extra["combine"]
        self._parent = parent_col
        self._children = children_col
        self._pending = pending
        self._acc = acc
        self._redistribute = redistribute
        self._reported = bytearray(num_slots)
        self._combine = combine

    def _report(self, slot: int) -> None:
        """Send this slot's aggregate up (or, for a root, resolve its tree)."""
        self._reported[slot] = 1
        parent = self._parent[slot]
        if parent is not None:
            self.send(parent, ("aggregate", self._acc[slot]))
            if not self._redistribute[slot]:
                self.halt_slot(slot, None)
        else:
            if self._redistribute[slot]:
                send = self.send
                final = ("final", self._acc[slot])
                for child in self._children[slot]:
                    send(child, final)
            self.halt_slot(slot, self._acc[slot])

    def on_start(self, slot: int) -> None:
        """Leaves (no pending children) report immediately."""
        if not self._pending[slot]:
            self._report(slot)

    def on_round(self, slot: int, inbox: List[Message],
                 channel: ChannelEvent) -> None:
        """Fold child reports into the accumulator; forward a final value down."""
        pending = self._pending
        for message in inbox:
            kind, payload = message.payload
            if kind == "aggregate":
                pending[slot] -= 1
                self._acc[slot] = self._combine(self._acc[slot], payload)
            else:  # "final"
                send = self.send
                final = ("final", payload)
                for child in self._children[slot]:
                    send(child, final)
                self.halt_slot(slot, payload)
                return
        if not (pending[slot] or self._reported[slot]):
            self._report(slot)
