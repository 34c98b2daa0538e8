"""Flyweight protocols: one shared instance drives every node via state slots.

Every protocol the simulators run is a flyweight.  A per-node object layout
(one protocol object plus context, outbox and random source per node per
run) made allocation, not the algorithm, dominate the sim-bound sweep points
at n = 10⁵: building 10⁵ objects to exchange 3 × 10⁵ messages.  A flyweight
inverts the layout:

* **one** instance per run holds all per-node state in columnar slots —
  ``bytearray``/``array``/list columns indexed by a dense slot id assigned
  in node order — instead of n objects holding one attribute each;
* the simulator calls ``on_start(slot)`` / ``on_round(slot, inbox, event)``
  with the slot index; helpers (:meth:`FlyweightProtocol.send`,
  :meth:`FlyweightProtocol.halt_slot`) update the shared columns;
* sends accumulate in one contiguous per-round buffer; the simulator slices
  each acting node's segment off the tail, preserving the exact per-node
  message grouping (and therefore delivery order);
* per-node randomness comes from the :mod:`repro.sim.substreams` family on
  the environment — derived on demand, never pre-built.

A flyweight may additionally declare ``MESSAGE_DRIVEN = True``: its
``on_round`` with an empty inbox is a no-op (it reacts to mail only, never
to channel feedback or the passage of rounds).  Without adversity the
simulator loops then dispatch **only slots with mail** — on a 10⁵-node
aggregation whose waves keep most nodes quiet this removes ~99% of all
dispatch calls, which profiling showed to be the real wall (≈2 × 10⁸
empty-inbox calls per e10 sweep point at n = 102400).

Equivalence contract: a flyweight must be indistinguishable — same messages
in the same order, same channel writes, same metrics, same results — from
n independent per-node instances of the protocol it mirrors.  Under
adversity the loops scan every slot so fault draws stay in one fixed order.
``tests/oracles.py`` keeps per-node reference protocols and an adapter that
runs them on these same loops; ``tests/test_flyweight.py`` pins every
flyweight against its oracle, and the v3 goldens pin the adversity
fingerprints.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.events import ChannelEvent, Message
from repro.sim.substreams import NodeStreams

NodeId = Hashable


class FlyweightEnvironment:
    """Everything a flyweight run needs to know about the network, built once.

    The environment is one object holding the topology columns in slot
    order.  A simulator builds it once per network
    object (the topology rows are cached on the graph) and mutates only
    ``inputs`` between runs, so repeated runs on one sweep point reuse every
    materialised structure.

    Attributes:
        nodes: node ids in slot order (``nodes[slot]`` is the id of ``slot``).
        slot_of: inverse mapping, node id → slot index.
        neighbors: per-slot neighbour-id tuples.
        link_weights: per-slot ``{neighbour: weight}`` dicts (shared with the
            simulator's cached rows — read-only).
        n: the number of nodes when the protocol is told it, else ``None``.
        streams: the per-node random substream family
            (:class:`~repro.sim.substreams.NodeStreams`).
        inputs: per-node input mapping for the current run; reassigned by
            the simulator per run.
    """

    __slots__ = ("nodes", "slot_of", "neighbors", "link_weights", "n",
                 "streams", "inputs")

    def __init__(
        self,
        nodes: Tuple[NodeId, ...],
        neighbors: Tuple[Tuple[NodeId, ...], ...],
        link_weights: Tuple[Dict[NodeId, float], ...],
        n: Optional[int],
        streams: NodeStreams,
    ) -> None:
        """Assemble the columnar environment from topology rows."""
        self.nodes = nodes
        self.slot_of: Dict[NodeId, int] = {
            node: slot for slot, node in enumerate(nodes)
        }
        self.neighbors = neighbors
        self.link_weights = link_weights
        self.n = n
        self.streams = streams
        self.inputs: Mapping[NodeId, Dict[str, Any]] = {}

    @property
    def num_slots(self) -> int:
        """Return the number of node slots."""
        return len(self.nodes)


class FlyweightProtocol:
    """Base class for slot-indexed shared-instance protocols.

    Subclasses override :meth:`on_start` and :meth:`on_round` (both take a
    slot index) and keep all per-node state in columns sized
    ``env.num_slots``.  Within the callbacks they may call :meth:`send`,
    :meth:`channel_write` and :meth:`halt_slot`.

    The one-message-per-link-per-round rule is **not** re-validated here:
    flyweight send patterns are structurally duplicate-free.  Link adjacency
    is still validated by the network's ``accept_sends``.
    """

    #: Set by subclasses whose ``on_round`` ignores empty inboxes entirely;
    #: lets the simulator loops dispatch only slots with mail when no
    #: adversity is attached.
    MESSAGE_DRIVEN = False

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Allocate the sim-facing columns for ``env.num_slots`` slots."""
        self.env = env
        num_slots = env.num_slots
        #: 1 once the slot's node has halted (sim skips its dispatch).
        self.halted = bytearray(num_slots)
        #: per-slot declared local outputs.
        self.results: List[Any] = [None] * num_slots
        #: number of slots that have not halted yet.
        self.active_count = num_slots
        # contiguous per-round action buffers; the simulator slices each
        # acting slot's tail segment and clears them once per round
        self._sends: List[Tuple[NodeId, Any]] = []
        self._writes: List[Tuple[NodeId, Any]] = []

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------
    def send(self, neighbor: NodeId, payload: Any) -> None:
        """Queue ``payload`` for the current slot's node to ``neighbor``."""
        self._sends.append((neighbor, payload))

    def channel_write(self, node: NodeId, payload: Any) -> None:
        """Attempt to broadcast ``payload`` as ``node`` in the current slot."""
        self._writes.append((node, payload))

    def halt_slot(self, slot: int, result: Any = None) -> None:
        """Declare ``slot``'s local algorithm finished with ``result``."""
        if not self.halted[slot]:
            self.halted[slot] = 1
            self.active_count -= 1
        self.results[slot] = result

    # ------------------------------------------------------------------
    # callbacks to override
    # ------------------------------------------------------------------
    def on_start(self, slot: int) -> None:
        """Called once per slot, on its first dispatch, before its sends are collected.

        That is round 0 unless the slot's node starts the run crashed; a slot
        already halted is never started.
        """

    def on_round(self, slot: int, inbox: Sequence[Message],
                 channel: ChannelEvent) -> None:
        """Called with a slot's newly delivered messages and slot feedback.

        A ``MESSAGE_DRIVEN`` subclass is never called with an empty inbox
        when no adversity is attached; under adversity the full scan may
        still pass one, and the subclass must treat it as a no-op to honour
        its declaration.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # simulator-facing plumbing
    # ------------------------------------------------------------------
    def results_by_node(self) -> Dict[NodeId, Any]:
        """Return the per-node results keyed by node id (slot order)."""
        results = self.results
        return {node: results[slot] for slot, node in enumerate(self.env.nodes)}

