"""Flyweight protocols: one shared instance drives every node via state slots.

Every protocol the simulators run is a flyweight.  A per-node object layout
(one protocol object plus context, outbox and random source per node per
run) made allocation, not the algorithm, dominate the sim-bound sweep points
at n = 10⁵: building 10⁵ objects to exchange 3 × 10⁵ messages.  A flyweight
inverts the layout:

* **one** instance per run holds all per-node state in columnar slots —
  ``bytearray``/``array``/list columns indexed by slot (slot ``i`` is node
  ``i``) — instead of n objects holding one attribute each;
* the simulator makes **one** call per round: ``on_start(slots)`` on the
  start pulse, ``on_round(slots, inboxes, event)`` afterwards, with the
  slots to dispatch in slot order; helpers (:meth:`FlyweightProtocol.send`,
  :meth:`FlyweightProtocol.halt_slot`) update the shared columns;
* every send records its sender slot in one per-round buffer, which the
  simulator hands whole to the network's checked accept after the call, so
  sends keep their slot order (and therefore delivery order);
* per-node randomness comes from the :mod:`repro.sim.substreams` family on
  the environment — derived on demand, never pre-built.

A flyweight may additionally declare ``MESSAGE_DRIVEN = True``: a slot with
an empty inbox is a no-op for it (it reacts to mail only, never to channel
feedback or the passage of rounds).  The simulator loops then dispatch
**only slots with mail** — on a 10⁵-node aggregation whose waves keep most
nodes quiet this skips ~99% of all slot visits, which profiling showed to
be the real wall (≈2 × 10⁸ empty-inbox visits per e10 sweep point at
n = 102400).

Equivalence contract: a flyweight must be indistinguishable — same messages
in the same order, same channel writes, same metrics, same results — from
n independent per-node instances of the protocol it mirrors.  Under an
adversity schedule with crash windows the loops scan every slot, so crash
skips and deferred starts keep one fixed order.
``tests/oracles.py`` keeps per-node reference protocols and an adapter that
runs them on these same loops; ``tests/test_flyweight.py`` pins every
flyweight against its oracle, and the v3 goldens pin the adversity
fingerprints.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.events import ChannelEvent, Message
from repro.sim.substreams import NodeStreams
from repro.topology.graph import CSRView


class FlyweightEnvironment:
    """Everything a flyweight run needs to know about the network.

    The environment wraps the graph's CSR view
    (:meth:`~repro.topology.graph.WeightedGraph.csr`) instead of copying it:
    building one is O(1), so a simulator builds a fresh environment per run
    and nothing per node is materialised up front.  Slot ``i`` is node
    ``i``; its neighbours and link weights are its CSR row.

    Attributes:
        csr: the graph's CSR view the environment describes.
        streams: the per-node random substream family
            (:class:`~repro.sim.substreams.NodeStreams`).
    """

    __slots__ = ("csr", "streams")

    def __init__(self, csr: CSRView, streams: Optional[NodeStreams]) -> None:
        """Wrap ``csr``; O(1) — every column is shared."""
        self.csr = csr
        self.streams = streams

    @property
    def num_slots(self) -> int:
        """Return the number of node slots."""
        return self.csr.n


class FlyweightProtocol:
    """Base class for slot-indexed shared-instance protocols.

    Subclasses override :meth:`on_start` and :meth:`on_round` (both take the
    round's slot batch) and keep all per-node state in columns sized
    ``env.num_slots``.  Within the callbacks they may call :meth:`send`,
    :meth:`channel_write` and :meth:`halt_slot`.

    Both callbacks visit their slots in the order given and **skip a slot
    whose** ``halted`` **flag is set when its turn comes**: an earlier slot
    of the same batch may have halted it.

    The one-message-per-link-per-round rule is **not** re-validated here:
    flyweight send patterns are structurally duplicate-free.  Link adjacency
    is still validated by the round's accept
    (:func:`~repro.sim.network.file_round`).

    The simulators run their loops with the cyclic garbage collector held
    (:func:`~repro.sim.collector.collector_paused`): a protocol must not
    rely on cycle collection mid-run.  Whatever it allocates should be
    freed by reference counting — columns, payloads and per-round scratch
    that hold no reference back to the protocol — or it stays in memory
    until the run returns.
    """

    #: Set by subclasses for which a slot with an empty inbox is a no-op;
    #: the simulator loops then dispatch only slots with mail.
    MESSAGE_DRIVEN = False

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Allocate the sim-facing columns for ``env.num_slots`` slots."""
        self.env = env
        num_slots = env.num_slots
        #: 1 once the slot's node has halted (it is never dispatched again).
        self.halted = bytearray(num_slots)
        #: per-slot declared local outputs.
        self.results: List[Any] = [None] * num_slots
        #: number of slots that have not halted yet.
        self.active_count = num_slots
        # the round's actions, in slot order; the simulator hands them on and
        # clears them once per round: (sender, receiver, payload) sends and
        # (node, payload) channel writes
        self._sends: List[Tuple[int, int, Any]] = []
        self._writes: List[Tuple[int, Any]] = []

    # ------------------------------------------------------------------
    # API for subclasses
    # ------------------------------------------------------------------
    def send(self, slot: int, neighbor: int, payload: Any) -> None:
        """Queue ``payload`` from ``slot``'s node to its neighbour ``neighbor``."""
        self._sends.append((slot, neighbor, payload))

    def channel_write(self, node: int, payload: Any) -> None:
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
    def on_start(self, slots: Iterable[int]) -> None:
        """Start each slot of ``slots``, on its first dispatch.

        That is the start pulse (round 0) unless the slot's node starts the
        run crashed; a slot halted by then is never started.
        """

    def on_round(self, slots: Iterable[int],
                 inboxes: Mapping[int, Sequence[Message]],
                 channel: ChannelEvent) -> None:
        """Run one round for each slot of ``slots``.

        ``inboxes`` maps a slot to its newly delivered messages, in delivery
        order; a slot without mail has no entry (a ``MESSAGE_DRIVEN``
        protocol is only ever given slots with mail).  ``channel`` is the
        previous channel slot's event, the same for every slot.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------
    # simulator-facing plumbing
    # ------------------------------------------------------------------
    def results_by_node(self) -> Dict[int, Any]:
        """Return the per-node results keyed by node."""
        return dict(enumerate(self.results))

