"""The synchronous point-to-point network and the round's checked accept.

The network delivers every message exactly one round after it was sent
(synchronous model, Section 2).  It validates that messages travel only over
existing links and charges every delivery to the shared
:class:`~repro.sim.metrics.MetricsRecorder`.

Both simulators share one message plane.  A flyweight's sends carry their
sender slot, and after each dispatch pass the round's whole send buffer goes
through :func:`file_round`: one pass that checks each send against its own
sender's CSR row, stamps it as a :class:`~repro.sim.events.Message` and
files it under its key.  :meth:`PointToPointNetwork.accept_round` keys the
round by receiver slot — its inboxes — and charges it with one metrics
call; the channel synchronizer keys it by the arrival times it draws.

The network keeps no per-node state: in-flight mail lives in one
``receiver slot → inbox`` dict whose inboxes are created on a receiver's
first mail, so its insertion order is first-mail order, and
:meth:`PointToPointNetwork.deliver` hands the whole dict over.  The
connectivity check is the graph's own, computed once per graph.
"""

from __future__ import annotations

from operator import itemgetter, length_hint
from typing import TYPE_CHECKING, Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.sim.errors import ProtocolError, TopologyError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.adversity import AdversityState
from repro.sim.events import Message
from repro.sim.metrics import MetricsRecorder
from repro.topology.graph import CSRView, WeightedGraph

#: one queued send: (sender, receiver, payload)
Send = Tuple[int, int, Any]

_new_tuple = tuple.__new__
_receiver = itemgetter(1)

#: Rows longer than this are checked through a set: a hub messaging many
#: neighbours costs one set build, not a row scan per message.
_HUB_DEGREE = 16


def file_round(csr: CSRView, sends: Sequence[Send], round_index: int,
               keys: Iterable[Hashable], bins: Dict[Hashable, List[Message]]) -> int:
    """Check, stamp and file the round's ``sends``, in send order.

    Each send is checked against its own sender's CSR row (re-read whenever
    the sender changes, so interleaved senders are each checked against
    their own row), stamped as a :class:`~repro.sim.events.Message` with
    ``round_index``, and appended to ``bins[key]`` for its key from ``keys``
    (a bin is created on first use, so ``bins`` keeps first-use order).

    Returns:
        The number of sends filed: all of them, unless one goes to a node
        that is not its sender's neighbour.  Filing stops before that send;
        the caller charges what was filed and raises a ``ProtocolError``.
    """
    offsets = csr.offsets
    targets = csr.targets
    find = targets.index
    get_bin = bins.get
    current = links = None
    unfiled = iter(sends)
    for (sender, receiver, payload), key in zip(unfiled, keys):
        if sender != current:
            current = sender
            lo = offsets[sender]
            hi = offsets[sender + 1]
            # short rows are searched in place, without a copy
            links = set(targets[lo:hi]) if hi - lo > _HUB_DEGREE else None
        if links is None:
            try:
                find(receiver, lo, hi)
            except ValueError:
                return len(sends) - 1 - length_hint(unfiled)
        elif receiver not in links:
            return len(sends) - 1 - length_hint(unfiled)
        message = _new_tuple(Message, (sender, receiver, payload, round_index))
        filed = get_bin(key)
        if filed is None:
            bins[key] = [message]
        else:
            filed.append(message)
    return len(sends)


class PointToPointNetwork:
    """Synchronous store-and-forward delivery over a fixed topology."""

    def __init__(
        self,
        graph: WeightedGraph,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional["AdversityState"] = None,
    ) -> None:
        """Create a network over ``graph``.

        Args:
            graph: the point-to-point topology.
            metrics: shared complexity accountant; when omitted a private one
                is created (accessible via :attr:`metrics`).
            adversity: optional adversity state; when attached, delivery
                applies the schedule's crash, churn, loss and delay faults
                (see :meth:`deliver`).

        Raises:
            TopologyError: if the graph is empty or not connected (the
                paper's model assumes a connected network).
        """
        csr = graph.csr()
        if csr.n == 0:
            raise TopologyError("cannot build a network over an empty graph")
        if not csr.is_connected():
            raise TopologyError("the point-to-point topology must be connected")
        self._csr = csr
        self.metrics = metrics if metrics is not None else MetricsRecorder()
        # receiver slot -> queued messages, in first-mail order; only
        # receivers with mail have an entry
        self._inboxes: Dict[int, List[Message]] = {}
        self._adversity = adversity
        if adversity is not None:
            adversity.bind_topology(graph)
            self._fault_rng = adversity.spawn_rng()
        else:
            self._fault_rng = None

    def accept_round(self, sends: Sequence[Send], round_index: int) -> None:
        """Accept the round's ``sends`` for delivery at round ``round_index + 1``.

        One :func:`file_round` pass into the inboxes, then one metrics
        charge for the whole round.

        Raises:
            ProtocolError: if a receiver is not adjacent to its sender.  The
                messages before it stay queued for the next :meth:`deliver`
                and counted; it and the rest are dropped.
        """
        csr = self._csr
        filed = file_round(csr, sends, round_index, map(_receiver, sends), self._inboxes)
        if filed:
            self.metrics.record_messages(filed)
        if filed < len(sends):
            sender, receiver, _ = sends[filed]
            raise ProtocolError(
                f"node {sender} attempted to send over a non-existent link to {receiver!r}"
            )

    def deliver(self, round_index: int) -> Dict[int, List[Message]]:
        """Return and clear the inboxes for the start of ``round_index``.

        The inboxes are keyed by receiver slot, in first-mail order.  The
        simulator delivers before it accepts the round's sends, so every
        in-flight message was sent in an earlier round: without adversity
        the whole in-flight dict is handed over and a new one started.

        With an adversity state attached, every due message runs the fault
        gauntlet instead: dropped when the receiver is crashed this round,
        when the link is inside a churn window, or on an independent loss
        draw; surviving messages may be deferred one round on an independent
        delay draw (re-drawn each round, so delays are geometric).  Zero
        adversity means the exact pre-adversity delivery semantics and
        randomness.
        """
        inboxes = self._inboxes
        if not inboxes:
            return {}
        if self._adversity is None:
            self._inboxes = {}
            return inboxes
        return self._deliver_under_adversity(round_index)

    def _deliver_under_adversity(self, round_index: int) -> Dict[int, List[Message]]:
        """Delivery under the attached adversity schedule, message by message.

        Draw order is fixed — receivers in first-mail order, messages in
        inbox order, loss before delay — so a given substream seed always
        produces the same fault trace.
        """
        state = self._adversity
        rng = self._fault_rng
        loss_rate = state.spec.loss_rate
        delay_rate = state.spec.delay_rate
        delivered: Dict[int, List[Message]] = {}
        kept_inboxes: Dict[int, List[Message]] = {}
        for receiver, inbox in self._inboxes.items():
            ready: List[Message] = []
            kept: List[Message] = []
            crashed = state.node_crashed(receiver, round_index)
            for msg in inbox:
                if (crashed or state.link_down(msg.sender, receiver, round_index)
                        or (loss_rate and rng.random() < loss_rate)):
                    state.count_drop()
                elif delay_rate and rng.random() < delay_rate:
                    state.count_delay()
                    kept.append(msg)
                else:
                    ready.append(msg)
            if kept:
                kept_inboxes[receiver] = kept
            if ready:
                delivered[receiver] = ready
        self._inboxes = kept_inboxes
        return delivered

    def has_in_flight(self) -> bool:
        """Return ``True`` when undelivered messages remain in the network."""
        return bool(self._inboxes)
