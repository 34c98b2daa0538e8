"""Common machinery for channel conflict-resolution protocols.

The channel is the paper's Section 2 multiaccess medium: per slot, every
node may write, and all nodes observe the same three-valued feedback
(idle / success / collision).  The conflict-resolution protocols built on
it realise the channel stages of the algorithms: the fragment roots'
broadcasts (Section 5.1), the core schedule of the MST (Section 6), the
Las-Vegas check (Section 4) and the size schedule (Section 7.3).

A *contender* is a node that has something to broadcast (in the paper: a
fragment root holding a partial result).  A conflict-resolution protocol
schedules the contenders so that each one eventually gets a ``success`` slot.
The :class:`ChannelContender` interface captures one contender's local state
machine: each slot it decides whether to transmit, then observes the slot
outcome.  Crucially, the decision may depend only on information the model
makes public — the node's own identity/payload and the sequence of slot
outcomes so far — so that *every* node (contender or not) can follow the
protocol's progress by listening.

:func:`run_contention` is a whole channel stage in one call: it builds the
stage's :class:`~repro.sim.channel.SlottedChannel` (jammed when the
caller's adversity schedule jams), sizes the slot budget and drives the
contenders on it, with no point-to-point network involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.protocols.collision.geometric import run_geometric_contention
from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError
from repro.sim.events import ChannelEvent, SlotState
from repro.sim.metrics import MetricsRecorder

NodeId = Hashable


class ChannelContender:
    """One contender's state machine for a conflict-resolution protocol.

    A contender is resolved once it has had a successful slot: ``observe``
    records that slot (``_succeeded_in_slot``) when the contender
    transmitted in it and it came back *success*, and only then.  The
    scheduler relies on this, rechecking its worklist after success slots
    only.
    """

    def __init__(self, identity: NodeId, payload: Any = None) -> None:
        """Create a contender named ``identity`` that will broadcast ``payload``."""
        self.identity = identity
        self.payload = payload
        self._succeeded_in_slot: Optional[int] = None

    # ------------------------------------------------------------------
    # protocol interface
    # ------------------------------------------------------------------
    def wants_to_transmit(self, slot: int) -> bool:
        """Return ``True`` when this contender transmits in the given slot."""
        raise NotImplementedError

    def observe(self, event: ChannelEvent, transmitted: bool) -> None:
        """Update local state after the slot resolves.

        Args:
            event: the (public) outcome of the slot.
            transmitted: whether *this* contender transmitted in the slot.
        """
        if transmitted and event.is_success():
            self._succeeded_in_slot = event.slot

    @property
    def resolved(self) -> bool:
        """Return ``True`` once this contender has had a successful slot."""
        return self._succeeded_in_slot is not None

    @property
    def success_slot(self) -> Optional[int]:
        """Return the slot in which this contender succeeded, if any."""
        return self._succeeded_in_slot


@dataclass
class ScheduleOutcome:
    """Result of scheduling a set of contenders on the channel.

    Attributes:
        slots_used: total number of channel slots consumed.
        order: the contenders' identities in the order they succeeded.
        broadcasts: the payloads heard, in broadcast order.
        collisions: number of collision slots.
        idle: number of idle slots.
    """

    slots_used: int
    order: List[NodeId]
    broadcasts: List[Any]
    collisions: int
    idle: int


def run_contention(
    contenders: Sequence[ChannelContender],
    max_slots: int = 1_000_000,
    metrics: Optional[MetricsRecorder] = None,
    adversity: Optional[AdversityState] = None,
    network_size: Optional[int] = None,
    skip_ahead: bool = True,
) -> ScheduleOutcome:
    """Run one channel stage: schedule ``contenders`` until all are resolved.

    The stage gets its own :class:`~repro.sim.channel.SlottedChannel`,
    charging ``metrics``.  In the model every node hears every slot; the
    orchestration only delivers observations to the *unresolved*
    contenders, because a resolved contender never transmits again and its
    local state can no longer influence the schedule.

    When every pending contender is a
    :class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggsContender`
    holding one shared estimate and none has heard a success, the schedule
    is sampled by the geometric skip-ahead scheduler
    (:func:`~repro.protocols.collision.geometric.run_geometric_contention`):
    identical outcome distribution, O(1) work per busy slot, idle runs
    skipped in one draw.  Pass ``skip_ahead=False`` to force the per-slot
    loop (the statistical-equivalence tests compare the two paths).

    Args:
        contenders: the stage's contenders.
        max_slots: the slot budget without an adversity schedule.
        metrics: optional accountant the channel charges per slot.
        adversity: the caller's adversity schedule.  The channel jams with
            its jam rate (:meth:`~repro.sim.adversity.AdversityState.channel_adversity`),
            and the budget is its round budget for ``network_size`` nodes
            instead of ``max_slots``.  A jammed channel forces the per-slot
            loop (the skip-ahead models a fault-free Bernoulli field, which
            jamming is not) and turns budget exhaustion into
            :class:`~repro.sim.errors.AdversityAbort` — under jamming,
            running out of slots is the adversary's doing, not a protocol
            bug.
        network_size: the number of nodes the stage runs over (sizes the
            adversity budget); defaults to the number of contenders.

    Raises:
        ProtocolError: if the contenders fail to resolve within the budget
            on a channel without jamming, which indicates a protocol bug or
            an unreachable schedule.
        AdversityAbort: if the budget is exhausted on a jammed channel.
    """
    jam = None
    if adversity is not None:
        jam = adversity.channel_adversity()
        max_slots = adversity.round_budget(
            len(contenders) if network_size is None else network_size
        )
    channel = SlottedChannel(metrics=metrics, adversity=jam)
    order: List[NodeId] = []
    broadcasts: List[Any] = []
    collisions = 0
    idle = 0
    slot = 0
    # only unresolved contenders can transmit or act on what they hear, so
    # track them in a worklist instead of re-scanning the whole field every
    # slot
    # the worklist carries each contender with its two per-slot methods
    # pre-bound: both run once per contender per slot, where the attribute
    # lookups alone are measurable
    pending = [
        (contender, contender.wants_to_transmit, contender.observe)
        for contender in contenders
        if not contender.resolved
    ]
    if skip_ahead and jam is None and pending:
        # imported here: the Metcalfe–Boggs module builds on this one
        from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender

        first = pending[0][0]
        if type(first) is MetcalfeBoggsContender and all(
            type(entry[0]) is MetcalfeBoggsContender
            and entry[0].estimate == first.estimate
            and not entry[0].successes_seen
            for entry in pending
        ):
            return run_geometric_contention(
                [entry[0] for entry in pending], channel, metrics, max_slots
            )
    flags: List[bool] = []
    while pending:
        if slot >= max_slots:
            if metrics is not None:
                metrics.record_round(slot)
            if jam is not None:
                raise AdversityAbort(slot, len(pending))
            raise ProtocolError(
                f"contention did not resolve within {max_slots} slots"
            )
        writes: List[Tuple[NodeId, Any]] = []
        flags.clear()
        for contender, wants_to_transmit, _ in pending:
            transmitted = wants_to_transmit(slot)
            flags.append(transmitted)
            if transmitted:
                writes.append((contender.identity, contender.payload))
        event = channel.resolve_slot(slot, writes)
        state = event.state
        if state is SlotState.SUCCESS:
            order.append(event.writer)
            broadcasts.append(event.payload)
        elif state is SlotState.COLLISION:
            collisions += 1
        else:
            idle += 1
        # one fused pass: deliver the observation and, after a success slot
        # (the only kind that resolves a contender), rebuild the worklist in
        # the same sweep (filtering right after a contender's observe()
        # matches observe-then-filter: its resolution is its own state)
        if state is not SlotState.SUCCESS:
            for entry, transmitted in zip(pending, flags):
                entry[2](event, transmitted)
        else:
            next_pending = []
            for entry, transmitted in zip(pending, flags):
                entry[2](event, transmitted)
                if entry[0]._succeeded_in_slot is None:
                    next_pending.append(entry)
            pending = next_pending
        slot += 1
    # rounds are recorded in one batch: every slot is one time unit, and no
    # caller reads the recorder mid-contention
    if metrics is not None:
        metrics.record_round(slot)
    return ScheduleOutcome(
        slots_used=slot,
        order=order,
        broadcasts=broadcasts,
        collisions=collisions,
        idle=idle,
    )
