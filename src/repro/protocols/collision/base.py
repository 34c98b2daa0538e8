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
contenders on it, with no point-to-point network involved.  Capetanakis'
protocol is all public state — one stack of identifier intervals that
every listener rebuilds from the slot outcomes — so a
:class:`~repro.protocols.collision.capetanakis.CapetanakisContender` batch
is scheduled by walking that one stack over the contenders sorted by
identity (O(log k) work per slot) instead of asking each contender every
slot; the per-slot state machine is kept as the test reference
(``tests/oracles.py:SlotByCapetanakis``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Hashable, List, NoReturn, Optional, Sequence, Tuple

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
    per-slot scheduler relies on this, rechecking its worklist after
    success slots only.  A protocol whose whole state is public may leave
    both methods abstract and be scheduled by :func:`run_contention` itself,
    as Capetanakis' tree walk is.
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

        An override records ``event.slot`` in ``_succeeded_in_slot`` when
        ``transmitted`` and the slot came back *success*.

        Args:
            event: the (public) outcome of the slot.
            transmitted: whether *this* contender transmitted in the slot.
        """
        raise NotImplementedError

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


#: sample a fresh homogeneous Metcalfe–Boggs batch by the geometric
#: skip-ahead; the statistical-equivalence tests turn it off to compare the
#: skip-ahead with the per-slot loop
SKIP_AHEAD = True


def run_contention(
    contenders: Sequence[ChannelContender],
    max_slots: int = 1_000_000,
    metrics: Optional[MetricsRecorder] = None,
    adversity: Optional[AdversityState] = None,
    network_size: Optional[int] = None,
) -> ScheduleOutcome:
    """Run one channel stage: schedule ``contenders`` until all are resolved.

    The stage gets its own :class:`~repro.sim.channel.SlottedChannel`,
    charging ``metrics``.  In the model every node hears every slot; the
    orchestration only delivers observations to the *unresolved*
    contenders, because a resolved contender never transmits again and its
    local state can no longer influence the schedule.  The unresolved
    contenders are scheduled one of three ways:

    * a batch of
      :class:`~repro.protocols.collision.capetanakis.CapetanakisContender`
      is walked down the protocol's one public interval stack
      (:func:`_walk_interval_tree`): each slot's writers are the contenders
      whose identities lie in the top interval, found by two bisections,
      so a slot costs O(log k) Python steps and one list slice rather than
      a call per contender.  Each call starts a fresh walk over the batch;
    * when every contender is a
      :class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggsContender`
      holding one shared estimate and none has heard a success, the
      schedule is sampled by the geometric skip-ahead scheduler
      (:func:`~repro.protocols.collision.geometric.run_geometric_contention`):
      identical outcome distribution, O(1) work per busy slot, idle runs
      skipped in one draw (unless :data:`SKIP_AHEAD` is off);
    * any other batch runs the per-slot loop, which asks every pending
      contender ``wants_to_transmit`` and hands it the slot's ``observe``.

    The walk and the per-slot loop resolve every slot on the stage's
    channel, so both draw the same jams, charge the same slots and write
    attempts and run out of budget alike; the skip-ahead, which never runs
    jammed, charges each idle run it skips in one batch.

    Args:
        contenders: the stage's contenders.
        max_slots: the slot budget without an adversity schedule.
        metrics: optional accountant the channel charges per slot.
        adversity: the caller's adversity schedule.  The channel jams with
            its jam rate (:meth:`~repro.sim.adversity.AdversityState.channel_adversity`),
            and the budget is its round budget for ``network_size`` nodes
            instead of ``max_slots``.  A jammed channel rules out the
            skip-ahead (which models a fault-free Bernoulli field, which
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
        ValueError: if the unresolved contenders mix Capetanakis
            contenders with other kinds, or Capetanakis contenders over
            different universes: they share no one interval stack.
    """
    jam = None
    if adversity is not None:
        jam = adversity.channel_adversity()
        max_slots = adversity.round_budget(
            len(contenders) if network_size is None else network_size
        )
    channel = SlottedChannel(metrics=metrics, adversity=jam)
    pending = [contender for contender in contenders if not contender.resolved]
    # imported here: both protocol modules build on this one
    from repro.protocols.collision.capetanakis import CapetanakisContender
    from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender

    walked = [
        contender for contender in pending if isinstance(contender, CapetanakisContender)
    ]
    if walked:
        universe = walked[0].universe_size
        if len(walked) != len(pending) or any(
            contender.universe_size != universe for contender in walked
        ):
            raise ValueError(
                "a Capetanakis stage holds only Capetanakis contenders over "
                "one identifier universe"
            )
        return _walk_interval_tree(walked, universe, channel, jam, metrics, max_slots)
    if SKIP_AHEAD and jam is None and pending:
        first = pending[0]
        if type(first) is MetcalfeBoggsContender and all(
            type(contender) is MetcalfeBoggsContender
            and contender.estimate == first.estimate
            and not contender.successes_seen
            for contender in pending
        ):
            return run_geometric_contention(pending, channel, metrics, max_slots)
    return _per_slot(pending, channel, jam, metrics, max_slots)


def _exhausted(
    slot: int,
    pending: int,
    jam: Optional[AdversityState],
    metrics: Optional[MetricsRecorder],
    max_slots: int,
) -> NoReturn:
    """Charge the ``slot`` rounds spent and raise the budget's error."""
    if metrics is not None:
        metrics.record_round(slot)
    if jam is not None:
        raise AdversityAbort(slot, pending)
    raise ProtocolError(f"contention did not resolve within {max_slots} slots")


def _walk_interval_tree(
    batch: List[Any],
    universe: int,
    channel: SlottedChannel,
    jam: Optional[AdversityState],
    metrics: Optional[MetricsRecorder],
    max_slots: int,
) -> ScheduleOutcome:
    """Schedule unresolved Capetanakis contenders by one walk of the stack.

    The interval stack (:mod:`repro.protocols.collision.capetanakis`) is
    walked once for the whole batch, sorted by identity, so each slot's
    writers are one bisected run of the batch.
    """
    batch.sort(key=attrgetter("identity"))
    identities = [contender.identity for contender in batch]
    writes = [(contender.identity, contender.payload) for contender in batch]
    resolve = channel.resolve_slot
    success = SlotState.SUCCESS
    collision = SlotState.COLLISION
    order: List[NodeId] = []
    broadcasts: List[Any] = []
    collisions = 0
    idle = 0
    slot = 0
    unresolved = len(batch)
    # the stack is never empty while a contender is unresolved: every
    # identity lies in the root interval, and an interval leaves the stack
    # only on an idle slot (it holds no contender) or a success (it holds
    # one, now resolved), so the intervals left cover every unresolved
    # identity
    stack = [(0, universe)]
    while unresolved:
        if slot >= max_slots:
            _exhausted(slot, unresolved, jam, metrics, max_slots)
        low, high = stack.pop()
        # no resolved contender lies in a popped interval: the stack's
        # intervals are disjoint, and a retired interval is never revisited,
        # so this run of the batch is exactly the slot's pending writers
        first = bisect_left(identities, low)
        event = resolve(slot, writes[first:bisect_left(identities, high, first)])
        state = event.state
        if state is success:
            batch[first]._succeeded_in_slot = slot
            order.append(event.writer)
            broadcasts.append(event.payload)
            unresolved -= 1
        elif state is collision:
            # a jammed slot reads collision to everyone, so a jammed success
            # (or idle) slot splits its interval like a real collision: a
            # one-identity interval comes back whole (mid == low)
            collisions += 1
            mid = (low + high) // 2
            stack.append((mid, high))
            if low < mid:
                stack.append((low, mid))
        else:
            idle += 1
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


def _per_slot(
    contenders: List[ChannelContender],
    channel: SlottedChannel,
    jam: Optional[AdversityState],
    metrics: Optional[MetricsRecorder],
    max_slots: int,
) -> ScheduleOutcome:
    """Schedule ``contenders`` slot by slot through their state machines."""
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
    ]
    flags: List[bool] = []
    while pending:
        if slot >= max_slots:
            _exhausted(slot, len(pending), jam, metrics, max_slots)
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
