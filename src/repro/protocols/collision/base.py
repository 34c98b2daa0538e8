"""Common machinery for channel conflict-resolution protocols.

The channel is the paper's Section 2 multiaccess medium: per slot, every
node may write, and all nodes observe the same three-valued feedback
(idle / success / collision).  The conflict-resolution protocols built on
it realise the root-scheduling stages of Sections 5 and 6.

A *contender* is a node that has something to broadcast (in the paper: a
fragment root holding a partial result).  A conflict-resolution protocol
schedules the contenders so that each one eventually gets a ``success`` slot.
The :class:`ChannelContender` interface captures one contender's local state
machine: each slot it decides whether to transmit, then observes the slot
outcome.  Crucially, the decision may depend only on information the model
makes public — the node's own identity/payload and the sequence of slot
outcomes so far — so that *every* node (contender or not) can follow the
protocol's progress by listening.

:func:`run_contention` drives a set of contenders against a
:class:`~repro.sim.channel.SlottedChannel` directly (no point-to-point
network involved), which is how the larger algorithms account for their
channel stage.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Tuple

from repro.protocols.collision.geometric import run_geometric_contention
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError
from repro.sim.events import ChannelEvent, SlotState
from repro.sim.metrics import MetricsRecorder

NodeId = Hashable


class ChannelContender:
    """One contender's state machine for a conflict-resolution protocol.

    Class attribute ``RESOLVES_ONLY_ON_SUCCESS`` declares when ``resolved``
    can flip: the base implementation (and both concrete protocols) resolve a
    contender only in a slot it transmitted in that came back *success*.  A
    subclass whose ``observe``/``resolved`` can report resolution after an
    idle or collision slot must set it to ``False`` so the scheduler rechecks
    the worklist after every slot instead of only after successes.

    Class attribute ``GEOMETRIC_CONTENTION`` opts a protocol into the
    geometric skip-ahead scheduler
    (:mod:`repro.protocols.collision.geometric`).  A subclass may set it to
    ``True`` only when its instances transmit independently per slot with a
    probability that (a) is shared by every contender with an equal
    :meth:`contention_signature` and (b) depends only on the publicly heard
    success count (:meth:`contention_rate`); it must then also implement
    :meth:`skip_ahead_rng` and :meth:`commit_skip_ahead`.  Deterministic
    protocols (e.g. Capetanakis tree splitting) keep the default ``False``
    and run slot by slot, which preserves their exact slot traces.
    """

    RESOLVES_ONLY_ON_SUCCESS = True
    GEOMETRIC_CONTENTION = False

    def __init__(self, identity: NodeId, payload: Any = None) -> None:
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

    # ------------------------------------------------------------------
    # geometric skip-ahead capability (see GEOMETRIC_CONTENTION above)
    # ------------------------------------------------------------------
    def contention_signature(self) -> object:
        """Return a value equal across contenders sharing one rate schedule.

        The skip-ahead scheduler only engages when every pending contender
        reports the same signature — a batch mixing, say, two different
        contender-count estimates is not a homogeneous Bernoulli field and
        falls back to the per-slot loop.
        """
        raise NotImplementedError

    def contention_rate(self, successes_seen: int) -> float:
        """Return the per-slot transmit probability after ``successes_seen``.

        Must be a pure function of the publicly heard success count so the
        scheduler can maintain it centrally instead of delivering every slot
        outcome to every contender.
        """
        raise NotImplementedError

    def contention_successes_seen(self) -> int:
        """Return how many successes this contender has already heard.

        The scheduler resumes its central success count from here, so a
        batch that already observed part of a schedule (e.g. survivors of a
        budget-failed run) keeps contending at the correct rate.
        """
        raise NotImplementedError

    def skip_ahead_rng(self) -> "random.Random":
        """Return the private random source driving this contender's draws."""
        raise NotImplementedError

    def commit_skip_ahead(self, slot: Optional[int], successes_seen: int) -> None:
        """Sync local state after a skip-ahead run touched this contender.

        Called with the winning ``slot`` when the contender is scheduled, or
        with ``slot=None`` when the run failed its budget while the contender
        was still pending.  ``successes_seen`` counts every success heard so
        far, including the contender's own.
        """
        if slot is not None:
            self._succeeded_in_slot = slot


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
    channel: Optional[SlottedChannel] = None,
    start_slot: int = 0,
    skip_ahead: bool = True,
) -> ScheduleOutcome:
    """Schedule ``contenders`` on a slotted channel until all are resolved.

    In the model every node hears every slot; the orchestration only delivers
    observations to the *unresolved* contenders, because a resolved contender
    never transmits again and its local state can no longer influence the
    schedule.

    When every pending contender opts into ``GEOMETRIC_CONTENTION`` with a
    shared :meth:`~ChannelContender.contention_signature`, the schedule is
    sampled by the geometric skip-ahead scheduler
    (:func:`~repro.protocols.collision.geometric.run_geometric_contention`):
    identical outcome distribution, O(1) work per busy slot, idle runs
    skipped in one draw.  Pass ``skip_ahead=False`` to force the per-slot
    loop (the statistical-equivalence tests compare the two paths).

    A channel carrying a jamming adversity state forces the per-slot loop
    (the skip-ahead scheduler models a fault-free Bernoulli field, which
    jamming is not) and converts budget exhaustion into
    :class:`~repro.sim.errors.AdversityAbort` — under jamming, running out
    of slots is the adversary's doing, not a protocol bug.

    Raises:
        ProtocolError: if the contenders fail to resolve within ``max_slots``
            slots, which indicates a protocol bug or an unreachable schedule.
        AdversityAbort: if the budget is exhausted on a jammed channel.
    """
    channel = channel if channel is not None else SlottedChannel(metrics=metrics)
    adversity = channel.adversity
    if adversity is not None:
        skip_ahead = False
    order: List[NodeId] = []
    broadcasts: List[Any] = []
    collisions = 0
    idle = 0
    slot = start_slot
    used = 0
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
    if (
        skip_ahead
        and pending
        and all(type(entry[0]).GEOMETRIC_CONTENTION for entry in pending)
    ):
        # homogeneity covers the whole public schedule state: the shared
        # signature *and* an agreed count of successes already heard (a
        # partially-observed batch resumes at its current rate, not at zero)
        signatures = {
            (entry[0].contention_signature(), entry[0].contention_successes_seen())
            for entry in pending
        }
        if len(signatures) == 1:
            start_successes = pending[0][0].contention_successes_seen()
            return run_geometric_contention(
                pending,
                rate=pending[0][0].contention_rate(start_successes),
                channel=channel,
                metrics=metrics,
                max_slots=max_slots,
                start_slot=start_slot,
                start_successes=start_successes,
            )
    # when every contender resolves only in its own successful slot (the
    # declared default), the worklist can stay untouched after idle and
    # collision slots; and when none overrides `resolved`, the filter can
    # read the backing field instead of going through the property
    success_only = all(
        type(contender).RESOLVES_ONLY_ON_SUCCESS for contender, _, _ in pending
    )
    plain_resolved = all(
        type(contender).resolved is ChannelContender.resolved
        for contender, _, _ in pending
    )
    flags: List[bool] = []
    while pending:
        if used >= max_slots:
            if metrics is not None:
                metrics.record_round(used)
            if adversity is not None:
                raise AdversityAbort(used, len(pending))
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
        public = event.public_view()
        state = event.state
        if state is SlotState.SUCCESS:
            order.append(event.writer)
            broadcasts.append(event.payload)
        elif state is SlotState.COLLISION:
            collisions += 1
        else:
            idle += 1
        # one fused pass: deliver the observation and, when this slot could
        # have resolved someone, rebuild the worklist in the same sweep
        # (`resolved` depends only on the contender's own state, so filtering
        # right after its observe() matches the old observe-then-filter)
        if success_only and state is not SlotState.SUCCESS:
            for entry, transmitted in zip(pending, flags):
                entry[2](public, transmitted)
        elif plain_resolved:
            next_pending = []
            for entry, transmitted in zip(pending, flags):
                entry[2](public, transmitted)
                if entry[0]._succeeded_in_slot is None:
                    next_pending.append(entry)
            pending = next_pending
        else:
            next_pending = []
            for entry, transmitted in zip(pending, flags):
                entry[2](public, transmitted)
                if not entry[0].resolved:
                    next_pending.append(entry)
            pending = next_pending
        slot += 1
        used += 1
    # rounds are recorded in one batch: every slot is one time unit, and no
    # caller reads the recorder mid-contention
    if metrics is not None:
        metrics.record_round(used)
    return ScheduleOutcome(
        slots_used=used,
        order=order,
        broadcasts=broadcasts,
        collisions=collisions,
        idle=idle,
    )

