"""The slotted multiaccess (collision) channel.

Section 2 of the paper: every node can write to and read from each slot; a
slot is *idle* when no node writes, *success* when exactly one node writes
(its message is then heard by all nodes), and *collision* when two or more
nodes write (detected by all nodes, contents lost).

A resolved slot leaves no record on the channel: its outcome is the returned
:class:`~repro.sim.events.ChannelEvent`, and its cost is charged to the
attached :class:`~repro.sim.metrics.MetricsRecorder`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Optional, Sequence, Tuple

from repro.sim.events import ChannelEvent, SlotState
from repro.sim.metrics import MetricsRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sim.adversity import AdversityState

NodeId = Hashable


class SlottedChannel:
    """Resolves one slot at a time and charges each to the metrics.

    When an :class:`~repro.sim.adversity.AdversityState` with a positive jam
    rate is attached, each resolved slot is independently forced to read
    COLLISION with that rate — the jamming adversary of the adversity layer.
    Jam draws come from a channel-private substream so several channels in
    one run jam independently but deterministically.
    """

    def __init__(
        self,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional["AdversityState"] = None,
    ) -> None:
        """Create a channel, optionally metered and under a jam schedule."""
        self._metrics = metrics
        self._adversity = adversity
        self._jam_rng = adversity.spawn_rng() if adversity is not None else None

    def skip_idle_slots(self, count: int) -> None:
        """Charge ``count`` idle slots in one O(1) batch.

        The skip-ahead contention scheduler
        (:mod:`repro.protocols.collision.geometric`) knows an idle run's
        length without resolving its slots one by one; this charges the run
        to the metrics, when attached, as ``count`` idle slots.

        Raises:
            ValueError: if ``count`` is negative.
        """
        if count < 0:
            raise ValueError("cannot skip a negative number of slots")
        if self._metrics is not None and count:
            self._metrics.record_idle_slots(count)

    def resolve_slot(
        self,
        slot: int,
        writes: Sequence[Tuple[NodeId, object]],
    ) -> ChannelEvent:
        """Resolve slot ``slot`` given the attempted ``(writer, payload)`` writes.

        Returns the :class:`ChannelEvent` every node observes; the metrics
        are charged one slot with ``len(writes)`` write attempts.
        """
        attempts = len(writes)
        if self._adversity is not None and self._adversity.jam_slot(self._jam_rng):
            # a jammed slot reads COLLISION to every node regardless of the
            # actual writes; any written payloads are lost
            if self._metrics is not None:
                self._metrics.record_slot(SlotState.COLLISION, attempts, jammed=True)
            return ChannelEvent(slot=slot, state=SlotState.COLLISION)
        if attempts == 0:
            event = ChannelEvent(slot=slot, state=SlotState.IDLE)
        elif attempts == 1:
            writer, payload = writes[0]
            event = ChannelEvent(
                slot=slot, state=SlotState.SUCCESS, payload=payload, writer=writer
            )
        else:
            event = ChannelEvent(slot=slot, state=SlotState.COLLISION)
        if self._metrics is not None:
            self._metrics.record_slot(event.state, attempts)
        return event
