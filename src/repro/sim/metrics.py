"""Complexity accounting shared by every algorithm and every baseline.

The paper measures algorithms by

* **time** — the number of synchronous rounds (one round of the point-to-point
  network and one channel slot per time unit), and
* **messages** — the number of point-to-point messages sent, and
* **communication complexity** — messages plus time, "this measures the
  information received over both media" (Section 2): the sum of the two
  counters above.

A single :class:`MetricsRecorder` is threaded through the simulator so that
the paper's algorithms and the baselines are charged by the same accountant.
The recorder also tracks channel-slot usage broken down by outcome, which the
collision-resolution experiments report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.sim.events import SlotState


@dataclass
class MetricsSnapshot:
    """An immutable snapshot of the counters of a :class:`MetricsRecorder`."""

    rounds: int
    point_to_point_messages: int
    channel_slots: int
    channel_idle: int
    channel_success: int
    channel_collision: int
    channel_write_attempts: int
    phase_messages: Dict[str, int]
    phase_rounds: Dict[str, int]
    channel_jammed: int = 0


@dataclass
class MetricsRecorder:
    """Mutable counters describing one simulation (or one algorithm phase).

    The recorder can attribute messages and rounds to named phases via
    :meth:`set_phase`; experiments use this to separate, e.g., the local
    (point-to-point) stage from the global (channel) stage of the
    global-sensitive-function algorithms.
    """

    rounds: int = 0
    point_to_point_messages: int = 0
    channel_slots: int = 0
    channel_idle: int = 0
    channel_success: int = 0
    channel_collision: int = 0
    channel_write_attempts: int = 0
    channel_jammed: int = 0
    phase_messages: Dict[str, int] = field(default_factory=dict)
    phase_rounds: Dict[str, int] = field(default_factory=dict)
    _phase: Optional[str] = None

    # ------------------------------------------------------------------
    # phase attribution
    # ------------------------------------------------------------------
    def set_phase(self, phase: Optional[str]) -> None:
        """Attribute subsequent messages and rounds to ``phase`` (or to none)."""
        self._phase = phase

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_round(self, count: int = 1) -> None:
        """Charge ``count`` elapsed rounds (time units)."""
        if count < 0:
            raise ValueError("cannot record a negative number of rounds")
        self.rounds += count
        if self._phase is not None:
            self.phase_rounds[self._phase] = (
                self.phase_rounds.get(self._phase, 0) + count
            )

    def record_messages(self, count: int = 1) -> None:
        """Charge ``count`` point-to-point messages."""
        if count < 0:
            raise ValueError("cannot record a negative number of messages")
        self.point_to_point_messages += count
        if self._phase is not None:
            self.phase_messages[self._phase] = (
                self.phase_messages.get(self._phase, 0) + count
            )

    def record_slot(self, state: SlotState, attempts: int, jammed: bool = False) -> None:
        """Charge one channel slot that resolved to ``state`` with ``attempts`` writers.

        ``jammed`` marks a slot the adversity layer forced to COLLISION; it
        is counted both as a collision and in the ``channel_jammed`` tally so
        experiments can separate genuine contention from jamming.
        """
        self.channel_slots += 1
        self.channel_write_attempts += attempts
        if jammed:
            self.channel_jammed += 1
        if state is SlotState.IDLE:
            self.channel_idle += 1
        elif state is SlotState.SUCCESS:
            self.channel_success += 1
        else:
            self.channel_collision += 1

    def record_idle_slots(self, count: int) -> None:
        """Charge ``count`` idle channel slots in one batch.

        Equivalent to ``count`` calls of ``record_slot(SlotState.IDLE, 0)``;
        used by the skip-ahead fast paths so a fast-forwarded idle run costs
        O(1) accounting instead of one call per slot.

        Raises:
            ValueError: if ``count`` is negative.
        """
        if count < 0:
            raise ValueError("cannot record a negative number of slots")
        self.channel_slots += count
        self.channel_idle += count

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """Return an immutable copy of the current counters."""
        return MetricsSnapshot(
            rounds=self.rounds,
            point_to_point_messages=self.point_to_point_messages,
            channel_slots=self.channel_slots,
            channel_idle=self.channel_idle,
            channel_success=self.channel_success,
            channel_collision=self.channel_collision,
            channel_write_attempts=self.channel_write_attempts,
            phase_messages=dict(self.phase_messages),
            phase_rounds=dict(self.phase_rounds),
            channel_jammed=self.channel_jammed,
        )
