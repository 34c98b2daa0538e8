"""Randomized channel access in the style of Metcalfe and Boggs (Ethernet, 1976).

The paper's randomized global-computation stage schedules the ≈√n fragment
roots on the channel using randomized access: because the algorithm has an
estimate ``k`` of the number of contenders, each unresolved contender simply
transmits in every slot with probability ``1/k̂``, where ``k̂`` is ``k`` less
the successes heard so far.  While ``k̂`` tracks the number of *remaining*
contenders, a slot is successful with probability ``≈ 1/e``, so each
contender is scheduled in O(1) expected slots and all ``k`` in O(k) — the
bound the paper uses ("O(1) expected time per root", Section 5.1).  An
estimate above the true count breaks that bound: with the fixed public
estimate ``2√n`` its callers pass for about √n roots, the last roots transmit
at about ``1/√n`` and the schedule takes Θ(√n log n) slots (ROADMAP.md,
item 3).

Every participant can maintain the same estimate because the number of
successes so far is public information (success slots are heard by all), so
the protocol needs no extra coordination.  That shared, public rate is what
lets :class:`MetcalfeBoggs` schedule a stage as one loop over the
contenders' columns, and sample an unjammed stage with the geometric
skip-ahead (:mod:`repro.protocols.collision.geometric`) instead of slot by
slot.  The per-contender state machine is the test reference
(``tests/oracles.py:SlotByMetcalfeBoggs``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.protocols.collision.base import NodeId, ScheduleOutcome, _exhausted
from repro.protocols.collision.geometric import run_geometric_contention
from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.events import SlotState
from repro.sim.metrics import MetricsRecorder

#: sample an unjammed stage by the geometric skip-ahead; the
#: statistical-equivalence tests turn it off to compare the skip-ahead with
#: the per-slot loop
SKIP_AHEAD = True


@dataclass(frozen=True)
class MetcalfeBoggs:
    """Randomized p-persistent access with a shared contender-count estimate.

    Args:
        estimate: the publicly known estimate ``k`` of how many contenders
            there are.  The paper supplies this from the expected number of
            trees in the partition (≈√n).
        rng: the caller's master stream.  A stage draws one
            ``randrange(2**63)`` seed per contender from it, in input order,
            and each contender's private source is ``Random(seed)``; the
            skip-ahead draws every slot-level variate from the first
            contender's source.

    Raises:
        ValueError: if ``estimate`` is not positive.
    """

    estimate: int
    rng: random.Random

    def __post_init__(self) -> None:
        """Reject an estimate below one contender."""
        if self.estimate < 1:
            raise ValueError("the contender estimate must be at least 1")

    def schedule(
        self,
        identities: Sequence[NodeId],
        payloads: Sequence[Any],
        channel: SlottedChannel,
        jam: Optional[AdversityState],
        metrics: MetricsRecorder,
        max_slots: int,
    ) -> ScheduleOutcome:
        """Schedule the contenders on ``channel``, skipping idle runs if unjammed."""
        seeds = [self.rng.randrange(2**63) for _ in identities]
        if SKIP_AHEAD and jam is None and seeds:
            return run_geometric_contention(
                list(identities), list(payloads), random.Random(seeds[0]).random,
                self.estimate, channel, metrics, max_slots,
            )
        # each entry is a contender's write and the bound draw of its source
        pending = [
            ((identity, payload), random.Random(seed).random)
            for identity, payload, seed in zip(identities, payloads, seeds)
        ]
        resolve = channel.resolve_slot
        order: List[NodeId] = []
        broadcasts: List[Any] = []
        collisions = 0
        idle = 0
        slot = 0
        while pending:
            if slot >= max_slots:
                _exhausted(slot, len(pending), jam, metrics, max_slots)
            # the rate is public: every pending contender heard every success
            remaining = self.estimate - len(order)
            # a sole remaining contender transmits for sure, but still draws,
            # so every contender's stream advances once per slot
            threshold = 1.0 / remaining if remaining > 1 else 1.0
            writes = [write for write, draw in pending if draw() < threshold]
            event = resolve(slot, writes)
            state = event.state
            if state is SlotState.SUCCESS:
                order.append(event.writer)
                broadcasts.append(event.payload)
                won = writes[0]
                pending = [entry for entry in pending if entry[0] is not won]
            elif state is SlotState.COLLISION:
                collisions += 1
            else:
                idle += 1
            slot += 1
        # rounds are recorded in one batch: every slot is one time unit, and
        # no caller reads the recorder mid-contention
        metrics.record_round(slot)
        return ScheduleOutcome(slot, order, broadcasts, collisions, idle)
