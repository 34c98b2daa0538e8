"""Capetanakis' deterministic tree conflict-resolution protocol (1979).

The protocol resolves a conflict among contenders with distinct identifiers
drawn from a known universe ``{0, …, 2^b − 1}`` by a depth-first traversal of
the binary trie of identifier prefixes.  A shared stack of identifier
intervals — reconstructible by every listener from the public slot outcomes —
starts with the whole universe.  In each slot the interval on top of the
stack is "enabled": every unresolved contender whose identifier lies in it
transmits.

* **collision** → the interval is split in half and both halves are pushed
  (left half processed first);
* **success** → that contender is scheduled, the interval is done;
* **idle** → the interval contains no contender, it is done.

For ``k`` contenders out of a universe of size ``2^b`` the traversal uses
O(k·b) = O(k log n) slots, which is exactly the bound the paper invokes when
it schedules the O(√n) fragment roots deterministically in O(√n log n) time
(Sections 5 and 6).

Because the stack evolution depends only on the publicly observable slot
states, a contender holds no protocol state of its own: :class:`Capetanakis`
walks the one stack over the whole batch, sorted by identity, so each slot's
writers are one bisected run of the batch (O(log k) work per slot).  The
per-contender form, in which every contender keeps its own copy of the stack
and is asked every slot, is the test reference
(``tests/oracles.py:SlotByCapetanakis``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, List, Optional, Sequence

from repro.protocols.collision.base import NodeId, ScheduleOutcome, _exhausted
from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.events import SlotState
from repro.sim.metrics import MetricsRecorder


@dataclass(frozen=True)
class Capetanakis:
    """The tree-splitting protocol over the identifier universe ``[0, universe_size)``.

    ``universe_size`` is known to all nodes (the paper uses the O(log n)-bit
    processor identifiers, so the universe has polynomial size).
    """

    universe_size: int

    def schedule(
        self,
        identities: Sequence[int],
        payloads: Sequence[Any],
        channel: SlottedChannel,
        jam: Optional[AdversityState],
        metrics: MetricsRecorder,
        max_slots: int,
    ) -> ScheduleOutcome:
        """Walk the interval stack over the contenders on ``channel``.

        Raises:
            ValueError: if an identity lies outside the universe.
        """
        writes = sorted(zip(identities, payloads), key=itemgetter(0))
        ordered = [identity for identity, _ in writes]
        universe = self.universe_size
        if ordered and not 0 <= ordered[0] <= ordered[-1] < universe:
            outside = ordered[0] if ordered[0] < 0 else ordered[-1]
            raise ValueError(f"identity {outside} outside universe [0, {universe})")
        resolve = channel.resolve_slot
        success = SlotState.SUCCESS
        collision = SlotState.COLLISION
        order: List[NodeId] = []
        broadcasts: List[Any] = []
        collisions = 0
        idle = 0
        slot = 0
        unresolved = len(writes)
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
            # intervals are disjoint, and a retired interval is never
            # revisited, so this run of the batch is exactly the slot's
            # pending writers
            first = bisect_left(ordered, low)
            event = resolve(slot, writes[first:bisect_left(ordered, high, first)])
            state = event.state
            if state is success:
                order.append(event.writer)
                broadcasts.append(event.payload)
                unresolved -= 1
            elif state is collision:
                # a jammed slot reads collision to everyone, so a jammed
                # success (or idle) slot splits its interval like a real
                # collision: a one-identity interval comes back whole
                # (mid == low)
                collisions += 1
                mid = (low + high) // 2
                stack.append((mid, high))
                if low < mid:
                    stack.append((low, mid))
            else:
                idle += 1
            slot += 1
        # rounds are recorded in one batch: every slot is one time unit, and
        # no caller reads the recorder mid-contention
        metrics.record_round(slot)
        return ScheduleOutcome(slot, order, broadcasts, collisions, idle)
