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

The implementation is a :class:`ChannelContender`; the stack evolution
depends only on the publicly observable slot states, so a passive listener
could follow the protocol as well.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.protocols.collision.base import ChannelContender
from repro.sim.events import ChannelEvent


class _SharedStack:
    """The interval stack every participant reconstructs from slot outcomes."""

    def __init__(self, universe_size: int) -> None:
        self.intervals: List[Tuple[int, int]] = [(0, universe_size)]

    def current(self) -> Optional[Tuple[int, int]]:
        return self.intervals[-1] if self.intervals else None

    def advance(self, event: ChannelEvent) -> None:
        if not self.intervals:
            return
        low, high = self.intervals.pop()
        if event.is_collision():
            mid = (low + high) // 2
            # push right half first so the left half is processed next
            if mid < high:
                self.intervals.append((mid, high))
            if low < mid:
                self.intervals.append((low, mid))
        # success and idle both retire the interval


class CapetanakisContender(ChannelContender):
    """One contender's view of the deterministic tree-splitting protocol.

    Args:
        identity: the contender's identifier; must be an integer in
            ``[0, universe_size)`` and distinct from every other contender's.
        universe_size: size of the identifier universe known to all nodes
            (the paper uses the O(log n)-bit processor identifiers, so the
            universe has polynomial size).
        payload: what to broadcast when scheduled.

    Raises:
        ValueError: if the identity lies outside the universe.
    """

    def __init__(self, identity: int, universe_size: int, payload=None) -> None:
        """Join the tree splitting over ``[0, universe_size)`` as ``identity``."""
        if not 0 <= identity < universe_size:
            raise ValueError(
                f"identity {identity} outside universe [0, {universe_size})"
            )
        super().__init__(identity, payload)
        self._stack = _SharedStack(universe_size)

    def wants_to_transmit(self, slot: int) -> bool:
        """Transmit when the interval on top of the shared stack holds this identity."""
        interval = self._stack.current()
        if interval is None:
            return False
        low, high = interval
        return low <= self.identity < high

    def observe(self, event: ChannelEvent, transmitted: bool) -> None:
        """Record a success and advance the shared stack past the slot."""
        super().observe(event, transmitted)
        self._stack.advance(event)
