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
states, a contender holds no protocol state of its own: a
:class:`CapetanakisContender` is its identity, universe and payload, and
:func:`~repro.protocols.collision.base.run_contention` walks the one stack
over the whole batch.  The per-contender form, in which every contender
keeps its own copy of the stack and is asked every slot, is the test
reference (``tests/oracles.py:SlotByCapetanakis``).
"""

from __future__ import annotations

from repro.protocols.collision.base import ChannelContender


class CapetanakisContender(ChannelContender):
    """One contender of the deterministic tree-splitting protocol.

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
        #: the identifier universe ``[0, universe_size)`` the stack starts with.
        self.universe_size = universe_size
