"""Leader election over the multiaccess channel.

Section 2 of the paper observes that, given the classical conflict-resolution
techniques, "the election problem can be solved deterministically in O(log n)
time or in O(log log n) expected time without using the point-to-point
network.  Essentially, these techniques can be viewed as symmetry breaking
methods either by comparing the identifiers bit by bit deterministically or
by random coin flips."

Two protocols are provided:

* :func:`elect_leader` — the deterministic O(log n)-slot election:
  candidates reveal their identifiers from the most significant bit down;
  whenever some candidate with a 1-bit transmits (slot not idle), all
  candidates whose current bit is 0 withdraw.  The surviving candidate is the
  one with the maximum identifier.
* :class:`RandomizedLeaderElectionFlyweight` — repeated coin-flip thinning: in each
  slot every surviving candidate transmits with probability 1/2 of the
  current estimate of survivors; a success elects the transmitter.  With a
  constant number of candidates remaining the expected number of slots to a
  success is O(1); starting from ``n`` candidates the expectation is O(log n)
  without an estimate and O(log log n) with the Greenberg–Ladner estimate,
  matching the figures the paper quotes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, Iterable, List, Mapping, Optional, Sequence

from repro.sim.channel import SlottedChannel
from repro.sim.events import ChannelEvent, Message
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.metrics import MetricsRecorder

NodeId = Hashable


@dataclass
class ElectionOutcome:
    """Result of a channel leader election.

    Attributes:
        leader: the elected identifier.
        slots_used: number of channel slots consumed.
    """

    leader: NodeId
    slots_used: int


def elect_leader(
    identifiers: Sequence[int],
    id_bits: Optional[int] = None,
    metrics: Optional[MetricsRecorder] = None,
) -> ElectionOutcome:
    """Deterministic bit-by-bit election run directly against a channel.

    Args:
        identifiers: the distinct integer identifiers of the candidates.
        id_bits: number of identifier bits; defaults to the bit length of the
            largest identifier.
        metrics: optional complexity accountant (one round per slot charged).

    Returns:
        The maximum identifier, elected in exactly ``id_bits`` slots.

    Raises:
        ValueError: if there are no candidates or identifiers repeat.
    """
    if not identifiers:
        raise ValueError("cannot elect a leader among zero candidates")
    if len(set(identifiers)) != len(identifiers):
        raise ValueError("candidate identifiers must be distinct")
    if id_bits is None:
        id_bits = max(1, max(identifiers).bit_length())
    channel = SlottedChannel(metrics=metrics)
    alive = list(identifiers)
    slots = 0
    for bit in range(id_bits - 1, -1, -1):
        writers = [(ident, "bit") for ident in alive if (ident >> bit) & 1]
        event = channel.resolve_slot(slots, writers)
        if metrics is not None:
            metrics.record_round(1)
        slots += 1
        if not event.is_idle():
            alive = [ident for ident in alive if (ident >> bit) & 1]
    assert len(alive) == 1, "distinct identifiers guarantee a unique survivor"
    return ElectionOutcome(leader=alive[0], slots_used=slots)


class RandomizedLeaderElectionFlyweight(FlyweightProtocol):
    """Randomized thinning election; expected O(log n) slots from ``n`` candidates.

    Each surviving candidate transmits with probability ``1/2`` in every slot.
    On a success the transmitter is elected and every node halts with the
    winner's identifier.  On a collision, the candidates that transmitted
    survive and the rest withdraw (halving the field in expectation); on an
    idle slot nothing changes.  The protocol is a Las-Vegas election: it only
    ever terminates with a correct, unique leader.

    The per-node candidate and transmitted flags live in two ``bytearray``
    columns on one shared instance, and each slot's private generator is
    materialised lazily from the environment's substream family.  It reacts
    to channel feedback every slot (never to point-to-point mail), so it
    keeps the default ``MESSAGE_DRIVEN = False`` full-scan dispatch.
    """

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Allocate the candidate/transmitted flag and generator columns."""
        super().__init__(env)
        num_slots = env.num_slots
        self._candidate = bytearray(b"\x01") * num_slots
        self._transmitted = bytearray(num_slots)
        self._rngs: List[Optional[random.Random]] = [None] * num_slots

    def _flip(self, slot: int) -> None:
        self._transmitted[slot] = 0
        if not self._candidate[slot]:
            return
        rng = self._rngs[slot]
        if rng is None:
            rng = self._rngs[slot] = self.env.streams.rng_for(self.env.nodes[slot])
        if rng.random() < 0.5:
            node = self.env.nodes[slot]
            self.channel_write(node, node)
            self._transmitted[slot] = 1

    def on_start(self, slots: Iterable[int]) -> None:
        """Flip the first coin for each slot."""
        halted = self.halted
        for slot in slots:
            if not halted[slot]:
                self._flip(slot)

    def on_round(self, slots: Iterable[int], inboxes: Mapping[int, List[Message]],
                 channel: ChannelEvent) -> None:
        """Halt on a success; withdraw non-transmitters on a collision."""
        halted = self.halted
        candidate = self._candidate
        transmitted = self._transmitted
        success = channel.is_success()
        collision = channel.is_collision()
        for slot in slots:
            if halted[slot]:
                continue
            if success:
                self.halt_slot(slot, channel.payload)
                continue
            if collision and candidate[slot] and not transmitted[slot]:
                candidate[slot] = 0
            self._flip(slot)
