"""Greenberg–Ladner multiplicity estimation (1983) on a collision channel.

Section 7.4 of the paper uses this protocol to estimate the number of
processors ``n`` when it is not known in advance:

    "All the nodes start together rounds of coin tosses; at round ``i`` each
    coin has probability ``1/2^i`` for head.  A special busy tone is
    transmitted by all the nodes which flipped head.  The estimation
    terminates as soon as there is an idle slot.  When it terminates all
    nodes know ``k``, the number of rounds; ``2^k`` is then, with high
    probability, a good estimate (up to a multiplicative factor) for the
    number of processors."

The same primitive estimates the multiplicity of any set of contenders (e.g.
how many fragment roots exist), which the Las-Vegas variant of the randomized
partitioning algorithm relies on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.sim.channel import SlottedChannel
from repro.sim.events import ChannelEvent, Message
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.metrics import MetricsRecorder

NodeId = Hashable


@dataclass
class MultiplicityEstimate:
    """Outcome of one Greenberg–Ladner estimation run.

    Attributes:
        rounds: the number of slots used (the first idle slot terminates the
            run and is included in the count).
        estimate: ``2^(rounds − 1)``, the estimate of the multiplicity; zero
            participants yield an estimate of 0 (the very first slot is idle).
    """

    rounds: int
    estimate: int


def estimate_multiplicity(
    num_participants: int,
    rng: Optional[random.Random] = None,
    metrics: Optional[MetricsRecorder] = None,
    max_rounds: int = 128,
) -> MultiplicityEstimate:
    """Run the estimation protocol over ``num_participants`` synchronized nodes.

    This is the channel-only core of the protocol (no point-to-point traffic),
    driven directly against a :class:`~repro.sim.channel.SlottedChannel`.

    Raises:
        ValueError: if ``num_participants`` is negative.
    """
    if num_participants < 0:
        raise ValueError("cannot estimate a negative multiplicity")
    rng = rng if rng is not None else random.Random()
    channel = SlottedChannel(metrics=metrics)
    still_flipping = num_participants
    for round_index in range(1, max_rounds + 1):
        probability = 1.0 / (2.0 ** round_index)
        writers = [
            (f"p{i}", "busy")
            for i in range(still_flipping)
            if rng.random() < probability
        ]
        event = channel.resolve_slot(round_index - 1, writers)
        if metrics is not None:
            metrics.record_round(1)
        if event.is_idle():
            return MultiplicityEstimate(
                rounds=round_index, estimate=2 ** (round_index - 1)
            )
    return MultiplicityEstimate(rounds=max_rounds, estimate=2 ** max_rounds)


def estimate_error_factor(true_value: int, estimate: int) -> float:
    """Return the multiplicative error ``max(est/true, true/est)`` of an estimate."""
    if true_value <= 0 or estimate <= 0:
        return math.inf
    return max(estimate / true_value, true_value / estimate)


class GreenbergLadnerFlyweight(FlyweightProtocol):
    """The estimation as a simulator protocol — columnar state.

    Every node participates; round ``i`` of the protocol occupies channel
    slot ``i − 1``.  When the first idle slot is observed every node halts
    with the common estimate ``2^(rounds − 1)`` as its result.

    One shared instance holds every node's current round number in one
    integer column and materialises each node's private generator lazily
    from the environment's substream family.  The protocol reacts to channel
    feedback every slot and never to point-to-point mail, so it keeps the
    default ``MESSAGE_DRIVEN = False`` and the loop dispatches every active
    slot each round.
    """

    def __init__(self, env: FlyweightEnvironment) -> None:
        """Allocate the per-slot round and generator columns."""
        super().__init__(env)
        num_slots = env.num_slots
        self._round: List[int] = [1] * num_slots
        self._rngs: List[Optional[random.Random]] = [None] * num_slots

    def _flip_and_maybe_write(self, slot: int) -> None:
        rng = self._rngs[slot]
        if rng is None:
            rng = self._rngs[slot] = self.env.streams.rng_for(self.env.nodes[slot])
        if rng.random() < 1.0 / (2.0 ** self._round[slot]):
            self.channel_write(self.env.nodes[slot], "busy")

    def on_start(self, slot: int) -> None:
        """Flip the round-1 coin for ``slot``."""
        self._flip_and_maybe_write(slot)

    def on_round(self, slot: int, inbox: List[Message], channel: ChannelEvent) -> None:
        """Halt on the first idle slot, otherwise advance and flip again."""
        if channel.is_idle() and channel.slot >= 0:
            rounds = self._round[slot]
            self.halt_slot(
                slot, MultiplicityEstimate(rounds=rounds, estimate=2 ** (rounds - 1))
            )
            return
        self._round[slot] += 1
        self._flip_and_maybe_write(slot)
