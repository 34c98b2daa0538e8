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

import random
from dataclasses import dataclass

from repro.sim.channel import SlottedChannel

#: rounds after which the estimate gives up on an idle slot: round ``i``'s
#: heads probability ``2^-i`` leaves any realistic population silent long
#: before it
MAX_ROUNDS = 128


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
    rng: random.Random,
) -> MultiplicityEstimate:
    """Run the estimation protocol over ``num_participants`` synchronized nodes.

    This is the channel-only core of the protocol (no point-to-point traffic),
    driven directly against a :class:`~repro.sim.channel.SlottedChannel`.

    Raises:
        ValueError: if ``num_participants`` is negative.
    """
    if num_participants < 0:
        raise ValueError("cannot estimate a negative multiplicity")
    channel = SlottedChannel()
    still_flipping = num_participants
    for round_index in range(1, MAX_ROUNDS + 1):
        probability = 1.0 / (2.0 ** round_index)
        writers = [
            (f"p{i}", "busy")
            for i in range(still_flipping)
            if rng.random() < probability
        ]
        event = channel.resolve_slot(round_index - 1, writers)
        if event.is_idle():
            return MultiplicityEstimate(
                rounds=round_index, estimate=2 ** (round_index - 1)
            )
    return MultiplicityEstimate(rounds=MAX_ROUNDS, estimate=2 ** MAX_ROUNDS)
