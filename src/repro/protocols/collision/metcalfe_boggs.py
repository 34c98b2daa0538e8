"""Randomized channel access in the style of Metcalfe and Boggs (Ethernet, 1976).

The paper's randomized global-computation stage schedules the ≈√n fragment
roots on the channel using randomized access: because the algorithm has an
estimate ``k`` of the number of contenders, each unresolved contender simply
transmits in every slot with probability ``1/k̂`` where ``k̂`` is the current
estimate of the number of *remaining* contenders.  A slot is successful with
probability ``≈ 1/e``, so each contender is scheduled in O(1) expected slots
and all ``k`` contenders are scheduled in O(k) expected slots — the bound the
paper uses ("O(1) expected time per root", Section 5.1).

Every participant can maintain the same estimate because the number of
successes so far is public information (success slots are heard by all), so
the protocol needs no extra coordination.  That shared, public rate is also
what lets :func:`~repro.protocols.collision.base.run_contention` sample a
fresh batch of these contenders with the geometric skip-ahead
(:mod:`repro.protocols.collision.geometric`) instead of slot by slot.
"""

from __future__ import annotations

import random
from typing import Hashable, Optional

from repro.protocols.collision.base import ChannelContender
from repro.sim.events import ChannelEvent, SlotState

NodeId = Hashable


class MetcalfeBoggsContender(ChannelContender):
    """Randomized p-persistent contender with a shared contender-count estimate.

    The per-slot transmit probability ``1/k̂`` is shared by every contender
    holding the same estimate and depends only on the publicly heard success
    count.  So when a batch shares one ``estimate`` and has heard no success
    yet, :func:`~repro.protocols.collision.base.run_contention` samples it
    by the geometric skip-ahead, drawing from the first contender's
    generator: an idle run costs one inverse-transform draw instead of one
    coin flip per contender per slot.

    Args:
        identity: the contender's identifier (used only for bookkeeping).
        estimated_contenders: the publicly known estimate ``k`` of how many
            contenders there are.  The paper supplies this from the expected
            number of trees in the partition (≈√n).
        payload: what to broadcast when scheduled.
        seed: seed of the private random source, which is built on first
            draw.  Callers seeding whole batches
            (``seed=master.randrange(2**63)``) draw every seed from the
            master stream, while the skip-ahead, which only ever draws from
            the batch's first contender, builds one generator.

    Raises:
        ValueError: if ``estimated_contenders`` is not positive.
    """

    def __init__(
        self,
        identity: NodeId,
        estimated_contenders: int,
        payload=None,
        seed: Optional[int] = None,
    ) -> None:
        """Create a contender expecting ``estimated_contenders`` rivals in all."""
        if estimated_contenders < 1:
            raise ValueError("the contender estimate must be at least 1")
        super().__init__(identity, payload)
        #: the public contender-count estimate ``k``.
        self.estimate = estimated_contenders
        #: the successes heard so far (public: every node hears them).
        self.successes_seen = 0
        self._seed = seed
        self._rng: Optional[random.Random] = None
        # bound method cached on first draw: wants_to_transmit runs once per
        # contender per slot, where the attribute chain is measurable
        self._draw = None

    @property
    def rng(self) -> random.Random:
        """Return the private source, built from the seed on first use."""
        if self._rng is None:
            self._rng = random.Random(self._seed)
            self._draw = self._rng.random
        return self._rng

    def wants_to_transmit(self, slot: int) -> bool:
        """Transmit with probability 1 / (contenders still unresolved)."""
        draw = self._draw
        if draw is None:
            draw = self.rng.random
        remaining = self.estimate - self.successes_seen
        if remaining > 1:
            return draw() < 1.0 / remaining
        # sole remaining contender: transmit, but still consume one draw so
        # the random stream is unchanged from the uniform-threshold form
        draw()
        return True

    def observe(self, event: ChannelEvent, transmitted: bool) -> None:
        """Count a heard success, and record it when it was this contender's."""
        # inlined base behaviour: this runs once per contender per slot
        if event.state is SlotState.SUCCESS:
            self.successes_seen += 1
            if transmitted:
                self._succeeded_in_slot = event.slot
