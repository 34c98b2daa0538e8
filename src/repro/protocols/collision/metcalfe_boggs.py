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
the protocol needs no extra coordination.
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
    count, so batches of these contenders qualify for the geometric
    skip-ahead scheduler (``GEOMETRIC_CONTENTION``; see
    :mod:`repro.protocols.collision.geometric`): idle runs are sampled in one
    inverse-transform draw instead of one coin flip per contender per slot.

    Args:
        identity: the contender's identifier (used only for bookkeeping).
        estimated_contenders: the publicly known estimate ``k`` of how many
            contenders there are.  The paper supplies this from the expected
            number of trees in the partition (≈√n).
        rng: private random source.
        payload: what to broadcast when scheduled.
        seed: alternative to ``rng`` — the private source is then built
            lazily from this seed on first draw.  Callers seeding whole
            batches (``seed=master.randrange(2**63)``) keep the exact master
            stream of the eager form while the geometric skip-ahead
            scheduler, which only ever draws from the batch's first
            contender, skips ``k − 1`` generator constructions.

    Raises:
        ValueError: if ``estimated_contenders`` is not positive, or both
            ``rng`` and ``seed`` are supplied.
    """

    GEOMETRIC_CONTENTION = True

    def __init__(
        self,
        identity: NodeId,
        estimated_contenders: int,
        rng: Optional[random.Random] = None,
        payload=None,
        seed: Optional[int] = None,
    ) -> None:
        """Create a contender expecting ``estimated_contenders`` rivals in all."""
        if estimated_contenders < 1:
            raise ValueError("the contender estimate must be at least 1")
        if rng is not None and seed is not None:
            raise ValueError("supply either rng or seed, not both")
        super().__init__(identity, payload)
        self._initial_estimate = estimated_contenders
        self._successes_seen = 0
        self._seed = seed
        if seed is None:
            self._rng = rng if rng is not None else random.Random()
            # bound method cached once: wants_to_transmit runs once per
            # contender per slot, where the attribute chain is measurable
            self._draw = self._rng.random
        else:
            self._rng = None
            self._draw = None

    def _materialise_rng(self) -> random.Random:
        """Build the private generator from the stored seed on first use."""
        rng = random.Random(self._seed)
        self._rng = rng
        self._draw = rng.random
        return rng

    @property
    def rng(self) -> random.Random:
        """Return the private source, materialising a seed-deferred one."""
        return self._rng if self._rng is not None else self._materialise_rng()

    def wants_to_transmit(self, slot: int) -> bool:
        """Transmit with probability 1 / (contenders still unresolved)."""
        draw = self._draw
        if draw is None:
            draw = self._materialise_rng().random
        remaining = self._initial_estimate - self._successes_seen
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
            self._successes_seen += 1
            if transmitted:
                self._succeeded_in_slot = event.slot

    # ------------------------------------------------------------------
    # geometric skip-ahead capability
    # ------------------------------------------------------------------
    def contention_signature(self) -> object:
        """Contenders sharing one estimate share one probability schedule."""
        return self._initial_estimate

    def contention_rate(self, successes_seen: int) -> float:
        """Per-slot transmit probability after ``successes_seen`` successes."""
        return 1.0 / max(1, self._initial_estimate - successes_seen)

    def contention_successes_seen(self) -> int:
        """Successes already heard (the scheduler resumes counting here)."""
        return self._successes_seen

    def skip_ahead_rng(self):
        """The private source the skip-ahead scheduler draws from."""
        return self.rng

    def commit_skip_ahead(self, slot, successes_seen: int) -> None:
        """Adopt the publicly known state a per-slot run would have built."""
        self._successes_seen = successes_seen
        if slot is not None:
            self._succeeded_in_slot = slot
