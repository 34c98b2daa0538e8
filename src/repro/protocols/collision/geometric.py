"""Geometric skip-ahead for homogeneous randomized contention.

The randomized conflict-resolution stage of the paper (Section 5.1, realised
by :class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggs`) has
every unresolved contender transmit independently in every slot with the
*same* probability ``p = 1/k̂``, where ``k̂`` is the publicly maintained
estimate of the remaining contenders.  Simulating that process slot by slot
costs Θ(pending) work per slot — Θ(n²) for the channel-only baseline of the
model-separation experiment — even though almost every slot is idle.

This module skips the idle runs in O(1) using inverse-transform sampling.
With ``m`` pending contenders each transmitting with probability ``p``:

* a slot is **idle** with probability ``q = (1 − p)^m``, so the length of an
  idle run is geometric and can be drawn in one shot as
  ``⌊ln(1 − u) / ln q⌋`` (:func:`geometric_idle_run`) — this is exactly the
  superposition of the per-contender geometric inter-transmission gaps, so
  the slot loop advances directly to the next slot in which *any* contender
  transmits;
* conditioned on a busy slot, the number of transmitters is a Binomial(m, p)
  truncated at ≥ 1: **success** (exactly one transmitter) has conditional
  probability ``m·p·(1 − p)^{m−1} / (1 − q)`` and the successful contender is
  uniform among the pending ones (:func:`split_busy_slot`); a **collision**'s
  multiplicity follows the tail of the same binomial
  (:func:`collision_multiplicity`).

Between successes the process is memoryless (``p`` only changes when a
success is heard, and collisions change no contender's state), so the sampled
trajectory has *exactly* the per-slot process's distribution — only the RNG
stream consumption differs, which is why the RNG-dependent golden data is
versioned (``tests/data/goldens/v2``) and a statistical-equivalence suite
pins the two implementations against each other.

:func:`run_geometric_contention` is the scheduler fast path; callers go
through :func:`~repro.protocols.collision.base.run_contention`, whose
Metcalfe–Boggs stages come here on a channel without jamming.
"""

from __future__ import annotations

import math
from typing import Any, Callable, List

from repro.protocols.collision.base import NodeId, ScheduleOutcome
from repro.sim.channel import SlottedChannel
from repro.sim.errors import ProtocolError
from repro.sim.metrics import MetricsRecorder


def geometric_idle_run(u: float, idle_probability: float) -> int:
    """Return the length of an idle run drawn by inverse-transform sampling.

    The run length ``G`` (number of consecutive idle slots before the next
    busy slot) of a slotted process whose slots are independently idle with
    probability ``q`` satisfies ``P(G ≥ j) = q^j``; inverting the CDF at a
    uniform draw ``u ∈ [0, 1)`` gives ``G = ⌊ln(1 − u) / ln q⌋``, which
    matches the naive slot-by-slot simulation in distribution (guarded by
    ``tests/test_skip_ahead.py``).

    Args:
        u: a uniform variate in ``[0, 1)``.
        idle_probability: the per-slot idle probability ``q`` in ``[0, 1)``.

    Returns:
        The number of idle slots to skip (``≥ 0``).

    Raises:
        ValueError: if ``idle_probability`` is 1 or more — the run would be
            infinite; callers must special-case a certain-idle slot (it only
            arises when the transmit probability underflows to 0, e.g. an
            astronomically large contender estimate) as budget exhaustion.
    """
    if idle_probability <= 0.0:
        return 0
    if idle_probability >= 1.0:
        raise ValueError("a certainly-idle slot has an infinite idle run")
    return int(math.log(1.0 - u) / math.log(idle_probability))


def success_given_busy(p: float, m: int) -> float:
    """Return ``P(exactly one of m transmits | at least one transmits)``.

    With each of ``m`` contenders transmitting independently with probability
    ``p``, the conditional success probability of a busy slot is
    ``m·p·(1 − p)^{m−1} / (1 − (1 − p)^m)``.
    """
    if m <= 0:
        raise ValueError("need at least one contender")
    if p >= 1.0:
        return 1.0 if m == 1 else 0.0
    q_all_silent = (1.0 - p) ** m
    busy = 1.0 - q_all_silent
    if busy <= 0.0:
        # p == 0 degenerate case; the caller never fast-forwards with p == 0
        return 0.0
    return m * p * (1.0 - p) ** (m - 1) / busy


def collision_multiplicity(u: float, p: float, m: int) -> int:
    """Sample how many of ``m`` contenders collided, given ≥ 2 transmitted.

    Inverse-transform over the Binomial(m, p) tail: the probability of
    exactly ``c`` transmitters is ``C(m, c)·p^c·(1 − p)^{m−c}``; conditioning
    on a collision renormalises by ``1 − (1−p)^m − m·p·(1−p)^{m−1}``.  The
    conditional distribution concentrates on 2–3 for the ``p ≈ 1/m`` regime
    the protocols operate in, so the scan terminates in O(1) expected steps.

    Args:
        u: a uniform variate in ``[0, 1)``.
        p: the per-contender transmit probability.
        m: the number of pending contenders (``≥ 2``).
    """
    if m < 2:
        raise ValueError("a collision needs at least two contenders")
    if p >= 1.0:
        return m
    q = 1.0 - p
    idle = q ** m
    success = m * p * q ** (m - 1)
    normaliser = 1.0 - idle - success
    if normaliser <= 0.0:
        return 2
    target = u * normaliser
    # walk the binomial pmf upward from c = 2 via the term ratio
    term = (m * (m - 1) / 2.0) * p * p * q ** (m - 2)
    acc = 0.0
    for c in range(2, m):
        acc += term
        if target < acc:
            return c
        term *= (m - c) / (c + 1) * (p / q)
    return m


def run_geometric_contention(
    identities: List[NodeId],
    payloads: List[Any],
    draw: Callable[[], float],
    estimate: int,
    channel: SlottedChannel,
    metrics: MetricsRecorder,
    max_slots: int,
) -> ScheduleOutcome:
    """Drive a fresh Metcalfe–Boggs stage with idle runs skipped in O(1).

    This is the fast path of
    :func:`~repro.protocols.collision.base.run_contention`; it produces a
    :class:`~repro.protocols.collision.base.ScheduleOutcome` whose
    distribution is exactly that of the per-slot loop (see the module
    docstring for the argument), while doing O(1) work per *busy* slot
    instead of O(pending) work per slot.

    Args:
        identities: the contenders' identities; the list is consumed.
        payloads: their payloads, in the same order; consumed alike.
        draw: the uniform source every slot-level variate comes from (the
            first contender's private generator, so the run stays
            deterministic under the caller's seeding and consumes no global
            randomness).
        estimate: the public contender-count estimate.
        channel: the slotted channel busy slots are resolved on; skipped idle
            runs are charged in one batch via
            :meth:`~repro.sim.channel.SlottedChannel.skip_idle_slots`.
        metrics: the accountant (the channel also feeds it per slot).
        max_slots: slot budget; exceeding it raises like the per-slot loop.

    Raises:
        ProtocolError: when the budget is exhausted before every contender is
            resolved (the per-slot loop's contract).
    """
    order: List[NodeId] = []
    broadcasts: List[Any] = []
    collisions = 0
    idle = 0
    slot = 0
    p = 1.0 / estimate
    while identities:
        m = len(identities)
        q_idle = (1.0 - p) ** m if p < 1.0 else 0.0
        if q_idle >= 1.0:
            # the transmit probability underflowed to zero: every slot is
            # certainly idle, so the run can only end in budget exhaustion
            # (the per-slot loop idles its way to the same ProtocolError)
            run_length = max_slots - slot
        elif q_idle > 0.0:
            run_length = geometric_idle_run(draw(), q_idle)
        else:
            run_length = 0
        if slot + run_length >= max_slots:
            # in per-slot terms the contention would have burned the whole
            # budget on idle slots: account them and fail identically
            channel.skip_idle_slots(max_slots - slot)
            metrics.record_round(max_slots)
            raise ProtocolError(
                f"contention did not resolve within {max_slots} slots"
            )
        if run_length:
            channel.skip_idle_slots(run_length)
            idle += run_length
            slot += run_length
        if draw() < success_given_busy(p, m):
            winner = int(draw() * m)
            event = channel.resolve_slot(
                slot, ((identities[winner], payloads[winner]),)
            )
            order.append(event.writer)
            broadcasts.append(event.payload)
            # swap-remove keeps the pop O(1); the winner is drawn uniformly,
            # so the worklist order carries no distributional weight
            identities[winner] = identities[-1]
            identities.pop()
            payloads[winner] = payloads[-1]
            payloads.pop()
            p = 1.0 / max(1, estimate - len(order))
        else:
            multiplicity = collision_multiplicity(draw(), p, m)
            # a collision reveals only *that* it happened, so no draw is
            # spent on who collided: the first `multiplicity` pending
            # contenders' writes charge the write-attempt counter exactly
            channel.resolve_slot(slot, tuple(
                zip(identities[:multiplicity], payloads[:multiplicity])
            ))
            collisions += 1
        slot += 1
    metrics.record_round(slot)
    return ScheduleOutcome(slot, order, broadcasts, collisions, idle)


__all__ = [
    "collision_multiplicity",
    "geometric_idle_run",
    "run_geometric_contention",
    "success_given_busy",
]
