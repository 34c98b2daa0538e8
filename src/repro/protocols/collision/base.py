"""Common machinery for channel conflict-resolution protocols.

The channel is the paper's Section 2 multiaccess medium: per slot, every
node may write, and all nodes observe the same three-valued feedback
(idle / success / collision).  The conflict-resolution protocols built on
it realise the channel stages of the algorithms: the fragment roots'
broadcasts (Section 5.1), the core schedule of the MST (Section 6), the
Las-Vegas check (Section 4) and the size schedule (Section 7.3).

A *contender* is a node that has something to broadcast (in the paper: a
fragment root holding a partial result).  A conflict-resolution protocol
schedules the contenders so that each one eventually gets a ``success``
slot.  Both protocols here keep only *public* state, which every node
(contender or not) rebuilds from the slot outcomes by listening:
Capetanakis' protocol one stack of identifier intervals, Metcalfe–Boggs one
transmit rate, ``1/(k − successes heard)``.  So a stage is scheduled over
columns — the contenders' identities and payloads — by one protocol value
(:class:`~repro.protocols.collision.capetanakis.Capetanakis` or
:class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggs`), with no
object per contender.  The per-contender state machines are kept as the
test references (``tests/oracles.py:SlotByCapetanakis``,
``SlotByMetcalfeBoggs``).

:func:`run_contention` is a whole channel stage in one call: it builds the
stage's :class:`~repro.sim.channel.SlottedChannel` (jammed when the
caller's adversity schedule jams), sizes the slot budget and hands both to
the protocol's ``schedule``, with no point-to-point network involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Hashable, List, NoReturn, Optional, Sequence

from repro.sim.adversity import AdversityState
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError
from repro.sim.metrics import MetricsRecorder

if TYPE_CHECKING:  # pragma: no cover - typing only: both protocols import this
    from repro.protocols.collision.capetanakis import Capetanakis
    from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs

NodeId = Hashable


@dataclass
class ScheduleOutcome:
    """Result of scheduling a set of contenders on the channel.

    Attributes:
        slots_used: total number of channel slots consumed.
        order: the contenders' identities in the order they succeeded.
        broadcasts: the payloads heard, in broadcast order.
        collisions: number of collision slots.
        idle: number of idle slots.
    """

    slots_used: int
    order: List[NodeId]
    broadcasts: List[Any]
    collisions: int
    idle: int


def run_contention(
    protocol: Capetanakis | MetcalfeBoggs,
    identities: Sequence[NodeId],
    payloads: Sequence[Any],
    metrics: MetricsRecorder,
    max_slots: int = 1_000_000,
    adversity: Optional[AdversityState] = None,
    network_size: Optional[int] = None,
) -> ScheduleOutcome:
    """Run one channel stage: schedule every contender to one success.

    Contender ``i`` is ``identities[i]`` broadcasting ``payloads[i]``.  The
    stage gets its own :class:`~repro.sim.channel.SlottedChannel`, charging
    ``metrics``, and ``protocol.schedule`` drives the contenders on it:
    Capetanakis by one walk of its public interval stack, Metcalfe–Boggs by
    the geometric skip-ahead on an unjammed channel and slot by slot
    otherwise.  Every slot a schedule resolves goes through the channel, so
    the schedules draw the same jams, charge the same slots and write
    attempts and run out of budget alike; the skip-ahead, which never runs
    jammed, charges each idle run it skips in one batch.

    Args:
        protocol: the stage's protocol value.
        identities: the contenders' distinct identities.
        payloads: what each contender broadcasts, in ``identities`` order.
        metrics: the accountant the channel charges per slot.
        max_slots: the slot budget without an adversity schedule.
        adversity: the caller's adversity schedule.  The channel jams with
            its jam rate (:meth:`~repro.sim.adversity.AdversityState.channel_adversity`),
            and the budget is its round budget for ``network_size`` nodes
            instead of ``max_slots``.  A jammed channel rules out the
            skip-ahead (which models a fault-free Bernoulli field, which
            jamming is not) and turns budget exhaustion into
            :class:`~repro.sim.errors.AdversityAbort` — under jamming,
            running out of slots is the adversary's doing, not a protocol
            bug.
        network_size: the number of nodes the stage runs over (sizes the
            adversity budget); defaults to the number of contenders.

    Raises:
        ProtocolError: if the contenders fail to resolve within the budget
            on a channel without jamming, which indicates a protocol bug or
            an unreachable schedule.
        AdversityAbort: if the budget is exhausted on a jammed channel.
        ValueError: if a Capetanakis identity lies outside its universe.
    """
    jam = None
    if adversity is not None:
        jam = adversity.channel_adversity()
        max_slots = adversity.round_budget(
            len(identities) if network_size is None else network_size
        )
    channel = SlottedChannel(metrics=metrics, adversity=jam)
    return protocol.schedule(identities, payloads, channel, jam, metrics, max_slots)


def _exhausted(
    slot: int,
    pending: int,
    jam: Optional[AdversityState],
    metrics: MetricsRecorder,
    max_slots: int,
) -> NoReturn:
    """Charge the ``slot`` rounds spent and raise the budget's error."""
    metrics.record_round(slot)
    if jam is not None:
        raise AdversityAbort(slot, pending)
    raise ProtocolError(f"contention did not resolve within {max_slots} slots")
