"""Messages, channel slots, and the observations nodes make of them.

These small immutable records are the vocabulary shared by the simulator and
every protocol: point-to-point :class:`Message` objects travel over links,
and each channel slot resolves to a :class:`ChannelEvent` whose
:class:`SlotState` is exactly the three-valued feedback of the paper's model
(idle / success / collision).  An event holds what every node may observe
and nothing more: on a success the payload and its writer, on a collision
only that it happened.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Hashable, NamedTuple, Optional

NodeId = Hashable


class SlotState(enum.Enum):
    """The state of one slot of the multiaccess channel.

    The paper (Section 2): "Each slot is in one of the following three
    states: idle, success, or collision depending on whether zero, one, or
    more than one processors write in that slot, respectively."
    """

    IDLE = "idle"
    SUCCESS = "success"
    COLLISION = "collision"


class Message(NamedTuple):
    """A point-to-point message travelling over a single link.

    A named tuple rather than a frozen dataclass, like
    :class:`~repro.topology.graph.Edge`: the simulators build one per
    point-to-point message, and tuple construction is several times cheaper.
    It is immutable all the same (assignment raises ``AttributeError``).

    Attributes:
        sender: node identifier of the transmitting endpoint.
        receiver: node identifier of the receiving endpoint (a neighbour of
            the sender in the point-to-point topology).
        payload: arbitrary picklable payload.  Protocols use small tuples or
            dataclasses; the size accounting in :mod:`repro.sim.metrics`
            treats each message as one O(log n)-bit-header message carrying
            one data element, per the model.
        round_sent: the round in which the message was handed to the network.
    """

    sender: NodeId
    receiver: NodeId
    payload: Any
    round_sent: int

    def __repr__(self) -> str:
        """Render compactly so simulation traces stay readable."""
        return (
            f"Message({self.sender!r}->{self.receiver!r} @r{self.round_sent}: "
            f"{self.payload!r})"
        )


@dataclass(frozen=True)
class ChannelEvent:
    """What every node observes about one resolved channel slot.

    The event is the whole public outcome: a collision reveals only that it
    happened, so an event carries no record of who wrote.  Both simulators
    hand the resolved event to the protocol as it is.

    Attributes:
        slot: the slot index (aligned with the round number).
        state: idle / success / collision.
        payload: the broadcast payload when ``state`` is SUCCESS, else None.
        writer: the identity of the successful writer when ``state`` is
            SUCCESS, else None.  The paper's model lets a successful message
            carry its sender's identifier inside the O(log n)-bit header, so
            exposing it is not extra power.
    """

    slot: int
    state: SlotState
    payload: Any = None
    writer: Optional[NodeId] = None

    def is_idle(self) -> bool:
        """Return ``True`` when nobody wrote in this slot."""
        return self.state is SlotState.IDLE

    def is_success(self) -> bool:
        """Return ``True`` when exactly one node wrote in this slot."""
        return self.state is SlotState.SUCCESS

    def is_collision(self) -> bool:
        """Return ``True`` when two or more nodes wrote in this slot."""
        return self.state is SlotState.COLLISION


def idle_event(slot: int) -> ChannelEvent:
    """Return an IDLE :class:`ChannelEvent` for ``slot``."""
    return ChannelEvent(slot=slot, state=SlotState.IDLE)
