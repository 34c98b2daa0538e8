"""Messages, channel slots, and the observations nodes make of them.

These small immutable records are the vocabulary shared by the simulator and
every protocol: point-to-point :class:`Message` objects travel over links,
and each channel slot resolves to a :class:`ChannelEvent` whose
:class:`SlotState` is exactly the three-valued feedback of the paper's model
(idle / success / collision).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Hashable, NamedTuple, Optional, Tuple

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

    Attributes:
        slot: the slot index (aligned with the round number).
        state: idle / success / collision.
        payload: the broadcast payload when ``state`` is SUCCESS, else None.
        writer: the identity of the successful writer when ``state`` is
            SUCCESS, else None.  The paper's model lets a successful message
            carry its sender's identifier inside the O(log n)-bit header, so
            exposing it is not extra power.
        writers: the identities of all nodes that attempted to write.  This
            field exists for metrics and debugging only; protocols must not
            read it on a collision (collision detection reveals only that
            more than one node wrote), and the simulator's strict mode
            enforces that by omitting it from the events handed to nodes.
    """

    slot: int
    state: SlotState
    payload: Any = None
    writer: Optional[NodeId] = None
    writers: Tuple[NodeId, ...] = field(default=())

    def is_idle(self) -> bool:
        """Return ``True`` when nobody wrote in this slot."""
        return self.state is SlotState.IDLE

    def is_success(self) -> bool:
        """Return ``True`` when exactly one node wrote in this slot."""
        return self.state is SlotState.SUCCESS

    def is_collision(self) -> bool:
        """Return ``True`` when two or more nodes wrote in this slot."""
        return self.state is SlotState.COLLISION

    def public_view(self) -> "ChannelEvent":
        """Return the event as protocols are allowed to see it.

        The ``writers`` tuple (who collided) is hidden because the model only
        reveals *that* a collision happened, not who caused it.

        The view is computed at most once per event: an event that already
        carries no ``writers`` (idle slots) is its own public view, and the
        derived event is cached otherwise.  The simulator asks for the view
        once per node per slot, so this sits on the round-loop fast path.
        """
        if not self.writers:
            return self
        public = self.__dict__.get("_public_view")
        if public is None:
            public = ChannelEvent(
                slot=self.slot,
                state=self.state,
                payload=self.payload,
                writer=self.writer,
                writers=(),
            )
            object.__setattr__(self, "_public_view", public)
        return public


def idle_event(slot: int) -> ChannelEvent:
    """Return an IDLE :class:`ChannelEvent` for ``slot``."""
    return ChannelEvent(slot=slot, state=SlotState.IDLE)
