"""Discrete-event simulation of the multimedia network model (Section 2).

The model combines two media:

* a synchronous point-to-point message-passing network over an arbitrary
  topology — in each round every node may send one message per incident link
  and receives, at the start of the next round, every message addressed to it;
* a slotted multiaccess channel — in each slot every node may attempt one
  broadcast; the slot resolves to ``idle``, ``success`` (the single written
  payload is heard by everybody) or ``collision`` (detected by everybody).

One round of the point-to-point network and one slot of the channel take one
time unit each and are aligned, following the paper's assumption that the
message delay and the slot length are of the same order of magnitude.

The package also provides the asynchronous point-to-point engine and the
channel synchronizer of Section 7.1, plus the slotted-from-unslotted
conversion of Section 7.2.
"""

from repro.sim.adversity import (
    ADVERSITY_KINDS,
    ADVERSITY_PRESETS,
    AdversitySpec,
    AdversityState,
    adversity_state,
    adversity_stream_seed,
    canonical_adversity,
    resolve_adversity,
)
from repro.sim.errors import (
    AdversityAbort,
    ProtocolError,
    SimulationError,
    SimulationTimeout,
)
from repro.sim.events import ChannelEvent, Message, SlotState
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.metrics import MetricsRecorder
from repro.sim.substreams import NodeStreams, substream_seed
from repro.sim.network import PointToPointNetwork
from repro.sim.channel import SlottedChannel
from repro.sim.multimedia import MultimediaNetwork, SimulationResult
from repro.sim.synchronizer import ChannelSynchronizer, SynchronizerReport
from repro.sim.slotting import UnslottedChannel, slotted_from_unslotted

__all__ = [
    "ADVERSITY_KINDS",
    "ADVERSITY_PRESETS",
    "AdversityAbort",
    "AdversitySpec",
    "AdversityState",
    "adversity_state",
    "adversity_stream_seed",
    "canonical_adversity",
    "resolve_adversity",
    "ProtocolError",
    "SimulationError",
    "SimulationTimeout",
    "ChannelEvent",
    "Message",
    "SlotState",
    "FlyweightEnvironment",
    "FlyweightProtocol",
    "MetricsRecorder",
    "NodeStreams",
    "substream_seed",
    "PointToPointNetwork",
    "SlottedChannel",
    "MultimediaNetwork",
    "SimulationResult",
    "ChannelSynchronizer",
    "SynchronizerReport",
    "UnslottedChannel",
    "slotted_from_unslotted",
]
