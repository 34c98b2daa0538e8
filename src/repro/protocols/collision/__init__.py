"""Multiaccess-channel conflict-resolution protocols.

All protocols here are *channel-only*: they never use the point-to-point
network.  The conflict-resolution protocols are **contender state machines**
(:class:`~repro.protocols.collision.base.ChannelContender`) that larger
algorithms embed to run a channel stage in one call,
:func:`~repro.protocols.collision.base.run_contention`, which builds the
stage's channel and schedules the contenders: a Capetanakis batch by one
walk of the protocol's public interval stack, a fresh batch of
Metcalfe–Boggs contenders on an unjammed channel by the geometric
skip-ahead, and any other batch slot by slot.  The Greenberg–Ladner multiplicity estimator runs against a
bare :class:`~repro.sim.channel.SlottedChannel`.
"""

from repro.protocols.collision.base import (
    ChannelContender,
    ScheduleOutcome,
    run_contention,
)
from repro.protocols.collision.geometric import (
    collision_multiplicity,
    geometric_idle_run,
    run_geometric_contention,
    success_given_busy,
)
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender
from repro.protocols.collision.greenberg_ladner import estimate_multiplicity

__all__ = [
    "ChannelContender",
    "ScheduleOutcome",
    "run_contention",
    "collision_multiplicity",
    "geometric_idle_run",
    "run_geometric_contention",
    "success_given_busy",
    "CapetanakisContender",
    "MetcalfeBoggsContender",
    "estimate_multiplicity",
]
