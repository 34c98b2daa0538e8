"""Multiaccess-channel conflict-resolution protocols.

All protocols here are *channel-only*: they never use the point-to-point
network.  The conflict-resolution protocols are **contender state machines**
(:class:`~repro.protocols.collision.base.ChannelContender`) that larger
algorithms embed to schedule a set of contenders (e.g. fragment roots) on
the channel slot by slot with
:func:`~repro.protocols.collision.base.run_contention`.  The
Greenberg–Ladner estimator and the randomized leader election are also
provided as flyweights runnable stand-alone on a
:class:`~repro.sim.multimedia.MultimediaNetwork`.
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
from repro.protocols.collision.greenberg_ladner import (
    GreenbergLadnerFlyweight,
    estimate_multiplicity,
)
from repro.protocols.collision.leader_election import (
    RandomizedLeaderElectionFlyweight,
    elect_leader,
)

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
    "GreenbergLadnerFlyweight",
    "estimate_multiplicity",
    "RandomizedLeaderElectionFlyweight",
    "elect_leader",
]
