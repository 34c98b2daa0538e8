"""Multiaccess-channel conflict-resolution protocols.

All protocols here are *channel-only*: they never use the point-to-point
network.  A channel stage is one call,
:func:`~repro.protocols.collision.base.run_contention`, over the
contenders' columns (identities and payloads) and one protocol value: it
builds the stage's channel and the protocol schedules the stage on it.
:class:`~repro.protocols.collision.capetanakis.Capetanakis` walks its one
public interval stack over the batch;
:class:`~repro.protocols.collision.metcalfe_boggs.MetcalfeBoggs` keeps its
one public rate and runs by the geometric skip-ahead on an unjammed channel
and slot by slot otherwise.  The Greenberg–Ladner multiplicity estimator
runs against a bare :class:`~repro.sim.channel.SlottedChannel`.
"""

from repro.protocols.collision.base import ScheduleOutcome, run_contention
from repro.protocols.collision.geometric import (
    collision_multiplicity,
    geometric_idle_run,
    run_geometric_contention,
    success_given_busy,
)
from repro.protocols.collision.capetanakis import Capetanakis
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs
from repro.protocols.collision.greenberg_ladner import estimate_multiplicity

__all__ = [
    "ScheduleOutcome",
    "run_contention",
    "collision_multiplicity",
    "geometric_idle_run",
    "run_geometric_contention",
    "success_given_busy",
    "Capetanakis",
    "MetcalfeBoggs",
    "estimate_multiplicity",
]
