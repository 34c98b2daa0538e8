"""Single-medium baselines for computing global sensitive functions.

Theorem 2 proves that any algorithm needs Ω(d) time on a point-to-point
network of diameter ``d`` and Ω(n) time on a broadcast channel alone.  These
baselines realise the natural algorithms for each medium (they are optimal up
to constants for the topologies the experiments use), so the model-separation
experiment (E7) can compare measured times of the multimedia algorithm
against each medium on its own:

* **point-to-point only** — grow a BFS tree from a distinguished leader
  (node 0), converge-cast the operands up the tree and broadcast the result
  back down: Θ(d) rounds, Θ(m + n) messages.
* **channel only** — every node must broadcast its operand (no node may be
  silent, by global sensitivity), scheduled either deterministically
  (Capetanakis, Θ(n log n) slots) or randomly (Metcalfe–Boggs, Θ(n) expected
  slots).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.global_function.semigroup import GlobalSensitiveFunction
from repro.core.partition.forest import SpanningForest
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.sim.adversity import AdversityState
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.graph import WeightedGraph


@dataclass
class BaselineResult:
    """Outcome of a single-medium baseline computation.

    Attributes:
        value: the computed function value.
        metrics: time/message accounting.
        medium: ``"point-to-point"`` or ``"channel"``.
        rounds: end-to-end time in rounds/slots.
    """

    value: object
    metrics: MetricsSnapshot
    medium: str
    rounds: int


def compute_on_point_to_point_only(
    graph: WeightedGraph,
    function: GlobalSensitiveFunction,
    inputs: Dict[int, object],
    metrics: Optional[MetricsRecorder] = None,
    adversity: Optional[AdversityState] = None,
) -> BaselineResult:
    """Compute the function using only the point-to-point network.

    A BFS spanning tree is grown from the leader, node 0 (the minimum
    identifier — the paper's Ω(d) bound holds even with a distinguished
    leader), the operands are converge-cast to the leader and
    the result is broadcast back down so every node learns it.  The BFS
    construction is charged its textbook synchronous cost
    (eccentricity-of-leader rounds, at most two messages per link); the
    aggregation runs as a genuine message-passing protocol on the simulator
    — which is where an ``adversity`` schedule bites (the analytically
    charged BFS stage is out of its reach).
    """
    recorder = metrics if metrics is not None else MetricsRecorder()
    recorder.set_phase("bfs")
    parent, labels = build_bfs_forest(graph, 0)
    recorder.record_round(max(labels))
    recorder.record_messages(2 * graph.num_edges())
    recorder.set_phase(None)

    recorder.set_phase("aggregate")
    forest = SpanningForest(parent)
    network = MultimediaNetwork(graph)
    simulation = network.run(
        TreeAggregationFlyweight.over(
            forest, inputs, function.combine, redistribute=True
        ),
        metrics=recorder,
        adversity=adversity,
    )
    recorder.set_phase(None)
    value = simulation.results[0]
    return BaselineResult(
        value=value,
        metrics=recorder.snapshot(),
        medium="point-to-point",
        rounds=recorder.rounds,
    )


def compute_on_channel_only(
    graph: WeightedGraph,
    function: GlobalSensitiveFunction,
    inputs: Dict[int, object],
    method: str = "randomized",
    seed: int = 0,
    metrics: Optional[MetricsRecorder] = None,
    adversity: Optional[AdversityState] = None,
) -> BaselineResult:
    """Compute the function using only the multiaccess channel.

    Every node broadcasts its operand exactly once (global sensitivity means
    none may stay silent); the broadcasts are scheduled deterministically
    (Capetanakis tree splitting) or randomly (Metcalfe–Boggs with the exact
    count as the estimate).  Every node hears every broadcast and combines
    them locally.  An ``adversity`` schedule reaches this baseline only
    through jamming (it is channel-only by construction), which slows the
    contention and bounds it by the schedule's slot budget.  ``seed`` keys
    the randomized broadcasts' draws; it is fixed by default, so a call
    that omits it is reproducible.

    Raises:
        ValueError: on an unknown ``method``.
    """
    if method not in ("deterministic", "randomized"):
        raise ValueError(f"unknown method {method!r}")
    recorder = metrics if metrics is not None else MetricsRecorder()
    nodes = graph.nodes()
    n = len(nodes)
    recorder.set_phase("channel")
    if method == "deterministic":
        contenders = [
            CapetanakisContender(identity=node, universe_size=n, payload=inputs[node])
            for node in nodes
        ]
    else:
        rng = random.Random(seed)
        # eager per-node seed draws (the v2 golden stream), lazy generators:
        # the skip-ahead scheduler materialises only the first one
        contenders = [
            MetcalfeBoggsContender(
                identity=node,
                estimated_contenders=max(1, n),
                seed=rng.randrange(2**63),
                payload=inputs[node],
            )
            for node in nodes
        ]
    # every node contends, so the adversity budget is sized for them all
    outcome = run_contention(contenders, metrics=recorder, adversity=adversity)
    recorder.set_phase(None)
    value = function.evaluate(outcome.broadcasts)
    return BaselineResult(
        value=value,
        metrics=recorder.snapshot(),
        medium="channel",
        rounds=recorder.rounds,
    )
