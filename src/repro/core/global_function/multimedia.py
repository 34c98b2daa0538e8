"""The two-stage multimedia algorithms for global sensitive functions (§5.1).

Given the forest produced by a partitioning algorithm:

* **Local stage** — every fragment aggregates its members' operands with a
  broadcast-and-respond on its tree (run as a genuine message-passing
  protocol on the simulator); the fragment root ends up holding the partial
  result for its fragment.  Cost: O(√n) rounds, O(n) messages.
* **Global stage** — the fragment roots broadcast their partial results on
  the multiaccess channel.  With the deterministic Capetanakis schedule this
  takes O(√n log n) slots; with the randomized Metcalfe–Boggs access O(√n)
  expected slots.  Every node hears every successful slot, so every node can
  combine the partials and learn the value — no redistribution is needed.

The deterministic end-to-end bound is O(√(n log n log* n)) when the
partition is run with the *tightened balance* of Section 5.1 (stop the
partition at fragments of size √(n / (log n log* n)), leaving
O(√(n log n log* n)) of them); ``tightened_balance=True`` selects that
variant.  The randomized end-to-end bound is O(√n log* n) expected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

import random

from repro.core.global_function.semigroup import GlobalSensitiveFunction
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.forest import SpanningForest
from repro.core.partition.randomized import RandomizedPartitioner
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import Capetanakis
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.protocols.symmetry.cole_vishkin import log_star
from repro.sim.adversity import AdversityState
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.graph import WeightedGraph
from repro.topology.weights import assign_distinct_weights


@dataclass
class GlobalComputationResult:
    """Outcome of computing a global sensitive function on a multimedia network.

    Attributes:
        value: the computed function value (identical at every node).
        metrics: combined complexity of partition + local stage + global stage.
        num_fragments: number of fragments (= channel broadcasts needed).
        partition_rounds / local_rounds / global_slots: per-stage time costs.
        method: ``"deterministic"`` or ``"randomized"``.
    """

    value: object
    metrics: MetricsSnapshot
    num_fragments: int
    partition_rounds: int
    local_rounds: int
    global_slots: int
    method: str

    @property
    def total_rounds(self) -> int:
        """Return the end-to-end time in rounds/slots."""
        return self.metrics.rounds


def compute_global_function(
    graph: WeightedGraph,
    function: GlobalSensitiveFunction,
    inputs: Dict[int, object],
    method: str = "deterministic",
    *,
    seed: int,
    forest: Optional[SpanningForest] = None,
    tightened_balance: bool = False,
    metrics: Optional[MetricsRecorder] = None,
    adversity: Optional[AdversityState] = None,
) -> GlobalComputationResult:
    """Compute ``function`` over the distributed ``inputs`` on a multimedia network.

    Args:
        graph: the point-to-point topology (all nodes also share the channel).
        function: the global sensitive function (commutative semigroup).
        inputs: each node's operand; every node of ``graph`` must appear.
        method: ``"deterministic"`` (Section 3 partition + Capetanakis
            scheduling) or ``"randomized"`` (Section 4 partition +
            Metcalfe–Boggs scheduling).
        seed: randomness seed of the distinct weights the deterministic
            method assigns a graph without them, of the randomized
            partition and of the roots' Metcalfe–Boggs draws; required, so
            every run is reproducible.
        forest: reuse an existing partition instead of computing one; its
            cost is then not charged.
        tightened_balance: deterministic method only — stop the partition at
            fragments of size √(n / (log n log* n)) as in Section 5.1.
        metrics: externally owned recorder to charge.
        adversity: optional adversity state; faults hit the two sim-layer
            stages (local aggregation and channel scheduling).  Stage 0, the
            partition, is computed abstractly (its cost is charged
            analytically, not simulated message by message), so the schedule
            cannot touch it — a limitation, not a modelling choice.

    Returns:
        A :class:`GlobalComputationResult`; ``result.value`` equals
        ``function.evaluate(inputs.values())``.

    Raises:
        ValueError: on an unknown method or missing inputs.
    """
    if method not in ("deterministic", "randomized"):
        raise ValueError(f"unknown method {method!r}")
    missing = [node for node in graph.nodes() if node not in inputs]
    if missing:
        raise ValueError(f"missing inputs for {len(missing)} node(s)")

    recorder = metrics if metrics is not None else MetricsRecorder()
    n = graph.num_nodes()

    # ------------------------------------------------------------------
    # stage 0: partition (unless one was supplied)
    # ------------------------------------------------------------------
    partition_rounds = 0
    if forest is None:
        rounds_before = recorder.rounds
        if method == "deterministic":
            weighted = (
                graph
                if graph.csr().has_distinct_weights()
                else assign_distinct_weights(graph, seed=seed)
            )
            target = None
            if tightened_balance and n >= 4:
                denominator = max(1.0, math.log2(n) * max(1, log_star(n)))
                target = max(1, math.ceil(math.sqrt(n / denominator)))
            partitioner = DeterministicPartitioner(
                weighted, target_size=target, metrics=recorder
            )
            forest = partitioner.run().forest
        else:
            partitioner = RandomizedPartitioner(graph, seed=seed, metrics=recorder)
            forest = partitioner.run().forest
        partition_rounds = recorder.rounds - rounds_before

    # ------------------------------------------------------------------
    # stage 1: local aggregation on the fragment trees (message passing)
    # ------------------------------------------------------------------
    rounds_before = recorder.rounds
    recorder.set_phase("local")
    network = MultimediaNetwork(graph)
    simulation = network.run(
        TreeAggregationFlyweight.over(forest, inputs, function.combine),
        metrics=recorder,
        adversity=adversity,
    )
    recorder.set_phase(None)
    local_rounds = recorder.rounds - rounds_before
    partials = {
        core: simulation.results[core] for core in forest.cores
    }

    # ------------------------------------------------------------------
    # stage 2: the roots broadcast their partials on the channel
    # ------------------------------------------------------------------
    rounds_before = recorder.rounds
    recorder.set_phase("global")
    if method == "deterministic":
        # the cores are nodes, so the ids 0..n-1 are their Capetanakis universe
        protocol = Capetanakis(n)
    else:
        protocol = MetcalfeBoggs(
            max(1, math.ceil(2 * math.sqrt(n))), random.Random(seed)
        )
    outcome = run_contention(
        protocol,
        forest.cores,
        [partials[core] for core in forest.cores],
        recorder,
        adversity=adversity,
        network_size=n,
    )
    recorder.set_phase(None)
    global_slots = recorder.rounds - rounds_before

    value = function.evaluate(outcome.broadcasts)
    return GlobalComputationResult(
        value=value,
        metrics=recorder.snapshot(),
        num_fragments=forest.num_fragments(),
        partition_rounds=partition_rounds,
        local_rounds=local_rounds,
        global_slots=global_slots,
        method=method,
    )

