"""Computing and estimating the network size ``n`` (Sections 7.3 and 7.4).

The base model assumes every processor knows ``n``.  Section 7 removes the
assumption:

* **Deterministic computation (7.3)** — run the deterministic partitioning
  algorithm phase by phase; after phase ``i`` try to schedule the fragment
  cores on the channel with Capetanakis' resolution for ``2^i`` rounds
  (``2^i · log|id|`` slots).  The first phase in which every core gets
  scheduled has at most ``2^i`` fragments, at which point the exact ``n`` is
  obtained by computing the global sensitive function "sum of ones" with the
  Section 5 algorithm.  Total: O(√n log|id|) time.
* **Randomized estimation (7.4)** — the Greenberg–Ladner protocol: rounds of
  coin flips with halving probabilities; the first idle slot at round ``k``
  yields the estimate ``2^k``, within a constant factor of ``n`` with high
  probability.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.protocols.collision.greenberg_ladner import (
    MultiplicityEstimate,
    estimate_multiplicity,
)
from repro.sim.errors import ProtocolError
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import WeightedGraph
from repro.topology.weights import assign_distinct_weights


@dataclass
class DeterministicSizeResult:
    """Result of the deterministic network-size computation.

    Attributes:
        n: the exact size computed (equals the true number of nodes).
        phases_used: partition phases run before the cores could be scheduled.
        scheduling_slots: channel slots spent on the successful schedule.
        metrics: combined accounting.
    """

    n: int
    phases_used: int
    scheduling_slots: int
    metrics: MetricsSnapshot


def compute_size_deterministically(
    graph: WeightedGraph,
    seed: int,
    metrics: Optional[MetricsRecorder] = None,
) -> DeterministicSizeResult:
    """Compute ``n`` exactly without assuming it is known (Section 7.3).

    The reproduction runs the partition to increasing target sizes ``2^i``
    (mirroring "check at the end of each phase ``i`` whether the number of
    fragments is ≤ 2^i"), attempts the Capetanakis schedule with a slot
    budget of ``2^i · id_bits``, and on the first success counts the nodes
    with the global-sum algorithm over the resulting forest.

    Raises:
        ValueError: if the graph is empty.
    """
    if graph.num_nodes() == 0:
        raise ValueError("cannot size an empty network")
    recorder = metrics if metrics is not None else MetricsRecorder()
    true_n = graph.num_nodes()
    # the cores are nodes, so the ids 0..n-1 fit in id_bits bits
    id_bits = max(1, (true_n - 1).bit_length())
    weighted = assign_distinct_weights(graph, seed=seed)

    phases_used = 0
    scheduling_slots = 0
    forest = None
    max_exponent = max(1, math.ceil(math.log2(max(2, true_n))))
    for exponent in range(1, max_exponent + 1):
        phases_used = exponent
        target = 2 ** exponent
        # running the partition to target min-size 2^exponent leaves ≤ n/2^exponent
        # fragments … but the *node* does not know n, so it verifies by trying
        # to schedule the cores within the slot budget
        partitioner = DeterministicPartitioner(
            weighted, target_size=min(target, true_n), metrics=recorder
        )
        forest = partitioner.run().forest
        budget = (2 ** exponent) * id_bits * 2
        universe = 2 ** id_bits
        contenders = [
            CapetanakisContender(identity=core, universe_size=universe, payload=core)
            for core in forest.cores
        ]
        recorder.set_phase("size-scheduling")
        try:
            outcome = run_contention(contenders, max_slots=budget, metrics=recorder)
        except ProtocolError:
            # the schedule did not fit its budget: run the next phase
            forest = None
            continue
        finally:
            recorder.set_phase(None)
        scheduling_slots = outcome.slots_used
        break
    if forest is None:
        raise RuntimeError("the schedule never fit its budget; this is a bug")

    computation = compute_global_function(
        graph=weighted,
        function=INTEGER_ADDITION,
        inputs={node: 1 for node in graph.nodes()},
        method="deterministic",
        forest=forest,
        seed=seed,
        metrics=recorder,
    )
    return DeterministicSizeResult(
        n=int(computation.value),
        phases_used=phases_used,
        scheduling_slots=scheduling_slots,
        metrics=recorder.snapshot(),
    )


@dataclass
class RandomizedSizeEstimate:
    """Result of the Greenberg–Ladner randomized size estimation.

    Attributes:
        estimate: the estimate ``2^(rounds−1)``.
        rounds: channel slots used.
        true_n: the actual network size (for error reporting).
    """

    estimate: int
    rounds: int
    true_n: int

    @property
    def error_factor(self) -> float:
        """Return the multiplicative error ``max(est/n, n/est)``."""
        if self.true_n <= 0 or self.estimate <= 0:
            return math.inf
        return max(self.estimate / self.true_n, self.true_n / self.estimate)


def estimate_size_randomized(
    graph: WeightedGraph,
    seed: int,
    metrics: Optional[MetricsRecorder] = None,
) -> RandomizedSizeEstimate:
    """Estimate ``n`` with the Greenberg–Ladner protocol (Section 7.4)."""
    if graph.num_nodes() == 0:
        raise ValueError("cannot size an empty network")
    estimate: MultiplicityEstimate = estimate_multiplicity(
        graph.num_nodes(), rng=random.Random(seed), metrics=metrics
    )
    return RandomizedSizeEstimate(
        estimate=estimate.estimate,
        rounds=estimate.rounds,
        true_n=graph.num_nodes(),
    )
