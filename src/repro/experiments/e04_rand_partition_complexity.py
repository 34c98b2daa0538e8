"""E4 — randomized partition complexity and the Las-Vegas variant (Section 4).

Claims reproduced: the randomized partitioning algorithm runs in
O(√n log* n) time and sends O(m + n log* n) messages; the Las-Vegas wrapper
verifies the forest with probability well above 1/2, so restarts are rare and
the expected cost matches the Monte-Carlo cost.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.complexity import (
    rand_partition_message_bound,
    rand_partition_time_bound,
)
from repro.analysis.statistics import mean
from repro.core.partition.randomized import RandomizedPartitioner
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@register_experiment(
    id="e4",
    title="E4  Randomized partition complexity "
    "(bounds: time O(√n log* n), messages O(m + n log* n); Las-Vegas restarts rare)",
    description="randomized partition complexity + Las-Vegas restarts (Section 4)",
    columns=(
        "n", "m", "mean_rounds", "time_bound", "rounds/bound",
        "mean_messages", "message_bound", "messages/bound", "total_restarts",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    presets={
        "quick": {"sizes": (16, 36), "seeds": (1,), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "seeds": (1, 2, 3), "topology": "grid"},
        "hot": {"sizes": (1024, 4096, 16384), "seeds": (1, 2), "topology": "grid"},
        # single-instance scale probe past n = 10^5 (PR 5's partition-loop
        # round 2); one seed keeps the Las-Vegas run within the 10 s budget
        "xhot": {"sizes": (102400,), "seeds": (1,), "topology": "grid"},
        # single instance at n = 10^6 (PR 8's CSR graph core); ~75 s/run —
        # run on demand (`repro run e4 --preset xxhot`), never in CI
        "xxhot": {"sizes": (1000000,), "seeds": (1,), "topology": "grid"},
    },
)
def sweep_point(
    n: int, seeds: Sequence[int] = DEFAULT_SEEDS, topology: str = "grid"
) -> Dict[str, object]:
    """Run the Las-Vegas partitioner across seeds and compare to the bounds."""
    graph = make_topology(topology, n, seed=11)
    rounds, messages, restarts = [], [], 0
    for seed in seeds:
        result = RandomizedPartitioner(graph, seed=seed, las_vegas=True).run()
        rounds.append(result.metrics.rounds)
        messages.append(result.metrics.point_to_point_messages)
        restarts += result.restarts
    time_bound = rand_partition_time_bound(graph.num_nodes())
    message_bound = rand_partition_message_bound(graph.num_nodes(), graph.num_edges())
    return {
        "n": graph.num_nodes(),
        "m": graph.num_edges(),
        "mean_rounds": mean(rounds),
        "time_bound": round(time_bound, 1),
        "rounds/bound": mean(rounds) / time_bound,
        "mean_messages": mean(messages),
        "message_bound": round(message_bound, 1),
        "messages/bound": mean(messages) / message_bound,
        "total_restarts": restarts,
    }
