"""E3 — randomized partition quality (Section 4, Theorem 1).

Claims reproduced: the randomized partitioning algorithm outputs a spanning
forest of trees of radius at most 4√n, and the expected number of trees is
O(√n).  The table reports the across-seed mean number of trees and the worst
observed radius.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.analysis.statistics import mean
from repro.core.partition.randomized import RandomizedPartitioner
from repro.core.partition.validation import validate_partition
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@register_experiment(
    id="e3",
    title="E3  Randomized partition quality "
    "(bounds: radius ≤ 4√n, E[#trees] = O(√n))",
    description="randomized partition quality bounds (Section 4, Theorem 1)",
    columns=(
        "n", "sqrt_n", "mean_fragments", "fragments/sqrt_n",
        "max_radius", "radius_bound", "structure_ok",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    presets={
        "quick": {"sizes": (16, 36), "seeds": (1,), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "seeds": (1, 2, 3), "topology": "grid"},
        "hot": {"sizes": (4096, 16384), "seeds": (1, 2), "topology": "grid"},
    },
)
def sweep_point(
    n: int, seeds: Sequence[int] = DEFAULT_SEEDS, topology: str = "grid"
) -> Dict[str, object]:
    """Partition one topology across seeds and validate the Theorem 1 bounds."""
    graph = make_topology(topology, n, seed=11)
    sqrt_n = math.sqrt(graph.num_nodes())
    fragment_counts = []
    worst_radius = 0
    structure_ok = True
    for seed in seeds:
        result = RandomizedPartitioner(graph, seed=seed).run()
        report = validate_partition(result.forest, graph)
        structure_ok = structure_ok and report.ok
        fragment_counts.append(result.num_fragments)
        worst_radius = max(worst_radius, result.forest.max_radius())
    return {
        "n": graph.num_nodes(),
        "sqrt_n": round(sqrt_n, 1),
        "mean_fragments": mean(fragment_counts),
        "fragments/sqrt_n": mean(fragment_counts) / sqrt_n,
        "max_radius": worst_radius,
        "radius_bound": round(4 * sqrt_n, 1),
        "structure_ok": structure_ok,
    }
