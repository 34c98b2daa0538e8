"""E1 — deterministic partition quality (Section 3, Claims 1 and 2).

Claim reproduced: the deterministic partitioning algorithm outputs a spanning
forest in which every tree is a subtree of the MST, every tree has at least
√n nodes, the radius of every tree is at most 8√n, and consequently there are
at most √n trees.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.validation import validate_partition
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment


@register_experiment(
    id="e1",
    title="E1  Deterministic partition quality (bounds: #trees ≤ √n, "
    "min size ≥ √n, radius ≤ 8√n, trees ⊆ MST)",
    description="deterministic partition quality bounds (Section 3, Claims 1–2)",
    columns=(
        "n", "m", "sqrt_n", "fragments", "min_size", "max_radius",
        "radius/sqrt_n", "subtrees_of_MST", "all_bounds_hold",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    presets={
        "quick": {"sizes": (16, 36), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "topology": "grid"},
        "hot": {"sizes": (4096, 16384), "topology": "grid"},
    },
)
def sweep_point(n: int, topology: str = "grid") -> Dict[str, object]:
    """Partition one topology and validate every Section 3 bound."""
    graph = make_topology(topology, n, seed=11)
    result = DeterministicPartitioner(graph).run()
    sqrt_n = math.sqrt(graph.num_nodes())
    report = validate_partition(
        result.forest,
        graph,
        check_mst_subtrees=True,
        min_size_bound=sqrt_n,
        max_radius_bound=8 * sqrt_n,
        max_fragments_bound=sqrt_n,
    )
    return {
        "n": report.n,
        "m": graph.num_edges(),
        "sqrt_n": round(sqrt_n, 1),
        "fragments": report.num_fragments,
        "min_size": report.min_size,
        "max_radius": report.max_radius,
        "radius/sqrt_n": report.radius_ratio,
        "subtrees_of_MST": bool(report.subtrees_of_mst),
        "all_bounds_hold": report.ok,
    }
