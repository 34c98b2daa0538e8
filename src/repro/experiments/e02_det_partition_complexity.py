"""E2 — deterministic partition complexity (Section 3).

Claims reproduced: the deterministic partitioning algorithm runs in
O(√n log* n) time and sends O(m + n log n log* n) messages.  The table
reports the measured rounds and messages together with their ratios to the
bound formulas; a successful reproduction shows ratios that stay within a
constant band as n grows.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.complexity import (
    det_partition_message_bound,
    det_partition_time_bound,
)
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment


@register_experiment(
    id="e2",
    title="E2  Deterministic partition complexity "
    "(bounds: time O(√n log* n), messages O(m + n log n log* n))",
    description="deterministic partition time/message complexity (Section 3)",
    columns=(
        "n", "m", "rounds", "busy_rounds", "time_bound",
        "rounds/bound", "messages", "message_bound", "messages/bound",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    presets={
        "quick": {"sizes": (16, 36), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "topology": "grid"},
        "hot": {"sizes": (1024, 4096, 16384), "topology": "grid"},
        # single-instance scale probe past n = 10^5 (PR 5's partition-loop
        # round 2); one point, so a sharded/checkpointed run resumes cleanly
        "xhot": {"sizes": (102400,), "topology": "grid"},
        # single instance at n = 10^6 (PR 8's CSR graph core); ~70 s/run —
        # run on demand (`repro run e2 --preset xxhot`), never in CI
        "xxhot": {"sizes": (1000000,), "topology": "grid"},
    },
)
def sweep_point(n: int, topology: str = "grid") -> Dict[str, object]:
    """Partition one topology and compare its cost to the Section 3 bounds."""
    graph = make_topology(topology, n, seed=11)
    result = DeterministicPartitioner(graph).run()
    time_bound = det_partition_time_bound(graph.num_nodes())
    message_bound = det_partition_message_bound(graph.num_nodes(), graph.num_edges())
    return {
        "n": graph.num_nodes(),
        "m": graph.num_edges(),
        "rounds": result.metrics.rounds,
        "busy_rounds": result.busy_rounds,
        "time_bound": round(time_bound, 1),
        "rounds/bound": result.metrics.rounds / time_bound,
        "messages": result.metrics.point_to_point_messages,
        "message_bound": round(message_bound, 1),
        "messages/bound": result.metrics.point_to_point_messages / message_bound,
    }
