"""E9 — minimum spanning tree in a multimedia network (Section 6).

Claims reproduced: the multimedia MST algorithm (1) computes exactly the MST
(checked edge for edge against sequential Kruskal), (2) runs in O(√n log n)
time and O(m + n log n log* n) messages, and (3) beats the point-to-point-only
fragment-merging baseline on high-diameter topologies, with the advantage
growing with n.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.complexity import mst_message_bound, mst_time_bound
from repro.core.mst.ghs_baseline import PointToPointMST
from repro.core.mst.kruskal import kruskal_mst
from repro.core.mst.multimedia_mst import MultimediaMST
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort

"""Ring sizes spanning the crossover: below ≈1.5k the point-to-point baseline's
smaller constants win; beyond it the multimedia algorithm's O(√n log n) time
dominates the baseline's Θ(n log n)."""


@register_experiment(
    id="e9",
    title="E9  Multimedia MST vs point-to-point-only baseline "
    "(bounds: time O(√n log n), messages O(m + n log n log* n); exact MST)",
    description="multimedia MST vs point-to-point baseline, exactness (Section 6)",
    columns=(
        "n", "m", "t_multimedia", "time_bound", "t/bound",
        "messages", "messages/bound", "t_p2p_only", "speedup", "matches_kruskal",
    ),
    topologies=("ring", "grid", "geometric", "scale_free", "ad_hoc"),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (16, 64), "topology": "ring"},
        "default": {"sizes": (64, 256, 1024, 2048), "topology": "ring"},
        "hot": {"sizes": (4096, 16384), "topology": "ring"},
    },
)
def sweep_point(
    n: int, topology: str = "ring", adversity: object = None
) -> Dict[str, object]:
    """Build one MST with all three algorithms and compare cost and output.

    Only the multimedia algorithm's simulated stage faces the adversity (the
    point-to-point baseline and Kruskal are abstract reference runs); a
    multimedia run that aborts reports ``"abort"`` cells.
    """
    graph = make_topology(topology, n, seed=11)
    reference = kruskal_mst(graph)
    state = adversity_state(adversity, "e9", n, topology)
    try:
        multimedia = MultimediaMST(graph, adversity=state).run()
    except AdversityAbort:
        multimedia = None
    baseline = PointToPointMST(graph).run()
    baseline_matches = baseline.mst.edge_keys() == reference.edge_keys()
    matches: object = (
        multimedia.mst.edge_keys() == reference.edge_keys() and baseline_matches
        if multimedia
        else "-"
    )
    time_bound = mst_time_bound(graph.num_nodes())
    message_bound = mst_message_bound(graph.num_nodes(), graph.num_edges())
    if multimedia is None:
        return {
            "n": graph.num_nodes(),
            "m": graph.num_edges(),
            "t_multimedia": ABORTED,
            "time_bound": round(time_bound, 1),
            "t/bound": "-",
            "messages": ABORTED,
            "messages/bound": "-",
            "t_p2p_only": baseline.total_rounds,
            "speedup": "-",
            "matches_kruskal": matches,
        }
    return {
        "n": graph.num_nodes(),
        "m": graph.num_edges(),
        "t_multimedia": multimedia.total_rounds,
        "time_bound": round(time_bound, 1),
        "t/bound": multimedia.total_rounds / time_bound,
        "messages": multimedia.metrics.point_to_point_messages,
        "messages/bound": multimedia.metrics.point_to_point_messages / message_bound,
        "t_p2p_only": baseline.total_rounds,
        "speedup": baseline.total_rounds / multimedia.total_rounds,
        "matches_kruskal": matches,
    }
