"""E5 — deterministic global-sensitive-function computation (Section 5.1).

Claims reproduced: with the standard partition the deterministic algorithm
computes a global sensitive function in O(√n log n) time; with the tightened
balance of Section 5.1 the time improves to O(√(n log n log* n)).  The
messages stay at O(m + n log n log* n).  Both variants are measured here.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.complexity import global_det_time_bound
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort


@register_experiment(
    id="e5",
    title="E5  Deterministic global sensitive function (sum) "
    "(bound with tightened balance: O(√(n log n log* n)) time)",
    description="deterministic global sensitive function, both balances (Section 5.1)",
    columns=(
        "n", "fragments", "rounds_standard", "rounds_tightened",
        "time_bound", "tightened/bound", "global_slots", "value_correct",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (16, 36), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "topology": "grid"},
        "hot": {"sizes": (1024, 4096), "topology": "grid"},
    },
)
def sweep_point(
    n: int, topology: str = "grid", adversity: object = None
) -> Dict[str, object]:
    """Compute the network-wide sum deterministically under both balances."""
    graph = make_topology(topology, n, seed=11)
    inputs = {node: node for node in graph.nodes()}
    expected = sum(inputs.values())

    def variant(tag: str, tightened: bool):
        state = adversity_state(adversity, "e5", n, topology, tag)
        try:
            return compute_global_function(
                graph, INTEGER_ADDITION, inputs, method="deterministic", seed=7,
                tightened_balance=tightened, adversity=state,
            )
        except AdversityAbort:
            return None

    standard = variant("standard", False)
    tightened = variant("tightened", True)
    bound = global_det_time_bound(graph.num_nodes())
    return {
        "n": graph.num_nodes(),
        "fragments": standard.num_fragments if standard else ABORTED,
        "rounds_standard": standard.total_rounds if standard else ABORTED,
        "rounds_tightened": tightened.total_rounds if tightened else ABORTED,
        "time_bound": round(bound, 1),
        "tightened/bound": tightened.total_rounds / bound if tightened else "-",
        "global_slots": standard.global_slots if standard else ABORTED,
        "value_correct": (
            standard.value == expected and tightened.value == expected
            if standard and tightened
            else "-"
        ),
    }
