"""E6 — randomized global-sensitive-function computation (Section 5.1).

Claims reproduced: the randomized two-stage algorithm computes a global
sensitive function in O(√n log* n) expected time with O(m + n log* n)
messages; the global stage needs only O(1) expected slots per fragment root.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.complexity import global_rand_time_bound, rand_partition_message_bound
from repro.analysis.statistics import mean
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION, INTEGER_MINIMUM, XOR
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort

DEFAULT_SEEDS = (1, 2, 3)

_FUNCTIONS = (INTEGER_ADDITION, INTEGER_MINIMUM, XOR)


@register_experiment(
    id="e6",
    title="E6  Randomized global sensitive functions (sum/min/xor) "
    "(bounds: E[time] O(√n log* n), messages O(m + n log* n), "
    "O(1) expected slots per root)",
    description="randomized global sensitive functions (Section 5.1)",
    columns=(
        "n", "mean_rounds", "time_bound", "rounds/bound",
        "mean_messages", "messages/bound", "slots_per_root", "values_correct",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (16, 36), "seeds": (1,), "topology": "grid"},
        "default": {"sizes": (64, 144, 256), "seeds": (1, 2, 3), "topology": "grid"},
        "hot": {"sizes": (1024, 4096), "seeds": (1, 2), "topology": "grid"},
    },
)
def sweep_point(
    n: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    topology: str = "grid",
    adversity: object = None,
) -> Dict[str, object]:
    """Aggregate sum/min/xor across seeds and compare to the Section 5.1 bounds.

    Under adversity, seeds whose run aborts are excluded from the means; a
    point where every seed aborts reports an ``"abort"`` row.
    """
    graph = make_topology(topology, n, seed=11)
    inputs = {node: node + 1 for node in graph.nodes()}
    rounds, messages, slots_per_root = [], [], []
    correct = True
    for seed in seeds:
        function = _FUNCTIONS[seed % len(_FUNCTIONS)]
        expected = function.evaluate(list(inputs.values()))
        state = adversity_state(adversity, "e6", n, topology, seed)
        try:
            result = compute_global_function(
                graph, function, inputs, method="randomized", seed=seed,
                adversity=state,
            )
        except AdversityAbort:
            continue
        correct = correct and result.value == expected
        rounds.append(result.total_rounds)
        messages.append(result.metrics.point_to_point_messages)
        slots_per_root.append(result.global_slots / max(1, result.num_fragments))
    time_bound = global_rand_time_bound(graph.num_nodes())
    message_bound = rand_partition_message_bound(graph.num_nodes(), graph.num_edges())
    if not rounds:
        return {
            "n": graph.num_nodes(),
            "mean_rounds": ABORTED,
            "time_bound": round(time_bound, 1),
            "rounds/bound": "-",
            "mean_messages": ABORTED,
            "messages/bound": "-",
            "slots_per_root": "-",
            "values_correct": "-",
        }
    return {
        "n": graph.num_nodes(),
        "mean_rounds": mean(rounds),
        "time_bound": round(time_bound, 1),
        "rounds/bound": mean(rounds) / time_bound,
        "mean_messages": mean(messages),
        "messages/bound": mean(messages) / message_bound,
        "slots_per_root": mean(slots_per_root),
        "values_correct": correct,
    }
