"""E8 — the multimedia lower bound and the upper/lower gap (Section 5.2).

Claims reproduced: on ray graphs of diameter d the computation of a global
sensitive function needs Ω(min{d, √n}) time in a multimedia network
(Claim 4's adversary keeps the function sensitive for min{d, √n}/4 steps),
while the paper's randomized algorithm achieves O(√n log* n) — leaving only a
log* n-factor gap (plus constants).  The table reports, for ray graphs of
increasing diameter, the adversary horizon, the analytic bounds and the
measured multimedia time, confirming measured ≥ lower bound and
measured = Õ(upper bound).
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.analysis.complexity import global_rand_time_bound
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION
from repro.core.lower_bounds import claim4_sensitivity_trace, multimedia_lower_bound
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.topology.generators import ray_graph
from repro.topology.properties import diameter
from repro.topology.weights import assign_distinct_weights

"""(num_rays, ray_length) pairs — n = rays·length + 1, d = 2·length."""


def _ray_points(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One sweep point per (num_rays, ray_length) pair."""
    shared = {
        key: value for key, value in params.items() if key not in ("params",)
    }
    return [
        dict(shared, num_rays=num_rays, ray_length=ray_length)
        for num_rays, ray_length in params["params"]
    ]


@register_experiment(
    id="e8",
    title="E8  Multimedia lower bound on ray graphs "
    "(Ω(min{d,√n}) ≤ measured ≤ O(√n log* n))",
    description="Ω(min{d,√n}) lower bound vs measured time on ray graphs (§5.2)",
    columns=(
        "n", "diameter", "adversary_horizon", "lower_bound",
        "t_multimedia", "upper_bound", "lb ≤ measured", "measured/upper",
    ),
    # the sweep is over ray-graph shapes, not make_topology kinds
    topologies=(),
    adversities=ADVERSITY_KINDS,
    points=_ray_points,
    presets={
        "quick": {"params": ((4, 4), (8, 4))},
        "default": {"params": ((8, 8), (16, 8), (16, 16))},
        "hot": {"params": ((32, 32), (64, 32))},
    },
)
def sweep_point(
    num_rays: int, ray_length: int, adversity: object = None
) -> Dict[str, object]:
    """Run the multimedia algorithm on one ray graph against Claim 4's bound."""
    graph = assign_distinct_weights(ray_graph(num_rays, ray_length), seed=11)
    n = graph.num_nodes()
    d = diameter(graph)
    trace = claim4_sensitivity_trace(n, d)
    inputs = {node: node for node in graph.nodes()}
    state = adversity_state(adversity, "e8", num_rays, ray_length)
    lower = multimedia_lower_bound(n, d)
    upper = global_rand_time_bound(n)
    try:
        result = compute_global_function(
            graph, INTEGER_ADDITION, inputs, method="randomized", seed=5,
            adversity=state,
        )
    except AdversityAbort:
        return {
            "n": n,
            "diameter": d,
            "adversary_horizon": trace.horizon,
            "lower_bound": lower,
            "t_multimedia": ABORTED,
            "upper_bound": round(upper, 1),
            "lb ≤ measured": "-",
            "measured/upper": "-",
        }
    return {
        "n": n,
        "diameter": d,
        "adversary_horizon": trace.horizon,
        "lower_bound": lower,
        "t_multimedia": result.total_rounds,
        "upper_bound": round(upper, 1),
        "lb ≤ measured": result.total_rounds >= lower,
        "measured/upper": result.total_rounds / upper,
    }
