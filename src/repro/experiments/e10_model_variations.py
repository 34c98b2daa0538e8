"""E10 — model variations (Section 7).

Claims reproduced:

* **Corollary 4** — the channel synchronizer runs a synchronous algorithm on
  an asynchronous network with at most 2× the messages (acknowledgements)
  and a constant-factor time overhead.
* **Section 7.3** — the deterministic size computation returns the exact n.
* **Section 7.4** — the Greenberg–Ladner estimate is within a small
  multiplicative factor of n with high probability.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.analysis.statistics import mean
from repro.core.partition.forest import SpanningForest
from repro.core.size_estimation import (
    compute_size_deterministically,
    estimate_size_randomized,
)
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer

DEFAULT_SEEDS = (1, 2, 3)


def _count_nodes(graph, root):
    """Return the factory counting the nodes up a BFS tree rooted at ``root``."""
    parent, _ = build_bfs_forest(graph, root)
    return TreeAggregationFlyweight.over(
        SpanningForest(parent),
        dict.fromkeys(graph.nodes(), 1),
        lambda a, b: a + b,
        redistribute=True,
    )


@register_experiment(
    id="e10",
    title="E10  Model variations: synchronizer overhead (Cor. 4), "
    "exact size computation (7.3), randomized size estimate (7.4)",
    description="synchronizer overhead + size computation/estimation (Section 7)",
    columns=(
        "n", "sync_msg_overhead(≤2)", "sync_pulses", "sync_time",
        "det_size_exact", "mean_GL_estimate", "GL_error_factor",
    ),
    topologies=("grid", "ring", "geometric", "scale_free", "ad_hoc"),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (16, 36), "seeds": (1,), "topology": "grid"},
        "default": {"sizes": (36, 64, 100), "seeds": (1, 2, 3), "topology": "grid"},
        "hot": {"sizes": (1024, 4096), "seeds": (1, 2), "topology": "grid"},
        # the synchronizer at scale: the size protocols spend their time in
        # the partition, not the synchronizer, so they are gated off and
        # the preset times the sim layer it exists to watch
        "xhot": {
            "sizes": (102400,), "seeds": (1,), "topology": "grid",
            "size_protocols": False,
        },
    },
)
def sweep_point(
    n: int,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    topology: str = "grid",
    adversity: object = None,
    size_protocols: bool = True,
) -> Dict[str, object]:
    """Exercise the Section 7 variations on one topology.

    The synchronous and synchronized aggregation runs each face an
    independently-seeded adversity instance (the size protocols stay
    fault-free — they calibrate the estimate columns); an aborted run shows
    ``"abort"`` in its columns.  ``size_protocols=False`` skips the Section
    7.3/7.4 size columns (shown as ``"-"``): they are partition-bound, and
    the ``xhot`` preset exists to time the synchronizer, not the partition.

    Raises:
        AssertionError: in fault-free runs only — if the synchronous and
            synchronized runs disagree on the aggregate (both must equal the
            true node count).
    """
    graph = make_topology(topology, n, seed=11)
    true_n = graph.num_nodes()
    root = min(graph.nodes())
    count_nodes = _count_nodes(graph, root)

    # Corollary 4: run the same aggregation synchronously and under the
    # channel synchronizer on an asynchronous network
    try:
        sync_run = MultimediaNetwork(graph).run(
            count_nodes,
            adversity=adversity_state(adversity, "e10", n, topology, "sync"),
        )
    except AdversityAbort:
        sync_run = None
    try:
        async_run = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            count_nodes,
            adversity=adversity_state(adversity, "e10", n, topology, "async"),
        )
    except AdversityAbort:
        async_run = None
    if adversity is None:
        assert async_run.results[root] == sync_run.results[root] == true_n

    if size_protocols:
        det = compute_size_deterministically(graph, seed=1)
        runs = [estimate_size_randomized(graph, seed=seed) for seed in seeds]
        size_columns = {
            "det_size_exact": det.n == true_n,
            "mean_GL_estimate": mean([run.estimate for run in runs]),
            "GL_error_factor": mean([run.error_factor for run in runs]),
        }
    else:
        size_columns = {
            "det_size_exact": "-",
            "mean_GL_estimate": "-",
            "GL_error_factor": "-",
        }
    return {
        "n": true_n,
        "sync_msg_overhead(≤2)": (
            async_run.message_overhead_factor if async_run else ABORTED
        ),
        "sync_pulses": async_run.pulses if async_run else ABORTED,
        "sync_time": (
            round(async_run.asynchronous_time, 1) if async_run else "-"
        ),
        **size_columns,
    }
