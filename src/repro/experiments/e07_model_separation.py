"""E7 — model separation: multimedia beats both single media (Theorem 2 + Cor. 3).

Claims reproduced: on topologies whose diameter is Θ(n) (rings), computing a
global sensitive function needs Ω(d) = Ω(n) time on the point-to-point
network alone and Ω(n) time on the channel alone, while the multimedia
algorithm finishes in Õ(√n) time — so the combined network is strictly more
powerful than either of its parts, with the gap growing with n.

The sweep also runs on the scale-free (``scale_free``) and ad-hoc wireless
(``ad_hoc``) topologies: their diameters are small, so there the separation
is carried by the channel-only Ω(n) bound rather than the point-to-point
Ω(d) bound.  The measured channel-only baseline is optional
(``channel_baseline``): historically it cost Θ(n) slots at Θ(pending) work
per slot — minutes of wall clock at ``n ≥ 10^4`` — which is why the ``hot``
preset disables it by default.  The geometric skip-ahead contention scheduler
(:mod:`repro.protocols.collision.geometric`) now samples the same schedule
in O(1) work per busy slot, so the baseline column costs ~0.2 s at
``n = 10240`` on any topology kind; enable it per run via
``--set channel_baseline=true`` (on ring at that size the sweep is
dominated by the point-to-point baseline's Θ(n) rounds, not the channel
stage).
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.core.global_function.baselines import (
    compute_on_channel_only,
    compute_on_point_to_point_only,
)
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION
from repro.core.lower_bounds import (
    broadcast_lower_bound,
    multimedia_lower_bound,
    point_to_point_lower_bound,
)
from repro.experiments.harness import make_topology, topology_diameter
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort


def _title(params: Mapping[str, object]) -> str:
    topology = params.get("topology", "ring")
    if topology == "ring":
        return (
            "E7  Model separation on diameter-Θ(n) topologies "
            "(multimedia Õ(√n) vs point-to-point Ω(d) vs channel Ω(n))"
        )
    # low-diameter kinds: the point-to-point Ω(d) bound is weak there,
    # so the separation is carried by the channel-only Ω(n) bound
    return (
        f"E7  Model separation on {topology} topologies "
        "(multimedia Õ(√n) vs point-to-point Ω(d) vs channel Ω(n); "
        "low diameter — the channel Ω(n) bound carries the gap)"
    )


@register_experiment(
    id="e7",
    title=_title,
    description="multimedia vs single-medium separation (Theorem 2, Corollary 3)",
    columns=(
        "n", "diameter", "t_multimedia", "t_p2p_only", "t_channel_only",
        "lb_p2p", "lb_channel", "lb_multimedia",
        "speedup_vs_p2p", "speedup_vs_channel",
    ),
    topologies=("ring", "grid", "geometric", "scale_free", "ad_hoc"),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (16, 32), "topology": "ring", "channel_baseline": True},
        "default": {"sizes": (128, 256, 512), "topology": "ring",
                    "channel_baseline": True},
        # the hot preset keeps the measured baseline off; turn it on with
        # --set channel_baseline=true (affordable since the geometric
        # skip-ahead landed)
        "hot": {"sizes": (4096, 10240), "topology": "scale_free",
                "channel_baseline": False},
        # an order of magnitude past hot: the flyweight sim layer keeps the
        # partition + two simulated stages inside a 10 s/run budget
        "xhot": {"sizes": (102400,), "topology": "scale_free",
                 "channel_baseline": False},
        # single instance at n = 10^6 (PR 8's CSR graph core); ~130 s/run —
        # run on demand (`repro run e7 --preset xxhot`), never in CI
        "xxhot": {"sizes": (1000000,), "topology": "scale_free",
                  "channel_baseline": False},
    },
)
def sweep_point(
    n: int,
    topology: str = "ring",
    channel_baseline: bool = True,
    adversity: object = None,
) -> Dict[str, object]:
    """Measure all three media on one topology and report the separation.

    Each medium faces an independently-seeded instance of the adversity
    schedule (when one is requested); a medium whose run aborts reports
    ``"abort"`` and drops out of the speedup columns.

    Raises:
        AssertionError: in fault-free runs only — if any medium computes the
            wrong aggregate, the separation claim is meaningless.  A
            completed run under adversity reports what it measured (the
            aggregation protocols stall rather than mis-aggregate when
            messages are lost, so completion implies correctness there too).
    """
    graph = make_topology(topology, n, seed=11)
    d = topology_diameter(topology, graph)
    inputs = {node: node for node in graph.nodes()}
    expected = sum(inputs.values())
    try:
        multimedia = compute_global_function(
            graph, INTEGER_ADDITION, inputs, method="randomized", seed=5,
            adversity=adversity_state(adversity, "e7", n, topology, "multimedia"),
        )
    except AdversityAbort:
        multimedia = None
    try:
        p2p = compute_on_point_to_point_only(
            graph, INTEGER_ADDITION, inputs,
            adversity=adversity_state(adversity, "e7", n, topology, "p2p"),
        )
    except AdversityAbort:
        p2p = None
    if adversity is None:
        assert multimedia.value == expected and p2p.value == expected
    channel_rounds: object = "-"
    channel_speedup: object = "-"
    if channel_baseline:
        try:
            channel = compute_on_channel_only(
                graph, INTEGER_ADDITION, inputs, seed=5,
                adversity=adversity_state(adversity, "e7", n, topology, "channel"),
            )
            if adversity is None:
                assert channel.value == expected
            channel_rounds = channel.rounds
            if multimedia is not None:
                channel_speedup = channel.rounds / multimedia.total_rounds
        except AdversityAbort:
            channel_rounds = ABORTED
    return {
        "n": graph.num_nodes(),
        "diameter": d,
        "t_multimedia": multimedia.total_rounds if multimedia else ABORTED,
        "t_p2p_only": p2p.rounds if p2p else ABORTED,
        "t_channel_only": channel_rounds,
        "lb_p2p": point_to_point_lower_bound(d),
        "lb_channel": broadcast_lower_bound(graph.num_nodes()),
        "lb_multimedia": multimedia_lower_bound(graph.num_nodes(), d),
        "speedup_vs_p2p": (
            p2p.rounds / multimedia.total_rounds if multimedia and p2p else "-"
        ),
        "speedup_vs_channel": channel_speedup,
    }
