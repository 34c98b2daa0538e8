"""E13 — selective families vs backoff vs round-robin dissemination.

Races the three layer schedulers of
:mod:`repro.protocols.dissemination` — the affectance-selective greedy
family packer (after arXiv:1703.01704), the Decay-style randomized
backoff, and the sequential round-robin baseline — on one shared physical
layer: the :func:`~repro.topology.generators.ad_hoc_affectance_graph`
instance, whose link weights are the affectance values.  Every scheduler
disseminates the same message from the same source under the *same*
interference arithmetic, so the round-count columns isolate the scheduling
discipline from the physics.

What the table shows:

* ``layers`` — the BFS depth of the instance: the information-theoretic
  floor on rounds (one hop per round at best);
* ``r_selective`` stays within a small factor of ``layers`` (the selective
  family packs many compatible transmitters per round);
* ``r_decay`` pays the randomized-backoff overhead (roughly a log factor
  of collisions per layer);
* ``r_round_robin`` degenerates to Θ(transmissions) — the price of one
  transmitter per round;
* under an ``adversity`` override the same schedule hits all three
  schedulers (independently-seeded states, identical fault model): runs
  that exhaust the round budget report a bounded ``abort`` cell, never a
  hang.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.registry import register_experiment
from repro.protocols.dissemination import SCHEDULERS, disseminate
from repro.sim.adversity import ABORTED, ADVERSITY_KINDS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.topology.generators import ad_hoc_affectance_graph

DEFAULT_SIZES = (64, 128, 256, 512)


@register_experiment(
    id="e13",
    title="E13  Rounds to full dissemination on the ad-hoc affectance layer: "
    "selective families vs Decay backoff vs round-robin",
    description="affectance-selective-family dissemination vs collision-layer "
    "baselines (arXiv:1703.01704)",
    columns=(
        "n", "m", "layers", "r_selective", "r_decay", "r_round_robin",
        "sel_vs_decay", "sel_vs_rr", "faults_injected", "status",
    ),
    adversities=ADVERSITY_KINDS,
    presets={
        "quick": {"sizes": (32, 64)},
        "default": {"sizes": DEFAULT_SIZES},
        "hot": {"sizes": (1024, 2048, 4096)},
    },
)
def sweep_point(n: int, adversity: object = None) -> Dict[str, object]:
    """Disseminate from the source under every scheduler on one instance.

    Each scheduler faces an independently-seeded
    :class:`~repro.sim.adversity.AdversityState` for the same schedule, so
    the adversary is equally unkind to all three without the runs sharing
    random draws.  A scheduler whose run exhausts the round budget
    contributes an ``abort`` cell; the ``status`` column records which
    schedulers survived.
    """
    graph = ad_hoc_affectance_graph(n, seed=11)
    source = 0
    layers = max(graph.csr().bfs(source)[0])
    rounds: Dict[str, Optional[int]] = {}
    faults = 0
    for scheduler in SCHEDULERS:
        state = adversity_state(adversity, "e13", n, scheduler)
        try:
            result = disseminate(
                graph, source=source, scheduler=scheduler,
                seed=5, adversity=state,
            )
            rounds[scheduler] = result.rounds
        except AdversityAbort:
            rounds[scheduler] = None
        if state is not None:
            faults += state.faults_injected
    aborted = sorted(name for name, value in rounds.items() if value is None)
    selective = rounds["selective"]
    decay = rounds["decay"]
    round_robin = rounds["round_robin"]
    return {
        "n": graph.num_nodes(),
        "m": graph.num_edges(),
        "layers": layers,
        "r_selective": selective if selective is not None else ABORTED,
        "r_decay": decay if decay is not None else ABORTED,
        "r_round_robin": round_robin if round_robin is not None else ABORTED,
        "sel_vs_decay": (
            decay / selective if selective and decay else "-"
        ),
        "sel_vs_rr": (
            round_robin / selective if selective and round_robin else "-"
        ),
        "faults_injected": faults,
        "status": "ok" if not aborted else "abort:" + ",".join(aborted),
    }
