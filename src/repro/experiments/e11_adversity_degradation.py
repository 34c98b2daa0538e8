"""E11 — graceful degradation of the multimedia advantage under adversity.

The paper's separation results (Theorem 2, Corollary 3) are proved for
fault-free networks.  This experiment measures how the multimedia-vs-
point-to-point gap erodes as deterministic fault schedules intensify: for
each fault kind (crash windows, message loss, channel jamming, link churn)
and each intensity, both media run the global-sum computation against
independently-seeded instances of the same schedule, and the table reports
the measured gap next to the number of faults injected and the node-rounds
lost to crash recovery.

The qualitative claims the table supports:

* message **loss** hurts both media alike (the aggregation stalls on a lost
  convergecast message regardless of the medium), so at high loss both
  columns abort;
* **jamming** touches only the channel stage, so it slows the multimedia
  algorithm while leaving the point-to-point baseline untouched — the
  multimedia advantage measurably shrinks as ``jam_rate`` grows;
* **crash** windows cost whole recovery periods on both media, visible in
  the ``rounds_lost`` column;
* runs that cannot terminate are cut off by the adversity round budget and
  report a bounded ``abort`` status — never a hang.

Unlike e5–e10, this sweep owns its fault grid (``kinds`` × ``intensities``
are sweep parameters), so it declares no ``adversities`` axis.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.core.global_function.baselines import compute_on_point_to_point_only
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import INTEGER_ADDITION
from repro.experiments.harness import make_topology
from repro.experiments.registry import register_experiment
from repro.sim.adversity import ABORTED, adversity_state
from repro.sim.errors import AdversityAbort

DEFAULT_SIZES = (64, 144)
DEFAULT_KINDS = ("crash", "loss", "jam", "churn")
DEFAULT_INTENSITIES = (0.05, 0.2)

#: how one scalar intensity maps onto each kind's rate field; the window
#: geometry (crash/churn lengths and periods) comes from the named preset
_KIND_FIELDS = {
    "crash": "crash_rate",
    "loss": "loss_rate",
    "jam": "jam_rate",
    "churn": "churn_rate",
}


def _schedule(kind: str, intensity: float) -> Dict[str, object]:
    """Return the adversity mapping for one (kind, intensity) grid cell."""
    try:
        field = _KIND_FIELDS[kind]
    except KeyError:
        known = ", ".join(sorted(_KIND_FIELDS))
        raise ValueError(
            f"e11 does not sweep adversity kind {kind!r} (known: {known})"
        ) from None
    schedule: Dict[str, object] = {"name": kind, field: intensity}
    if kind == "loss":
        # the loss preset also delays; scale both from the one intensity
        schedule["delay_rate"] = intensity
    return schedule


def _grid_points(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One sweep point per (n, kind, intensity) grid cell."""
    shared = {
        key: value
        for key, value in params.items()
        if key not in ("sizes", "kinds", "intensities")
    }
    return [
        dict(shared, n=n, kind=kind, intensity=intensity)
        for n in params["sizes"]
        for kind in params["kinds"]
        for intensity in params["intensities"]
    ]


@register_experiment(
    id="e11",
    title="E11  Degradation of the multimedia advantage under deterministic "
    "adversity (crash / loss / jam / churn vs fault intensity)",
    description="multimedia-vs-p2p gap vs fault kind and intensity (robustness)",
    columns=(
        "n", "adversity", "intensity", "t_multimedia", "t_p2p_only",
        "mm_vs_p2p", "faults_injected", "rounds_lost", "status",
    ),
    topologies=("ring", "grid", "geometric", "scale_free", "ad_hoc"),
    points=_grid_points,
    presets={
        "quick": {
            "sizes": (16,), "kinds": ("loss", "jam"),
            "intensities": (0.1,), "topology": "ring",
        },
        "default": {
            "sizes": DEFAULT_SIZES, "kinds": DEFAULT_KINDS,
            "intensities": DEFAULT_INTENSITIES, "topology": "ring",
        },
        "hot": {
            "sizes": (1024,), "kinds": ("loss", "jam"),
            "intensities": (0.1,), "topology": "ring",
        },
    },
)
def sweep_point(
    n: int, kind: str, intensity: float, topology: str = "ring"
) -> Dict[str, object]:
    """Race both media against one fault schedule and report the gap.

    Each medium gets an independently-seeded :class:`AdversityState` for the
    same schedule, so the adversary is equally unkind to both without the
    two runs sharing random draws.  A medium whose run aborts (round budget,
    stall, or deadlock) contributes an ``"abort"`` cell; the ``status``
    column records which side(s) survived.
    """
    graph = make_topology(topology, n, seed=11)
    inputs = {node: node for node in graph.nodes()}
    schedule = _schedule(kind, intensity)
    mm_state = adversity_state(
        schedule, "e11", n, topology, kind, intensity, "multimedia"
    )
    p2p_state = adversity_state(
        schedule, "e11", n, topology, kind, intensity, "p2p"
    )
    try:
        multimedia = compute_global_function(
            graph, INTEGER_ADDITION, inputs, method="randomized", seed=5,
            adversity=mm_state,
        )
    except AdversityAbort:
        multimedia = None
    try:
        p2p = compute_on_point_to_point_only(
            graph, INTEGER_ADDITION, inputs, adversity=p2p_state
        )
    except AdversityAbort:
        p2p = None
    faults = rounds_lost = 0
    for state in (mm_state, p2p_state):
        if state is not None:
            faults += state.faults_injected
            rounds_lost += state.crash_node_rounds
    if multimedia and p2p:
        status = "ok"
    elif multimedia:
        status = "abort:p2p"
    elif p2p:
        status = "abort:multimedia"
    else:
        status = "abort:both"
    return {
        "n": graph.num_nodes(),
        "adversity": kind,
        "intensity": intensity,
        "t_multimedia": multimedia.total_rounds if multimedia else ABORTED,
        "t_p2p_only": p2p.rounds if p2p else ABORTED,
        "mm_vs_p2p": (
            p2p.rounds / multimedia.total_rounds if multimedia and p2p else "-"
        ),
        "faults_injected": faults,
        "rounds_lost": rounds_lost,
        "status": status,
    }
