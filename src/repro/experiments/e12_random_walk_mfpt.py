"""E12 — distinct MFPT scalings on scale-free graphs with one degree sequence.

Reproduces the central effect of arXiv:0908.0976: the mean first-passage
time (MFPT) of an unbiased random walk to the hub is **not** determined by
the degree sequence — graphs sharing a degree sequence exactly can scale
with distinct exponents.  The sweep contrasts graph *families*:

* ``flower_13`` — the non-fractal (1, 3)-flower: every edge replacement
  keeps the original edge as a shortcut, so the web is small-world;
* ``flower_22`` — the fractal (2, 2)-flower: distances stretch by 2 per
  generation (diameter ~ √n).  At equal generations the two flowers have
  **identical degree sequences** by construction, yet the fractal family's
  MFPT grows with a visibly larger exponent;
* ``*_rewired`` — any family pushed through
  :func:`~repro.topology.generators.degree_preserving_rewire` (seeded
  double-edge swaps, connectivity preserving): the maximally randomized
  graph with the *same* degree sequence, whose scaling collapses to the
  uncorrelated baseline;
* ``scale_free`` / ``scale_free_rewired`` — Barabási–Albert and its
  rewired twin: BA is already nearly uncorrelated, so these two scale
  alike — the control showing rewiring only changes what structure there
  was to destroy.  The ``xhot`` preset probes ``scale_free_rewired`` at
  ``n = 102400`` (rewiring + walks at the flyweight scale budget).

Each row is one (family, n) point: the walk engine
(:mod:`repro.sim.walks`) runs a batch of hash-substream walkers to the hub
and reports the MFPT estimate.  :func:`fit_exponents` fits per-family power
laws via :func:`~repro.analysis.complexity.fit_power_law`; the tier-1 test
asserts the fractal/non-fractal exponent gap at small n on fixed seeds.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.complexity import PowerLawFit, fit_power_law
from repro.experiments.registry import register_experiment
from repro.sim.walks import hub_node, mean_first_passage_time
from repro.topology.generators import (
    barabasi_albert_graph,
    degree_preserving_rewire,
    flower_generations_for,
    flower_graph,
)
from repro.topology.graph import WeightedGraph

DEFAULT_SIZES = (172, 684, 2732)
DEFAULT_FAMILIES = ("flower_13", "flower_22", "flower_22_rewired")

#: every family the sweep accepts: the flower pair (same degree sequence at
#: equal generations), Barabási–Albert, and their degree-preserving rewires
FAMILIES = (
    "flower_13",
    "flower_22",
    "flower_13_rewired",
    "flower_22_rewired",
    "scale_free",
    "scale_free_rewired",
)

_FLOWER_PARAMS = {"flower_13": (1, 3), "flower_22": (2, 2)}


def build_family(
    family: str, n: int, seed: int
) -> Tuple[WeightedGraph, Optional[int]]:
    """Build one family member targeting ``n`` nodes.

    Flowers are built at the largest generation fitting inside ``n`` (their
    sizes are discrete), Barabási–Albert graphs at exactly ``n``; a
    ``*_rewired`` family applies the degree-preserving rewire with a seed
    derived from ``(seed, family, n)`` so every sweep point randomizes
    independently.

    Returns:
        ``(graph, generation)`` — generation is ``None`` for the BA family.

    Raises:
        ValueError: on an unknown family name.
    """
    base = family[: -len("_rewired")] if family.endswith("_rewired") else family
    generation: Optional[int] = None
    if base in _FLOWER_PARAMS:
        u, v = _FLOWER_PARAMS[base]
        generation = flower_generations_for(u, v, n)
        graph = flower_graph(u, v, generation)
    elif base == "scale_free":
        graph = barabasi_albert_graph(n, attachment=2, seed=seed)
    else:
        raise ValueError(
            f"unknown e12 family {family!r} (known: {', '.join(FAMILIES)})"
        )
    if family.endswith("_rewired"):
        from repro.sim.substreams import substream_seed

        graph = degree_preserving_rewire(
            graph, seed=substream_seed(seed, "topology.rewire", family, n)
        )
    return graph, generation


def _family_points(params: Mapping[str, object]) -> List[Dict[str, object]]:
    """One sweep point per (family, n) pair, family-major."""
    shared = {
        key: value
        for key, value in params.items()
        if key not in ("sizes", "families")
    }
    return [
        dict(shared, family=family, n=n)
        for family in params["families"]  # type: ignore[union-attr]
        for n in params["sizes"]  # type: ignore[union-attr]
    ]


@register_experiment(
    id="e12",
    title="E12  Mean first-passage time to the hub: distinct scalings on "
    "scale-free families with identical degree sequences "
    "(fractal vs non-fractal vs rewired)",
    description="random-walk MFPT scaling on same-degree-sequence families "
    "(arXiv:0908.0976)",
    columns=(
        "n", "family", "generation", "m", "hub_degree",
        "walkers", "mfpt", "capped",
    ),
    points=_family_points,
    presets={
        "quick": {
            "sizes": (44, 172), "families": ("flower_13", "flower_22"),
            "walkers": 12,
        },
        "default": {
            "sizes": DEFAULT_SIZES, "families": DEFAULT_FAMILIES,
            "walkers": 24,
        },
        "hot": {
            "sizes": (2732, 10924),
            "families": ("flower_13", "flower_22", "flower_22_rewired"),
            "walkers": 24,
        },
        # the scale probe: degree-preserving rewiring of a 102400-node
        # Barabási–Albert graph plus the walk batch, inside the xhot budget
        "xhot": {
            "sizes": (102400,), "families": ("scale_free_rewired",),
            "walkers": 8,
        },
    },
)
def sweep_point(
    n: int, family: str, walkers: int = 24, seed: int = 11
) -> Dict[str, object]:
    """Measure the MFPT to the hub on one family member.

    The walker substream master seed keys the full sweep point
    ``(seed, family, n)``, so points share no random draws in any executor.
    """
    graph, generation = build_family(family, n, seed)
    csr = graph.csr()
    target = hub_node(graph)
    summary = mean_first_passage_time(
        graph, target=target, walkers=walkers, seed=(seed, "e12", family, n)
    )
    return {
        "n": csr.n,
        "family": family,
        "generation": generation if generation is not None else "-",
        "m": csr.num_edges,
        "hub_degree": csr.offsets[target + 1] - csr.offsets[target],
        "walkers": walkers,
        "mfpt": summary.mean_steps,
        "capped": summary.capped,
    }


def fit_exponents(
    rows: Sequence[Mapping[str, object]]
) -> Dict[str, PowerLawFit]:
    """Fit one power law per family from a sweep's rows.

    Families with fewer than two uncapped rows are skipped (no fit is
    better than a degenerate one).
    """
    groups: Dict[str, List[Tuple[float, float]]] = {}
    for row in rows:
        if row["capped"]:
            continue
        groups.setdefault(str(row["family"]), []).append(
            (float(row["n"]), float(row["mfpt"]))  # type: ignore[arg-type]
        )
    fits = {}
    for family, points in groups.items():
        if len({size for size, _ in points}) < 2:
            continue
        fits[family] = fit_power_law(
            [size for size, _ in points], [value for _, value in points]
        )
    return fits
