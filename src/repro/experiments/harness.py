"""Shared topology construction and size sweeps for the experiments."""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from repro.topology.generators import (
    ad_hoc_affectance_graph,
    barabasi_albert_graph,
    grid_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.properties import approximate_diameter, diameter
from repro.topology.weights import assign_distinct_weights

# above this size, exact diameter (n BFS passes) costs more than the whole
# experiment on the low-diameter topologies; fall back to the double sweep
EXACT_DIAMETER_MAX_N = 1024


def make_topology(kind: str, n: int, seed: int = 0) -> WeightedGraph:
    """Return a connected weighted topology of ``kind`` with ≈``n`` nodes.

    Supported kinds: ``grid`` (⌊√n⌋ × ⌊√n⌋), ``ring``, ``geometric``,
    ``scale_free`` (Barabási–Albert preferential attachment), and ``ad_hoc``
    (heterogeneous-range wireless placement).

    Raises:
        ValueError: on an unknown kind.
    """
    if kind == "grid":
        side = max(2, round(n ** 0.5))
        graph = grid_graph(side, side)
    elif kind == "ring":
        graph = ring_graph(max(3, n))
    elif kind == "geometric":
        graph = random_geometric_graph(n, seed=seed)
    elif kind == "scale_free":
        graph = barabasi_albert_graph(n, attachment=2, seed=seed)
    elif kind == "ad_hoc":
        graph = ad_hoc_affectance_graph(n, seed=seed)
    else:
        raise ValueError(f"unknown topology kind {kind!r}")
    return assign_distinct_weights(graph, seed=seed)


def topology_diameter(kind: str, graph: WeightedGraph) -> int:
    """Return the hop diameter of a :func:`make_topology` graph, cheaply.

    The regular kinds have closed forms (a ring on ``n`` nodes has diameter
    ``⌊n/2⌋``; a ``side × side`` grid has ``2(side − 1)``), so the experiment
    sweeps do not pay ``n`` BFS passes just to label their rows.  Irregular
    kinds fall back to the exact scan up to ``EXACT_DIAMETER_MAX_N`` nodes
    and to the deterministic double-sweep bound beyond it (exact on trees,
    empirically tight on the small-world topologies used at that scale).
    """
    n = graph.num_nodes()
    if kind == "ring":
        return n // 2
    if kind == "grid":
        side = round(n ** 0.5)
        if side * side == n:
            return 2 * (side - 1)
    if n <= EXACT_DIAMETER_MAX_N:
        return diameter(graph)
    return approximate_diameter(graph)


def sweep_sizes(
    sizes: Sequence[int],
    runner: Callable[[WeightedGraph], Dict[str, float]],
    topology: str = "grid",
    seed: int = 11,
) -> List[Dict[str, float]]:
    """Run ``runner`` on one topology per size and collect its row dictionaries."""
    rows: List[Dict[str, float]] = []
    for n in sizes:
        graph = make_topology(topology, n, seed=seed)
        row = {"n": graph.num_nodes(), "m": graph.num_edges()}
        row.update(runner(graph))
        rows.append(row)
    return rows
