"""Topology substrate: weighted graphs, generators, and graph-theoretic properties.

The multimedia network model of Afek, Landau, Schieber and Yung (1988/1990)
assumes an arbitrary-topology point-to-point network.  This package provides
the graph data structure used throughout the reproduction, a collection of
topology generators (including the ray graphs used in the paper's lower-bound
argument, Section 5.2), utilities to assign the distinct link weights assumed
by the MST-related algorithms, and the hop diameter the experiments need (the
graph's breadth-first search is :meth:`~repro.topology.graph.CSRView.bfs`).
"""

from repro.topology.graph import Edge, WeightedGraph
from repro.topology.generators import (
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
    random_tree,
    ray_graph,
    ring_graph,
    torus_graph,
)
from repro.topology.properties import diameter
from repro.topology.weights import assign_distinct_weights

__all__ = [
    "Edge",
    "WeightedGraph",
    "complete_graph",
    "erdos_renyi_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "random_geometric_graph",
    "random_tree",
    "ray_graph",
    "ring_graph",
    "torus_graph",
    "diameter",
    "assign_distinct_weights",
]
