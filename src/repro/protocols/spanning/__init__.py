"""Point-to-point tree primitives.

These are the "local stage" building blocks of the paper's algorithms:
distributed breadth-first-search tree growth (used by the randomized
partitioning algorithm and by the point-to-point baselines) and
broadcast-and-respond / propagation of information with feedback (PIF,
Segall 1983), the primitive behind Step 1 of the deterministic partition and
the local stage of the global-sensitive-function algorithms.
"""

from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight

__all__ = [
    "build_bfs_forest",
    "TreeAggregationFlyweight",
]
