"""Sequential Kruskal MST — the correctness reference (Kruskal, 1956).

The paper's Section 6 algorithm "is actually an implementation of the
sequential algorithm of Kruskal"; this module provides that sequential
algorithm (with union-find) so the distributed results can be checked edge
for edge.  With distinct weights the MST is unique, which makes the check
exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.topology.graph import Edge, WeightedGraph


@dataclass
class MSTEdges:
    """A minimum spanning tree described by its edge set.

    Attributes:
        edges: the chosen edges.
        total_weight: sum of the chosen edges' weights.
    """

    edges: List[Edge]
    total_weight: float

    def edge_keys(self) -> Set[Tuple[int, int]]:
        """Return the canonical undirected keys of the chosen edges."""
        return {edge.key() for edge in self.edges}

    def __len__(self) -> int:
        """Return the number of chosen edges."""
        return len(self.edges)


class _UnionFind:
    def __init__(self, n: int) -> None:
        """Make each of the nodes ``0..n-1`` its own singleton set."""
        self._parent: List[int] = list(range(n))
        self._rank: List[int] = [0] * n

    def find(self, node: int) -> int:
        """Return ``node``'s set representative with path compression."""
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; ``False`` if already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True


def kruskal_mst(graph: WeightedGraph) -> MSTEdges:
    """Return the minimum spanning tree of a connected weighted graph.

    Ties between equal weights are broken by the canonical edge key so the
    result is deterministic even when weights repeat (the distributed
    algorithms additionally assume distinct weights).

    Raises:
        ValueError: if the graph is empty or disconnected.
    """
    if graph.num_nodes() == 0:
        raise ValueError("the MST of an empty graph is undefined")
    if not graph.csr().is_connected():
        raise ValueError("the graph is disconnected; no spanning tree exists")
    union_find = _UnionFind(graph.num_nodes())
    chosen: List[Edge] = []
    total = 0.0
    for edge in sorted(graph.edges(), key=lambda e: (e.weight, repr(e.key()))):
        if union_find.union(edge.u, edge.v):
            chosen.append(edge)
            total += edge.weight
    return MSTEdges(edges=chosen, total_weight=total)
