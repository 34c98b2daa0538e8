"""Distributed breadth-first-search tree growth.

In the synchronous model a BFS tree rooted at a node can be grown in ``D``
rounds (``D`` = eccentricity of the root) with one message per link: every
newly labelled node announces its label to its neighbours, and an unlabelled
node adopts the smallest label it hears, breaking ties by root identifier
(Gallager, 1982).  The randomized partitioning algorithm grows many BFS trees
simultaneously from its local centres, with a depth limit of ``4√n``
(Section 4, Step 2), and nodes may later switch to a different tree if that
strictly reduces their label.

:func:`build_bfs_forest` is a sequential reference used by validators and by
orchestrated algorithms that charge the (well-known) cost of a synchronous
BFS analytically: ``depth`` rounds and at most one message per link per
direction.  It writes the columns a
:class:`~repro.core.partition.forest.SpanningForest` is made of, so a
consumer builds the tree as ``SpanningForest(parent)`` without a
node-keyed map in between.  The per-node protocol it stands for is kept as a
test oracle (``tests/oracles.py``), checked against this function.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

from repro.topology.graph import WeightedGraph


def build_bfs_forest(
    graph: WeightedGraph,
    roots: List[int],
    depth_limit: Optional[int] = None,
) -> Tuple[array, array, array]:
    """Grow BFS trees from ``roots`` simultaneously (sequential reference).

    Ties between roots reaching a node at the same distance are broken in
    favour of the smaller root (by ``repr`` order, matching the protocol's
    "least id" rule).  The growth is level-synchronous — FIFO within a
    level, neighbours in row order — which is the visit order of a
    node-at-a-time queue, so each node's parent is the first node in that
    order to reach it.

    Args:
        graph: the point-to-point topology.
        roots: the tree roots (local centres).
        depth_limit: maximum label assigned; nodes farther than this from
            every root remain unlabelled.

    Returns:
        ``(parent, root, label)``, three ``array('q')`` columns over the
        graph's nodes: the parent (``-1`` at a root), the root, and the hop
        distance to it.  An unlabelled node reads ``-1``
        in all three.  The tree depth is ``max(label)``.

    Raises:
        ValueError: if ``roots`` is empty or contains a node not in the graph.
    """
    if not roots:
        raise ValueError("need at least one BFS root")
    for root in roots:
        if not graph.has_node(root):
            raise ValueError(f"root {root!r} is not a node of the graph")
    csr = graph.csr()
    offsets = csr.offsets
    targets = csr.targets
    parent = array("q", [-1]) * csr.n
    root_of = array("q", [-1]) * csr.n
    labels = array("q", [-1]) * csr.n
    seen = bytearray(csr.n)
    frontier: List[int] = []
    for root in sorted(roots, key=repr):
        seen[root] = 1
        root_of[root] = root
        labels[root] = 0
        frontier.append(root)
    label = 0
    while frontier and (depth_limit is None or label < depth_limit):
        label += 1
        next_frontier: List[int] = []
        for slot in frontier:
            root = root_of[slot]
            for target in targets[offsets[slot]:offsets[slot + 1]]:
                if not seen[target]:
                    seen[target] = 1
                    labels[target] = label
                    parent[target] = slot
                    root_of[target] = root
                    next_frontier.append(target)
        frontier = next_frontier
    return parent, root_of, labels
