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
direction.  The per-node protocol it stands for is kept as a test oracle
(``tests/oracles.py``), checked against this function.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional, Tuple

from repro.topology.graph import WeightedGraph

NodeId = Hashable


def build_bfs_forest(
    graph: WeightedGraph,
    roots: List[NodeId],
    depth_limit: Optional[int] = None,
) -> Tuple[Dict[NodeId, Optional[NodeId]], Dict[NodeId, NodeId], Dict[NodeId, int]]:
    """Grow BFS trees from ``roots`` simultaneously (sequential reference).

    Ties between roots reaching a node at the same distance are broken in
    favour of the smaller root (by ``repr`` order, matching the protocol's
    "least id" rule).

    Args:
        graph: the point-to-point topology.
        roots: the tree roots (local centres).
        depth_limit: maximum label assigned; nodes farther than this from
            every root remain unlabelled.

    Returns:
        ``(parents, root_of, labels)`` — only labelled nodes appear.

    Raises:
        ValueError: if ``roots`` is empty or contains a node not in the graph.
    """
    if not roots:
        raise ValueError("need at least one BFS root")
    for root in roots:
        if not graph.has_node(root):
            raise ValueError(f"root {root!r} is not a node of the graph")
    ordered_roots = sorted(roots, key=repr)
    parents: Dict[NodeId, Optional[NodeId]] = {}
    root_of: Dict[NodeId, NodeId] = {}
    labels: Dict[NodeId, int] = {}
    queue = deque()
    for root in ordered_roots:
        parents[root] = None
        root_of[root] = root
        labels[root] = 0
        queue.append(root)
    while queue:
        node = queue.popleft()
        if depth_limit is not None and labels[node] >= depth_limit:
            continue
        for neighbor in graph.iter_neighbors(node):
            if neighbor in labels:
                continue
            labels[neighbor] = labels[node] + 1
            parents[neighbor] = node
            root_of[neighbor] = root_of[node]
            queue.append(neighbor)
    return parents, root_of, labels
