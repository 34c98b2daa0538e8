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
direction.  It returns the parent column a
:class:`~repro.core.partition.forest.SpanningForest` is made of, so a
consumer builds the tree as ``SpanningForest(parent)`` without a
node-keyed map in between.  The per-node protocol it stands for is kept as a
test oracle (``tests/oracles.py``), checked against this function.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.topology.graph import WeightedGraph


def build_bfs_forest(graph: WeightedGraph, root: int) -> Tuple[List[int], List[int]]:
    """Grow the BFS tree rooted at ``root`` (sequential reference).

    The graph's breadth-first search,
    :meth:`~repro.topology.graph.CSRView.bfs`: level-synchronous, FIFO
    within a level, neighbours in row order, so each node's parent is the
    first node in that order to reach it.

    Returns:
        ``(parent, label)``, two columns over the graph's nodes: the parent
        (``-1`` at the root) and the hop distance to the root.  A node the
        root does not reach reads ``-1`` in both.  The tree depth is
        ``max(label)``.

    Raises:
        ValueError: if ``root`` is not a node of the graph.
    """
    if not graph.has_node(root):
        raise ValueError(f"root {root!r} is not a node of the graph")
    label, parent, _ = graph.csr().bfs(root)
    return parent, label
