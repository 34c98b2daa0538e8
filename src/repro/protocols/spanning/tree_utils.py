"""Utilities for trees represented as parent maps.

A rooted tree (or forest) kept as a mapping ``node → parent``, roots
mapping to ``None``.  The point-to-point MST baseline keeps its fragments
this way and uses the depths and re-rooting helpers here.  Partition
forests are slot columns instead
(:class:`~repro.core.partition.forest.SpanningForest`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, List, Optional

NodeId = Hashable
ParentMap = Dict[NodeId, Optional[NodeId]]


def node_depths(parents: ParentMap) -> Dict[NodeId, int]:
    """Return each node's depth (hop distance to its root).

    Single BFS pass from the roots over a children index, rather than
    chasing parent chains per node: the MST baseline calls this once per
    phase, so the constant factor matters.

    Raises:
        KeyError: if a node's parent chain leaves the map or cycles (such a
            node is never reached from a root).
    """
    depths: Dict[NodeId, int] = {}
    children: Dict[NodeId, List[NodeId]] = {node: [] for node in parents}
    queue: deque = deque()
    for node, parent in parents.items():
        if parent is None:
            depths[node] = 0
            queue.append(node)
        else:
            children[parent].append(node)
    while queue:
        node = queue.popleft()
        child_depth = depths[node] + 1
        for child in children[node]:
            depths[child] = child_depth
            queue.append(child)
    if len(depths) != len(parents):
        unreachable = next(node for node in parents if node not in depths)
        raise KeyError(
            f"{unreachable!r} is not reachable from any root "
            "(missing parent or cycle)"
        )
    return depths


def reroot(parents: ParentMap, members: List[NodeId], new_root: NodeId) -> None:
    """Re-root the tree containing ``members`` at ``new_root`` in place.

    Only the parent pointers along the path from ``new_root`` to the old root
    are reversed; all other pointers stay valid.  ``members`` is accepted (but
    not required to be exhaustive) purely for interface symmetry with the
    distributed operation, which broadcasts the re-rooting along the tree.

    Raises:
        KeyError: if ``new_root`` is not in the parent map.
    """
    if new_root not in parents:
        raise KeyError(f"{new_root!r} is not part of the forest")
    path: List[NodeId] = []
    current: Optional[NodeId] = new_root
    while current is not None:
        path.append(current)
        current = parents[current]
    # reverse parent pointers along the path
    for index in range(len(path) - 1, 0, -1):
        parents[path[index]] = path[index - 1]
    parents[new_root] = None
