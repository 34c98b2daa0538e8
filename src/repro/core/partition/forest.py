"""Spanning forests of fragments, as slot-indexed columns.

A **fragment** is a rooted tree over point-to-point links; its root is the
fragment's *core*.  A **spanning forest** is a set of node-disjoint fragments
covering a node set.  Both partitioning algorithms produce a
:class:`SpanningForest`, and the downstream algorithms (tree aggregation for
global sensitive functions, the MST merge stage) consume one: each node must
know its parent, its children and its core, which is exactly the information
the distributed executions leave behind at the nodes.

The forest is one immutable set of columns over the nodes ``0..n-1`` of a
graph — a partition, or a BFS tree (the parent column
:func:`~repro.protocols.spanning.bfs.build_bfs_forest` returns).
``parent[node]`` is the parent (``-1`` for a core) and ``root[node]`` the
core; a node's
children are the slots whose parent it is, which a consumer holding the CSR
rows reads off its own row.  The constructor derives everything else once
(cores, per-core sizes and radii) and rejects a parent column that is not a
forest, so every forest is valid by construction.

Order contract: cores come in first-appearance (ascending) order, and
:meth:`SpanningForest.tree_edges` lists the fragments in that order, each
with its members in ascending order.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple


class SpanningForest:
    """A node-disjoint collection of rooted fragments, as slot columns.

    Attributes:
        parent: per-node parent, ``-1`` for a core.
        root: per-node core.
        cores: the cores in first-appearance order.
    """

    __slots__ = ("parent", "root", "cores", "_sizes", "_radii")

    def __init__(self, parent: Sequence[int]) -> None:
        """Build the forest on nodes ``0..n-1`` in which node ``i``'s parent is ``parent[i]``.

        One pass walks every slot's parent chain with path caching and
        derives the core column, depths, and per-core sizes and radii.

        Raises:
            ValueError: if a parent is out of range (``-1`` is the only
                negative one), or the parent column has a cycle.
        """
        parent = tuple(parent)
        n = len(parent)
        root = [-1] * n
        depth = [0] * n
        for start in range(n):
            if root[start] >= 0:
                continue
            chain: List[int] = []
            current = start
            while root[current] < 0:
                up = parent[current]
                if up == -1:
                    root[current] = current
                    break
                if up < 0 or up >= n:
                    raise ValueError(
                        f"parent slot {up} of {current} is out of range"
                    )
                chain.append(current)
                # a chain longer than the forest revisits a slot: cycle
                if len(chain) > n:
                    raise ValueError("parent column contains a cycle")
                current = up
            core = root[current]
            level = depth[current]
            for slot in reversed(chain):
                level += 1
                root[slot] = core
                depth[slot] = level
        sizes: Dict[int, int] = {}
        radii: Dict[int, int] = {}
        for slot, core in enumerate(root):
            if core in sizes:
                sizes[core] += 1
                if depth[slot] > radii[core]:
                    radii[core] = depth[slot]
            else:
                sizes[core] = 1
                radii[core] = depth[slot]
        self.parent = parent
        self.root = tuple(root)
        self.cores = tuple(sizes)
        self._sizes = sizes
        self._radii = radii

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def size(self, core: int) -> int:
        """Return the number of nodes in the fragment whose core is ``core``."""
        return self._sizes[core]

    def num_fragments(self) -> int:
        """Return the number of fragments."""
        return len(self.cores)

    def num_nodes(self) -> int:
        """Return the total number of covered nodes."""
        return len(self.parent)

    def max_radius(self) -> int:
        """Return the largest fragment radius."""
        return max(self._radii.values(), default=0)

    def min_size(self) -> int:
        """Return the smallest fragment size."""
        return min(self._sizes.values(), default=0)

    def max_size(self) -> int:
        """Return the largest fragment size."""
        return max(self._sizes.values(), default=0)

    def _fragment_order(self) -> List[int]:
        """Return the slots grouped by core (first-appearance order)."""
        groups: Dict[int, List[int]] = {core: [] for core in self.cores}
        for slot, core in enumerate(self.root):
            groups[core].append(slot)
        return [slot for group in groups.values() for slot in group]

    def tree_edges(self) -> List[Tuple[int, int]]:
        """Return every tree edge as a (child, parent) pair, fragment by fragment."""
        parent = self.parent
        return [
            (node, parent[node]) for node in self._fragment_order() if parent[node] >= 0
        ]

    def __repr__(self) -> str:
        """Return a compact fragment-count summary for debugging."""
        return (
            f"SpanningForest(fragments={self.num_fragments()}, "
            f"nodes={self.num_nodes()}, max_radius={self.max_radius()})"
        )
