"""Spanning forests of fragments, as slot-indexed columns.

A **fragment** is a rooted tree over point-to-point links; its root is the
fragment's *core*.  A **spanning forest** is a set of node-disjoint fragments
covering a node set.  Both partitioning algorithms produce a
:class:`SpanningForest`, and the downstream algorithms (tree aggregation for
global sensitive functions, the MST merge stage) consume one: each node must
know its parent, its children and its core, which is exactly the information
the distributed executions leave behind at the nodes.

The forest is one immutable set of columns over a node enumeration — for a
partition or a BFS tree (the parent column
:func:`~repro.protocols.spanning.bfs.build_bfs_forest` writes), the graph's
CSR slot order.  ``parent[slot]`` is the parent's
slot (``-1`` for a core) and ``root[slot]`` the core's slot; a node's
children are the slots whose parent it is, which a consumer holding the CSR
rows reads off its own row.  The constructor derives everything else once
(cores, per-core sizes and radii) and rejects a parent column that is not a
forest, so every forest is valid by construction.

Order contract: cores come in first-appearance order over the enumeration,
and :meth:`SpanningForest.parent_map` / :meth:`SpanningForest.tree_edges`
list the fragments in that order, each with its members in enumeration
order.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

NodeId = Hashable


class SpanningForest:
    """A node-disjoint collection of rooted fragments, as slot columns.

    Attributes:
        nodes: the node enumeration (``nodes[slot]`` is the node of
            ``slot``).
        parent: per-slot parent slot, ``-1`` for a core.
        root: per-slot core slot.
        core_slots: the core slots in first-appearance order.
    """

    __slots__ = ("nodes", "parent", "root", "core_slots", "_sizes", "_radii")

    def __init__(self, nodes: Sequence[NodeId], parent: Sequence[int]) -> None:
        """Build the forest whose slot ``i`` is ``nodes[i]`` with parent ``parent[i]``.

        One pass walks every slot's parent chain with path caching and
        derives the core column, depths, and per-core sizes and radii.

        Raises:
            ValueError: if the columns differ in length, a parent slot is
                out of range (``-1`` is the only negative one), or the
                parent column has a cycle.
        """
        n = len(nodes)
        if len(parent) != n:
            raise ValueError(
                f"parent column has {len(parent)} entries for {n} nodes"
            )
        parent = tuple(parent)
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
                        f"parent slot {up} of {nodes[current]!r} is out of range"
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
        self.nodes = nodes
        self.parent = parent
        self.root = tuple(root)
        self.core_slots = tuple(sizes)
        self._sizes = sizes
        self._radii = radii

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def cores(self) -> List[NodeId]:
        """Return the cores of the fragments, in first-appearance order."""
        nodes = self.nodes
        return [nodes[core] for core in self.core_slots]

    def core_of(self, node: NodeId) -> NodeId:
        """Return the core of the fragment containing ``node``.

        Constant time on a ``range`` enumeration, a linear search otherwise.

        Raises:
            KeyError: if the node is not covered by the forest.
        """
        try:
            slot = self.nodes.index(node)
        except ValueError:
            raise KeyError(node) from None
        return self.nodes[self.root[slot]]

    def size(self, core_slot: int) -> int:
        """Return the number of nodes in the fragment whose core is ``core_slot``."""
        return self._sizes[core_slot]

    def num_fragments(self) -> int:
        """Return the number of fragments."""
        return len(self.core_slots)

    def num_nodes(self) -> int:
        """Return the total number of covered nodes."""
        return len(self.nodes)

    def covered_nodes(self) -> List[NodeId]:
        """Return every node covered by the forest, in enumeration order."""
        return list(self.nodes)

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
        groups: Dict[int, List[int]] = {core: [] for core in self.core_slots}
        for slot, core in enumerate(self.root):
            groups[core].append(slot)
        return [slot for group in groups.values() for slot in group]

    def parent_map(self) -> Dict[NodeId, Optional[NodeId]]:
        """Return ``node → parent`` (cores map to ``None``), fragment by fragment."""
        nodes, parent = self.nodes, self.parent
        return {
            nodes[slot]: nodes[parent[slot]] if parent[slot] >= 0 else None
            for slot in self._fragment_order()
        }

    def tree_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Return every tree edge as a (child, parent) pair, fragment by fragment."""
        nodes, parent = self.nodes, self.parent
        return [
            (nodes[slot], nodes[parent[slot]])
            for slot in self._fragment_order()
            if parent[slot] >= 0
        ]

    def __repr__(self) -> str:
        """Return a compact fragment-count summary for debugging."""
        return (
            f"SpanningForest(fragments={self.num_fragments()}, "
            f"nodes={self.num_nodes()}, max_radius={self.max_radius()})"
        )


def find_root_indexed(parent: List[int], cache: List[int], start: int) -> int:
    """Return the root ``start``'s parent chain leads to, with path caching.

    The index-space root walk the partitioners share: ``parent`` is a flat
    parent column (``-1`` encodes "no parent"), and ``cache`` memoises roots
    across calls within one sweep (``-1`` encodes "unknown"); every node on
    the walked chain is back-filled, so repeated lookups over one forest
    stay linear overall.
    """
    chain: List[int] = []
    current = start
    while cache[current] < 0:
        up = parent[current]
        if up < 0:
            cache[current] = current
            break
        chain.append(current)
        current = up
    root = cache[current]
    for member in chain:
        cache[member] = root
    return root
