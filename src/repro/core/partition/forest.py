"""Fragments and spanning forests.

A **fragment** is a rooted tree over point-to-point links; its root is the
fragment's *core*.  A **spanning forest** is a set of node-disjoint fragments
covering every node of the network.  Both partitioning algorithms produce a
:class:`SpanningForest`, and the downstream algorithms (global sensitive
functions, MST) consume one: each node must know its parent, its children and
its core, which is exactly the information the distributed executions leave
behind at the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.protocols.spanning.tree_utils import (
    children_map,
    node_depths,
    validate_parent_map,
)

NodeId = Hashable


@dataclass
class Fragment:
    """One rooted tree of a spanning forest.

    The derived tree quantities (depths, children, radius) are cached under
    a version counter: fragments are effectively immutable once built, but
    callers that do mutate ``parents`` in place must call
    :meth:`invalidate_caches` so the cached views are recomputed.

    Attributes:
        core: the fragment's root (the paper's "core").
        parents: parent map restricted to this fragment's members; the core
            maps to ``None``.
    """

    core: NodeId
    parents: Dict[NodeId, Optional[NodeId]] = field(default_factory=dict)
    _version: int = field(default=0, init=False, repr=False, compare=False)
    _cache: Dict[str, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _cache_version: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        """Default an empty parent map and validate that the core is a root."""
        if not self.parents:
            self.parents = {self.core: None}
        if self.core not in self.parents or self.parents[self.core] is not None:
            raise ValueError("the core must be a root of the fragment's parent map")

    # -- caching ---------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop cached derived views after an in-place ``parents`` mutation."""
        self._version += 1

    def _cached(self, key: str, compute):
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    @property
    def members(self) -> List[NodeId]:
        """Return every node of the fragment (core included)."""
        return list(self.parents)

    @property
    def size(self) -> int:
        """Return the number of nodes in the fragment."""
        return len(self.parents)

    @property
    def radius(self) -> int:
        """Return the depth of the deepest node below the core."""
        depths = self.depths()
        return max(depths.values()) if depths else 0

    def depths(self) -> Dict[NodeId, int]:
        """Return each member's depth below the core (cached)."""
        return self._cached("depths", lambda: node_depths(self.parents))

    def children(self) -> Dict[NodeId, List[NodeId]]:
        """Return each member's children within the fragment (cached)."""
        return self._cached("children", lambda: children_map(self.parents))

    def tree_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Return the fragment's tree edges as (child, parent) pairs."""
        return [(node, parent) for node, parent in self.parents.items() if parent is not None]

    def level(self) -> int:
        """Return ``⌊log2(size)⌋``, the fragment's level (Section 3)."""
        return self.size.bit_length() - 1

    def validate(self) -> None:
        """Check internal consistency (tree structure, single root = core).

        Raises:
            ValueError: on any inconsistency.
        """
        validate_parent_map(self.parents)
        roots = [node for node, parent in self.parents.items() if parent is None]
        if roots != [self.core] and set(roots) != {self.core}:
            raise ValueError(
                f"fragment rooted at {self.core!r} has roots {roots!r}"
            )


class SpanningForest:
    """A node-disjoint collection of fragments covering a node set.

    Whole-forest aggregates (parent map, tree edges, extreme sizes and
    radii) are cached under a version counter; the forest itself has no
    mutators, but callers that mutate a fragment in place must call
    :meth:`invalidate_caches` to refresh the cached aggregates.
    """

    def __init__(self, fragments: List[Fragment]) -> None:
        """Create a forest from ``fragments``.

        Raises:
            ValueError: if two fragments share a node or a core repeats.
        """
        self._fragments: Dict[NodeId, Fragment] = {}
        self._core_of: Dict[NodeId, NodeId] = {}
        self._version = 0
        self._cache: Dict[str, object] = {}
        self._cache_version = 0
        for fragment in fragments:
            if fragment.core in self._fragments:
                raise ValueError(f"duplicate core {fragment.core!r}")
            for node in fragment.members:
                if node in self._core_of:
                    raise ValueError(
                        f"node {node!r} appears in two fragments "
                        f"({self._core_of[node]!r} and {fragment.core!r})"
                    )
                self._core_of[node] = fragment.core
            self._fragments[fragment.core] = fragment

    # ------------------------------------------------------------------
    # caching
    # ------------------------------------------------------------------
    def invalidate_caches(self) -> None:
        """Drop cached aggregates (and fragment caches) after a mutation."""
        self._version += 1
        for fragment in self._fragments.values():
            fragment.invalidate_caches()

    def _cached(self, key: str, compute):
        if self._cache_version != self._version:
            self._cache.clear()
            self._cache_version = self._version
        try:
            return self._cache[key]
        except KeyError:
            value = compute()
            self._cache[key] = value
            return value

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def fragments(self) -> List[Fragment]:
        """Return the fragments (in core insertion order)."""
        return list(self._fragments.values())

    @property
    def cores(self) -> List[NodeId]:
        """Return the cores of the fragments."""
        return list(self._fragments)

    def fragment_of(self, node: NodeId) -> Fragment:
        """Return the fragment containing ``node``.

        Raises:
            KeyError: if the node is not covered by the forest.
        """
        return self._fragments[self._core_of[node]]

    def core_of(self, node: NodeId) -> NodeId:
        """Return the core of the fragment containing ``node``."""
        return self._core_of[node]

    def num_fragments(self) -> int:
        """Return the number of fragments."""
        return len(self._fragments)

    def num_nodes(self) -> int:
        """Return the total number of covered nodes."""
        return len(self._core_of)

    def covered_nodes(self) -> List[NodeId]:
        """Return every node covered by the forest."""
        return list(self._core_of)

    def max_radius(self) -> int:
        """Return the largest fragment radius (cached)."""
        return self._cached(
            "max_radius",
            lambda: max((fragment.radius for fragment in self.fragments), default=0),
        )

    def min_size(self) -> int:
        """Return the smallest fragment size (cached)."""
        return self._cached(
            "min_size",
            lambda: min((fragment.size for fragment in self.fragments), default=0),
        )

    def max_size(self) -> int:
        """Return the largest fragment size (cached)."""
        return self._cached(
            "max_size",
            lambda: max((fragment.size for fragment in self.fragments), default=0),
        )

    def parent_map(self) -> Dict[NodeId, Optional[NodeId]]:
        """Return the union of all fragments' parent maps (cores map to None)."""

        def merge() -> Dict[NodeId, Optional[NodeId]]:
            """Union the per-fragment parent maps."""
            merged: Dict[NodeId, Optional[NodeId]] = {}
            for fragment in self.fragments:
                merged.update(fragment.parents)
            return merged

        return dict(self._cached("parent_map", merge))

    def tree_edges(self) -> List[Tuple[NodeId, NodeId]]:
        """Return every tree edge of the forest as (child, parent) pairs."""

        def collect() -> List[Tuple[NodeId, NodeId]]:
            """Concatenate the per-fragment tree edges."""
            edges: List[Tuple[NodeId, NodeId]] = []
            for fragment in self.fragments:
                edges.extend(fragment.tree_edges())
            return edges

        return list(self._cached("tree_edges", collect))

    def node_inputs(self) -> Dict[NodeId, Dict[str, object]]:
        """Return per-node ``extra`` inputs describing the forest structure.

        The downstream node protocols (tree aggregation, MST merging) are
        parameterised with each node's parent, children and core — the
        knowledge the distributed partitioning run leaves at the nodes.
        """
        inputs: Dict[NodeId, Dict[str, object]] = {}
        for fragment in self.fragments:
            children = fragment.children()
            for node in fragment.members:
                inputs[node] = {
                    "parent": fragment.parents[node],
                    "children": tuple(children[node]),
                    "core": fragment.core,
                }
        return inputs

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_parent_map(
        cls,
        parents: Dict[NodeId, Optional[NodeId]],
    ) -> "SpanningForest":
        """Build a forest from a global parent map (roots become cores).

        Structural validation (closed under parents, acyclic) is folded into
        the grouping walk itself — every node's chain to its root is walked
        exactly once with path caching, so building the forest costs one
        pass instead of a validation pass plus a grouping pass.

        Raises:
            ValueError: if a referenced parent is missing or a cycle exists.
        """
        by_root: Dict[NodeId, Dict[NodeId, Optional[NodeId]]] = {}
        root_cache: Dict[NodeId, NodeId] = {}
        limit = len(parents)

        def find_root(node: NodeId) -> NodeId:
            """Return ``node``'s tree root, path-caching the chain walked."""
            chain = []
            current = node
            while current not in root_cache:
                parent = parents[current]
                if parent is None:
                    root_cache[current] = current
                    break
                if parent not in parents:
                    raise ValueError(
                        f"parent {parent!r} of {current!r} is not in the map"
                    )
                chain.append(current)
                # a chain longer than the map revisits a node: cycle
                if len(chain) > limit:
                    raise ValueError("parent map contains a cycle")
                current = parent
            root = root_cache[current]
            for member in chain:
                root_cache[member] = root
            return root

        for node in parents:
            root = find_root(node)
            by_root.setdefault(root, {})[node] = parents[node]
        fragments = [Fragment(core=root, parents=tree) for root, tree in by_root.items()]
        return cls(fragments)

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
