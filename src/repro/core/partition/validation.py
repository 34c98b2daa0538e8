"""Validators for the partition invariants claimed by the paper.

Section 3 claims the deterministic partition produces a spanning forest where

* every tree is a subtree of the (unique) minimum spanning tree,
* every tree has size ≥ √n, and
* every tree has radius ≤ 8√n,

and therefore the forest has at most √n trees.  Section 4 claims the
randomized partition produces a spanning forest of trees of radius ≤ 4√n
whose expected number is O(√n).  :func:`validate_partition` checks all the
structural invariants of a forest against the network it was computed on and
reports the quantitative figures the experiments tabulate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.partition.forest import SpanningForest
from repro.topology.graph import WeightedGraph, edge_key


@dataclass
class PartitionReport:
    """Outcome of validating a spanning forest against its network.

    Attributes:
        n: number of nodes in the network.
        num_fragments: number of trees in the forest.
        min_size / max_size: extreme fragment sizes.
        max_radius: largest fragment radius.
        covers_all_nodes: the forest's nodes are exactly the network's.
        edges_exist: every tree edge is a link of the network.
        subtrees_of_mst: every tree edge belongs to the network's MST
            (``None`` when the check was not requested).
        violations: human-readable descriptions of every failed check.
    """

    n: int
    num_fragments: int
    min_size: int
    max_size: int
    max_radius: int
    covers_all_nodes: bool
    edges_exist: bool
    subtrees_of_mst: Optional[bool] = None
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Return ``True`` when every requested check passed."""
        return not self.violations

    @property
    def sqrt_n(self) -> float:
        """Return √n, the yardstick of every bound."""
        return math.sqrt(self.n)

    @property
    def radius_ratio(self) -> float:
        """Return (max radius) / √n — ≤ 8 for the deterministic partition."""
        return self.max_radius / self.sqrt_n if self.n else 0.0


def validate_partition(
    forest: SpanningForest,
    graph: WeightedGraph,
    check_mst_subtrees: bool = False,
    min_size_bound: Optional[float] = None,
    max_radius_bound: Optional[float] = None,
    max_fragments_bound: Optional[float] = None,
) -> PartitionReport:
    """Validate ``forest`` against ``graph`` and the requested bounds.

    Args:
        forest: the spanning forest to validate.
        graph: the network it was computed on.
        check_mst_subtrees: also verify that every tree edge belongs to the
            graph's MST (requires distinct weights for the MST to be unique).
        min_size_bound: when given, flag fragments smaller than this.
        max_radius_bound: when given, flag fragments whose radius exceeds it.
        max_fragments_bound: when given, flag a forest with more trees than it.

    Returns:
        A :class:`PartitionReport`; ``report.ok`` is ``True`` when every
        structural check and every requested bound holds.
    """
    violations: List[str] = []
    n = graph.num_nodes()

    # structural checks: the forest constructor already rejected cycles
    # and dangling parents, and every node is in exactly one fragment, so
    # coverage and links are what is left
    covered = forest.num_nodes()
    covers_all = covered == n
    if covered < n:
        violations.append(f"{n - covered} node(s) not covered by the forest")
    elif covered > n:
        violations.append(f"{covered - n} forest node(s) not in the network")

    edges_exist = True
    for child, parent in forest.tree_edges():
        if not graph.has_edge(child, parent):
            edges_exist = False
            violations.append(
                f"tree edge ({child}, {parent}) is not a network link"
            )

    # MST-subtree check ---------------------------------------------------
    subtrees_of_mst: Optional[bool] = None
    if check_mst_subtrees:
        # imported here: repro.core.mst imports the partitioners
        from repro.core.mst.kruskal import kruskal_mst

        # the empty graph has no MST edges (and no tree edges to check)
        mst_keys = kruskal_mst(graph).edge_keys() if n else set()
        subtrees_of_mst = True
        for child, parent in forest.tree_edges():
            if edge_key(child, parent) not in mst_keys:
                subtrees_of_mst = False
                violations.append(
                    f"tree edge ({child}, {parent}) is not an MST edge"
                )

    # quantitative bounds -------------------------------------------------
    min_size = forest.min_size()
    max_size = forest.max_size()
    max_radius = forest.max_radius()
    num_fragments = forest.num_fragments()

    if min_size_bound is not None and min_size < min_size_bound and num_fragments > 1:
        violations.append(
            f"smallest fragment has {min_size} nodes, below the bound {min_size_bound:.1f}"
        )
    if max_radius_bound is not None and max_radius > max_radius_bound:
        violations.append(
            f"largest fragment radius {max_radius} exceeds the bound {max_radius_bound:.1f}"
        )
    if max_fragments_bound is not None and num_fragments > max_fragments_bound:
        violations.append(
            f"forest has {num_fragments} fragments, above the bound {max_fragments_bound:.1f}"
        )

    return PartitionReport(
        n=n,
        num_fragments=num_fragments,
        min_size=min_size,
        max_size=max_size,
        max_radius=max_radius,
        covers_all_nodes=covers_all,
        edges_exist=edges_exist,
        subtrees_of_mst=subtrees_of_mst,
        violations=violations,
    )
