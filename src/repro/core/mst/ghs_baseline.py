"""Point-to-point-only MST baseline (synchronous GHS / Borůvka fragments).

Used by experiment E9 as the "what if we had no channel" comparison: the
classic synchronous fragment-merging MST algorithm in the style of Gallager,
Humblet and Spira (1983).  Fragments start as singletons; in each phase every
fragment finds its minimum-weight outgoing link (broadcast + GHS-style
sequential link testing + convergecast on its own tree) and the fragments are
merged along the chosen links.  The number of fragments at least halves per
phase, giving O(log n) phases; each phase costs time proportional to the
largest fragment diameter, which can reach Θ(n) on high-diameter topologies —
hence the overall O(n log n) time that the multimedia algorithm's
O(√n log n) beats.

The execution style and the accounting match the deterministic partitioner,
whose slot-column kernels it runs: the Step 2 link scan
(:func:`~repro.core.partition.deterministic.find_min_outgoing_links`) on
every fragment, and the Step 6 splice
(:func:`~repro.core.partition.deterministic.splice_groups`) on the whole
fragment forest F — every fragment is active and F is never cut, so each
tree of F merges into one fragment.  Costs are charged from the actual tree
radii and the GHS edge-rejection discipline, so the comparison between the
baseline and the multimedia algorithm is apples to apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.mst.kruskal import MSTEdges
from repro.core.partition.deterministic import (
    find_min_outgoing_links,
    fragment_forest,
    splice_groups,
)
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import Edge, WeightedGraph, edge_key


@dataclass
class PointToPointMSTResult:
    """Result of the point-to-point-only MST baseline.

    Attributes:
        mst: the computed spanning tree.
        metrics: time/message accounting.
        phases: number of merge phases executed.
    """

    mst: MSTEdges
    metrics: MetricsSnapshot
    phases: int

    @property
    def total_rounds(self) -> int:
        """Return the end-to-end time in rounds."""
        return self.metrics.rounds


class PointToPointMST:
    """Synchronous fragment-merging MST using only the point-to-point network."""

    def __init__(
        self,
        graph: WeightedGraph,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create the solver.

        Raises:
            ValueError: if the graph is empty, disconnected or has repeated
                weights.
        """
        if graph.num_nodes() == 0:
            raise ValueError("cannot compute the MST of an empty network")
        if not graph.csr().is_connected():
            raise ValueError("the topology must be connected")
        if not graph.csr().has_distinct_weights():
            raise ValueError(
                "link weights must be distinct; use assign_distinct_weights()"
            )
        self._graph = graph
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    def run(self) -> PointToPointMSTResult:
        """Execute the algorithm and return the MST."""
        graph = self._graph
        csr = graph.csr()
        n = csr.n
        # every node starts as a depth-0 singleton fragment, its own core;
        # the columns are the deterministic partitioner's (slot-indexed,
        # -1 for "no parent")
        parent_idx: List[int] = [-1] * n
        core_arr: List[int] = list(range(n))
        depths: List[int] = [0] * n
        sizes: List[int] = [1] * n
        radii: List[int] = [0] * n
        f_local: List[int] = [-1] * n
        nbr, weight, back = csr.scan_columns()
        dead = bytearray(len(nbr))
        scan_pos = csr.offsets[:-1]
        scan_end = csr.offsets[1:]
        cores = range(n)

        self._metrics.set_phase("ghs")
        phases = 0
        while len(cores) > 1:
            phases += 1
            # count fragment sizes: broadcast-and-respond on every fragment
            rounds = 2 * max(map(radii.__getitem__, cores))
            self._metrics.record_messages(2 * (n - len(cores)))
            # every fragment finds its minimum-weight outgoing link: every
            # node scans, grouped by fragment, in slot order within each
            choosers, link_u, link_v, total_tests, max_tests = find_min_outgoing_links(
                sorted(range(n), key=core_arr.__getitem__), core_arr,
                nbr, weight, back, dead, scan_pos, scan_end,
            )
            self._metrics.record_messages(2 * total_tests)
            rounds += 2 * max_tests
            # each tree of F merges, rooted at the larger-repr end of its
            # 2-cycle: a broadcast over the spliced fragments re-roots them,
            # then the new core is announced to the whole merged fragment
            f_verts, f_parent = fragment_forest(choosers, link_v, core_arr, f_local)
            merge_rounds = merge_messages = 0
            for _, spliced, merged, _, radius in splice_groups(
                f_verts, f_parent, link_u, link_v, range(n),
                parent_idx, core_arr, depths, sizes, radii,
            ):
                merge_messages += 2 * spliced + merged
                if radius > merge_rounds:
                    merge_rounds = radius
            self._metrics.record_messages(merge_messages)
            rounds += merge_rounds
            self._metrics.record_round(rounds)
            # every fragment chose a link, so F's vertices are all the
            # cores, and its roots are the merged fragments
            cores = [f_verts[vertex] for vertex, up in enumerate(f_parent) if up < 0]
        self._metrics.set_phase(None)

        # the last fragment's tree is the MST: one link per non-root node
        keys = [edge_key(child, up) for child, up in enumerate(parent_idx) if up >= 0]
        edges = [Edge(u, v, graph.weight(u, v)) for u, v in sorted(keys, key=repr)]
        mst = MSTEdges(edges=edges, total_weight=sum(edge.weight for edge in edges))
        return PointToPointMSTResult(
            mst=mst, metrics=self._metrics.snapshot(), phases=phases
        )
