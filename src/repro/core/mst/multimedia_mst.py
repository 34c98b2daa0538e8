"""Minimum spanning tree in a multimedia network (Section 6).

Three stages:

1. **Partition** — the deterministic Section 3 algorithm builds initial
   fragments (subtrees of the MST, size ≥ √n, radius ≤ 8√n).
2. **Scheduling** — the cores of the initial fragments obtain a channel
   schedule with Capetanakis' deterministic resolution (O(√n log n) slots).
3. **Merging** — repeated phases on *current fragments* (initially the
   initial fragments).  In each phase every initial fragment converge-casts
   the minimum-weight link leaving its *current* fragment (no inter-fragment
   communication needed, because every node knows which initial fragment is
   across each incident link and which initial fragments make up each current
   fragment); then every core broadcasts its candidate over the channel in
   its scheduled slot, every node locally determines the minimum outgoing
   link of every current fragment, and the current fragments are merged along
   those links.  The number of current fragments at least halves per phase,
   so there are O(log n) phases of O(√n) time each.

Total: O(√n log n) time and O(m + n log n log* n) messages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.mst.kruskal import MSTEdges
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.forest import SpanningForest
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.sim.adversity import AdversityState
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import Edge, WeightedGraph, edge_key


@dataclass
class MergePhaseRecord:
    """Statistics of one merge phase of the third stage."""

    phase: int
    current_fragments_before: int
    current_fragments_after: int
    rounds: int
    messages: int


@dataclass
class MultimediaMSTResult:
    """Result of the multimedia MST algorithm.

    Attributes:
        mst: the computed spanning tree edges.
        metrics: combined accounting of all three stages.
        initial_fragments: number of initial fragments of stage 1.
        scheduling_slots: channel slots used by stage 2.
        merge_phases: per-phase records of stage 3.
        partition_rounds: rounds spent in stage 1.
    """

    mst: MSTEdges
    metrics: MetricsSnapshot
    initial_fragments: int
    scheduling_slots: int
    merge_phases: List[MergePhaseRecord]
    partition_rounds: int

    @property
    def total_rounds(self) -> int:
        """Return the end-to-end time in rounds/slots."""
        return self.metrics.rounds


class MultimediaMST:
    """Runs the Section 6 algorithm on a weighted multimedia network."""

    def __init__(
        self,
        graph: WeightedGraph,
        metrics: Optional[MetricsRecorder] = None,
        adversity: Optional[AdversityState] = None,
    ) -> None:
        """Create the solver.

        Args:
            graph: connected topology with distinct link weights.
            metrics: externally owned recorder to charge.
            adversity: optional adversity state.  Only stage 2 (channel
                scheduling) runs on the simulated channel, so only jamming
                reaches this algorithm; stages 1 and 3 are charged
                analytically and sit outside the schedule's reach.

        Raises:
            ValueError: if the graph is empty, disconnected, or has repeated
                weights (the paper assumes distinct weights w.l.o.g.).
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
        self._n = graph.num_nodes()
        self._metrics = metrics if metrics is not None else MetricsRecorder()
        self._adversity = adversity

    # ------------------------------------------------------------------
    def run(self) -> MultimediaMSTResult:
        """Execute the three stages and return the MST."""
        # ---------------- stage 1: initial fragments ----------------------
        rounds_before = self._metrics.rounds
        partitioner = DeterministicPartitioner(self._graph, metrics=self._metrics)
        partition = partitioner.run()
        forest = partition.forest
        partition_rounds = self._metrics.rounds - rounds_before

        # ---------------- stage 2: schedule the cores ---------------------
        self._metrics.set_phase("scheduling")
        # the cores are nodes, so the ids 0..n-1 are their Capetanakis universe
        contenders = [
            CapetanakisContender(identity=core, universe_size=self._n, payload=core)
            for core in forest.cores
        ]
        schedule_outcome = run_contention(
            contenders,
            metrics=self._metrics,
            adversity=self._adversity,
            network_size=self._n,
        )
        schedule = schedule_outcome.order
        scheduling_slots = schedule_outcome.slots_used
        self._metrics.set_phase(None)

        # ---------------- stage 3: merge current fragments ----------------
        mst_keys, merge_records = self._merge_stage(forest, schedule)
        mst_edges = [
            Edge(u, v, self._graph.weight(u, v)) for u, v in sorted(mst_keys, key=repr)
        ]
        mst = MSTEdges(
            edges=mst_edges, total_weight=sum(edge.weight for edge in mst_edges)
        )
        return MultimediaMSTResult(
            mst=mst,
            metrics=self._metrics.snapshot(),
            initial_fragments=forest.num_fragments(),
            scheduling_slots=scheduling_slots,
            merge_phases=merge_records,
            partition_rounds=partition_rounds,
        )

    # ------------------------------------------------------------------
    def _merge_stage(
        self,
        forest: SpanningForest,
        schedule: List[int],
    ) -> Tuple[Set[Tuple[int, int]], List[MergePhaseRecord]]:
        """Run the Kruskal-style merge phases and return the MST edge keys.

        Each initial fragment's candidate links live in one weight-sorted
        boundary column built once up front; a per-fragment start pointer
        advances past links that have become internal to the fragment's
        current fragment.  Merging only ever grows current fragments, so an
        internal link stays internal and the pointer never needs to back up —
        every boundary link is examined O(1) times across all phases instead
        of once per phase, and the selected candidates (hence the MST and all
        recorded metrics) are identical to the per-phase rescan's.
        """
        self._metrics.set_phase("merge")
        # initial fragments are named by their core; the forest's core
        # column is every node's home fragment
        csr = self._graph.csr()
        slot_home = forest.root
        initial_cores = forest.cores
        # the MST edges inside the initial fragments are already known
        mst_keys: Set[Tuple[int, int]] = {
            edge_key(child, parent) for child, parent in forest.tree_edges()
        }

        # "first, each node finds out which initial fragment is on the other
        # side of each of its incident links": one exchange per link
        self._metrics.record_round(1)
        self._metrics.record_messages(2 * self._graph.num_edges())

        # every node knows the composition of every current fragment; we track
        # it centrally as a mapping initial fragment -> current fragment id
        current_of: Dict[int, int] = {core: core for core in initial_cores}

        # boundary columns: per initial fragment, its links to other initial
        # fragments sorted by (weight, node, neighbor) — the comparison order
        # the per-phase minimum always used.  Each entry also carries the
        # neighbor's initial fragment, which never decides a comparison:
        # the first three fields are already unique
        boundary: Dict[int, List[Tuple[float, int, int, int]]] = {
            core: [] for core in initial_cores
        }
        # walk the CSR rows (the graph's neighbour order) with the per-node
        # home column
        offsets = csr.offsets
        csr_targets = csr.targets
        csr_weights = csr.weights
        start = 0
        for node in range(csr.n):
            end = offsets[node + 1]
            home = slot_home[node]
            links = boundary[home]
            for k in range(start, end):
                target = csr_targets[k]
                far = slot_home[target]
                if far != home:
                    links.append((csr_weights[k], node, target, far))
            start = end
        for links in boundary.values():
            links.sort()
        boundary_start: Dict[int, int] = {core: 0 for core in initial_cores}
        max_initial_radius = forest.max_radius()

        records: List[MergePhaseRecord] = []
        phase = 0
        while len(set(current_of.values())) > 1:
            phase += 1
            messages_start = self._metrics.point_to_point_messages
            currents_before = len(set(current_of.values()))
            rounds = 0

            # Step 1: every initial fragment converge-casts the minimum-weight
            # link leaving its *current* fragment (pure point-to-point work).
            # The minimum is the first boundary-column entry whose far side is
            # in a different current fragment; entries skipped on the way are
            # internal for good and the start pointer prunes them permanently.
            candidate_per_initial: Dict[int, Tuple[float, int, int, int]] = {}
            for core in initial_cores:
                current_core = current_of[core]
                links = boundary[core]
                index = boundary_start[core]
                limit = len(links)
                while index < limit and current_of[links[index][3]] == current_core:
                    index += 1
                boundary_start[core] = index
                if index < limit:
                    candidate_per_initial[core] = links[index]
                self._metrics.record_messages(2 * (forest.size(core) - 1))
            rounds += 2 * max_initial_radius

            # Step 2: the cores broadcast their candidates in their scheduled
            # slots; every node hears everything and updates locally
            rounds += len(schedule)
            self._metrics.record_round(rounds)

            # every node now computes the minimum outgoing link of every
            # current fragment and merges along those links (local work)
            best_per_current: Dict[int, Tuple[float, int, int, int]] = {}
            for core, candidate in candidate_per_initial.items():
                current = current_of[core]
                if current not in best_per_current or candidate < best_per_current[current]:
                    best_per_current[current] = candidate
            merge_map: Dict[int, int] = {}
            for current, (weight, u, v, far) in best_per_current.items():
                mst_keys.add(edge_key(u, v))
                merge_map[current] = current_of[far]

            # contract the merge graph (union along chosen links)
            current_of = _contract(current_of, merge_map)

            records.append(
                MergePhaseRecord(
                    phase=phase,
                    current_fragments_before=currents_before,
                    current_fragments_after=len(set(current_of.values())),
                    rounds=rounds,
                    messages=self._metrics.point_to_point_messages - messages_start,
                )
            )
        self._metrics.set_phase(None)
        return mst_keys, records


def _contract(
    current_of: Dict[int, int],
    merge_map: Dict[int, int],
) -> Dict[int, int]:
    """Union current fragments along the chosen minimum outgoing links."""
    parent: Dict[int, int] = {}
    currents = set(current_of.values())
    for current in currents:
        parent[current] = current

    def find(x: int) -> int:
        """Return ``x``'s current-fragment root with path halving."""
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for source, target in merge_map.items():
        rs, rt = find(source), find(target)
        if rs != rt:
            parent[rs] = rt
    return {initial: find(current) for initial, current in current_of.items()}
