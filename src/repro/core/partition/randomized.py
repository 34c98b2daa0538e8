"""The randomized partitioning algorithm (Section 4).

Free nodes repeatedly flip coins with escalating probabilities
``min(1, E_i/√n)`` (``E_1 = 1`` and ``E_{i+1} = e^{E_i}``); the winners become
*local centres* and grow BFS trees of depth at most ``4√n`` synchronously.
Nodes labelled at most ``2√n`` — and all nodes of trees that have no outgoing
link to an unlabelled node — become *unfree*; the rest stay free for the next
iteration.  After at most ``ln* n + 1`` iterations every node belongs to some
BFS tree of radius ≤ 4√n, and the expected number of trees is O(√n)
(Theorem 1).  The running time is O(√n log* n) worst case and the message
complexity O(m + n log* n): a message over a link either attaches the link to
a BFS tree or removes it from the algorithm's view forever.

The algorithm is Monte Carlo (the number of trees exceeds O(√n) only with
small probability); the Las-Vegas wrapper of the paper's Remark verifies the
tree count by attempting to schedule the roots on the channel for ``8√n``
slots with the Metcalfe–Boggs randomized technique and restarts on failure.

Like the deterministic partitioner, the execution is an orchestrated
simulation: iteration structure, coin flips, BFS label relaxations, link
removals and the free/unfree rule follow the paper exactly, and the time and
message charges are those of the synchronous message-passing execution
(iteration lengths are fixed in advance, as the paper requires).

Implementation notes (slot-indexed columns)
-------------------------------------------
The orchestration state lives in flat columns indexed by node (a node is
its CSR slot): labels and parent pointers are lists,
and the adjacency is three flat columns over the CSR row ranges —
neighbour slot, reverse position, and a ``bytearray`` of per-link alive
flags — so the BFS relaxation and link-removal inner loops index columns
instead of hashing nodes or edge pairs.  The live-link worklist is
an ``array`` of canonical edge ids.  The deterministic tie-break order
(``repr`` of the node) is precomputed once as an integer rank, and link
removal flips the alive flag on *both* endpoints' entries via the reverse
position.  The random stream is consumed in exactly the historical order
(coin flips over the free set in repr order), so the outputs stay
bit-identical to the pre-optimization implementation (pinned by the v2
goldens and ``tests/test_partition_digests.py``).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import random

from repro.core.partition.forest import SpanningForest, find_root_indexed
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender
from repro.sim.collector import collector_paused
from repro.sim.errors import ProtocolError
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import WeightedGraph


def ln_star(n: float) -> int:
    """Return ``ln* n``: iterations of the natural log needed to reach ≤ 1."""
    if n <= 0:
        raise ValueError("ln* is only defined for positive arguments")
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log(value)
        count += 1
    return count


def escalation_sequence(length: int) -> List[float]:
    """Return ``E_1, …, E_length`` with ``E_1 = 1`` and ``E_{i+1} = e^{E_i}``.

    The values grow as an exponential tower, so they are capped at ``1e18``
    (far beyond any √n the simulation reaches) to avoid overflow.
    """
    values: List[float] = []
    current = 1.0
    for _ in range(length):
        values.append(current)
        current = math.exp(min(current, 41.0))
        current = min(current, 1e18)
    return values


class _Workspace(NamedTuple):
    """The run-invariant structure every Las-Vegas attempt shares.

    ``rank`` and ``unrank`` map a node to its ``repr``-order position and
    back.  Node
    ``i``'s links occupy positions ``offsets[i]..offsets[i + 1]`` of ``adj``
    (neighbour slot) and ``adj_back`` (the same link's position in the
    neighbour's range), in edge-list order; ``edge_pos[j]`` is canonical
    edge ``j``'s position in its ``edge_u`` endpoint's range.
    """

    rank: List[int]
    unrank: List[int]
    offsets: array
    adj: array
    adj_back: array
    edge_u: array
    edge_v: array
    edge_pos: array


@dataclass
class IterationRecord:
    """Statistics for one iteration of the randomized partitioner."""

    iteration: int
    head_probability: float
    new_centers: int
    free_before: int
    free_after: int
    rounds: int
    messages: int


@dataclass
class RandomizedPartitionResult:
    """Result of the randomized partitioning algorithm.

    Attributes:
        forest: the spanning forest of BFS trees (radius ≤ 4√n each).
        metrics: time/message accounting (including verification and
            restarts for the Las-Vegas variant).
        iterations: per-iteration records of the successful run.
        restarts: number of Las-Vegas restarts (always 0 for Monte Carlo).
        verified: whether the Las-Vegas verification accepted the forest.
    """

    forest: SpanningForest
    metrics: MetricsSnapshot
    iterations: List[IterationRecord]
    restarts: int
    verified: bool

    @property
    def num_fragments(self) -> int:
        """Return the number of trees in the forest."""
        return self.forest.num_fragments()


class RandomizedPartitioner:
    """Runs the Section 4 algorithm on a multimedia network."""

    def __init__(
        self,
        graph: WeightedGraph,
        seed: Optional[int] = None,
        las_vegas: bool = False,
        max_restarts: int = 8,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create a partitioner.

        Args:
            graph: connected point-to-point topology.
            seed: seed for the coin flips (and the verification scheduling).
            las_vegas: run the Las-Vegas variant (verify the number of roots
                on the channel and restart on failure).
            max_restarts: safety bound on Las-Vegas restarts.
            metrics: externally owned complexity recorder.

        Raises:
            ValueError: if the graph is empty or disconnected.
        """
        if graph.num_nodes() == 0:
            raise ValueError("cannot partition an empty network")
        if not graph.csr().is_connected():
            raise ValueError("the point-to-point topology must be connected")
        self._graph = graph
        self._n = graph.num_nodes()
        self._rng = random.Random(seed)
        self._las_vegas = las_vegas
        self._max_restarts = max_restarts
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    # ------------------------------------------------------------------
    @collector_paused
    def run(self) -> RandomizedPartitionResult:
        """Execute the algorithm (with verification when Las Vegas is enabled)."""
        # the tie-break ranks and adjacency structure are invariant across
        # Las-Vegas restarts: build them once and hand each attempt a fresh
        # copy of only the mutable per-run state
        csr = self._graph.csr()
        n = self._n
        rank: List[int] = [0] * n
        unrank: List[int] = [0] * n
        reprs = list(map(repr, range(n)))
        for position, i in enumerate(sorted(range(n), key=reprs.__getitem__)):
            rank[i] = position
            unrank[position] = i
        del reprs  # n strings, not needed past the ranking
        # adjacency columns and reverse positions come from ONE pass over
        # the graph's canonical edge columns (both positions are known at
        # fill time).
        # Each node's range is in edge-list order, not row order — nothing
        # the algorithm computes depends on it: per-neighbour BFS winners
        # are minima, and the message/outgoing-link checks are order-free
        # aggregates.
        offsets = csr.offsets
        edge_u, edge_v, _ = csr.canonical_edges()
        adj = array("q", bytes(8 * len(csr.targets)))
        adj_back = array("q", bytes(8 * len(csr.targets)))
        edge_pos = array("q", bytes(8 * len(edge_u)))
        cursor = offsets[:-1]
        for j, (u, v) in enumerate(zip(edge_u, edge_v)):
            at_u = cursor[u]
            at_v = cursor[v]
            cursor[u] = at_u + 1
            cursor[v] = at_v + 1
            adj[at_u] = v
            adj[at_v] = u
            adj_back[at_u] = at_v
            adj_back[at_v] = at_u
            edge_pos[j] = at_u
        workspace = _Workspace(rank, unrank, offsets, adj, adj_back, edge_u, edge_v, edge_pos)
        restarts = 0
        while True:
            forest, iterations = self._run_once(workspace)
            if not self._las_vegas:
                return RandomizedPartitionResult(
                    forest=forest,
                    metrics=self._metrics.snapshot(),
                    iterations=iterations,
                    restarts=restarts,
                    verified=False,
                )
            if self._verify(forest):
                return RandomizedPartitionResult(
                    forest=forest,
                    metrics=self._metrics.snapshot(),
                    iterations=iterations,
                    restarts=restarts,
                    verified=True,
                )
            restarts += 1
            if restarts > self._max_restarts:
                raise RuntimeError(
                    "Las-Vegas verification kept failing; this indicates a bug "
                    "because the failure probability per attempt is below 1/2"
                )

    # ------------------------------------------------------------------
    def _run_once(
        self, workspace: _Workspace
    ) -> Tuple[SpanningForest, List[IterationRecord]]:
        rank, unrank = workspace.rank, workspace.unrank
        offsets, adj = workspace.offsets, workspace.adj
        n = self._n
        sqrt_n = math.sqrt(n)
        depth_limit = max(1, math.ceil(4 * sqrt_n))
        unfree_label = 2 * sqrt_n
        max_iterations = ln_star(max(2, n)) + 2
        probabilities = [
            min(1.0, e / sqrt_n) for e in escalation_sequence(max_iterations)
        ]
        probabilities[-1] = 1.0  # the last iteration promotes every free node

        # per-link alive flags; removing a link flips the flag on BOTH
        # endpoints' entries (via the reverse positions), so the BFS hot
        # loop tests one byte instead of hashing an oriented pair
        alive = bytearray(b"\x01") * len(adj)
        label: List[int] = [-1] * n  # -1 encodes "unlabelled"
        parent: List[int] = [-1] * n  # -1 encodes "no parent"
        free: Set[int] = set(range(n))
        # worklist of the canonical edge ids the algorithm still considers:
        # a removed link is never looked at again, so each iteration only
        # rescans the survivors
        live_links = range(len(workspace.edge_u))
        records: List[IterationRecord] = []

        self._metrics.set_phase("partition")
        for iteration, probability in enumerate(probabilities):
            if not free:
                break
            free_before = len(free)
            messages_start = self._metrics.point_to_point_messages

            # Step 1: coin flips (one synchronized round)
            rng_random = self._rng.random
            new_centers = [
                node for node in sorted(free, key=rank.__getitem__)
                if rng_random() < probability
            ]
            for center in new_centers:
                label[center] = 0
                parent[center] = -1
            rounds = 1

            # Step 2: synchronous BFS growth to depth 4√n from the new centres
            bfs_messages = self._grow_bfs(
                new_centers, label, parent, offsets, adj, alive, depth_limit,
                rank, unrank,
            )
            rounds += depth_limit
            self._metrics.record_messages(bfs_messages)

            # remove links internal to a tree but not tree edges
            live_links = self._remove_internal_links(
                label, parent, workspace, alive, live_links
            )

            # Step 3: free/unfree determination (convergecast + broadcast per tree)
            members: Dict[int, List[int]] = {}
            root_cache: List[int] = [-1] * n
            for node in range(n):
                if label[node] == -1:
                    continue
                members.setdefault(
                    find_root_indexed(parent, root_cache, node), []
                ).append(node)
            for group in members.values():
                has_outgoing_to_unlabeled = False
                for node in group:
                    for neighbor in adj[offsets[node]:offsets[node + 1]]:
                        if label[neighbor] == -1:
                            has_outgoing_to_unlabeled = True
                            break
                    if has_outgoing_to_unlabeled:
                        break
                for node in group:
                    if not has_outgoing_to_unlabeled:
                        free.discard(node)
                    elif label[node] <= unfree_label:
                        free.discard(node)
                self._metrics.record_messages(2 * max(0, len(group) - 1))
            rounds += 2 * depth_limit

            self._metrics.record_round(rounds)
            records.append(
                IterationRecord(
                    iteration=iteration,
                    head_probability=probability,
                    new_centers=len(new_centers),
                    free_before=free_before,
                    free_after=len(free),
                    rounds=rounds,
                    messages=self._metrics.point_to_point_messages - messages_start,
                )
            )
        self._metrics.set_phase(None)

        if any(value == -1 for value in label):
            raise AssertionError(
                "the final iteration promotes every free node, so every node "
                "must be labelled when the loop ends"
            )
        return SpanningForest(parent), records

    # ------------------------------------------------------------------
    def _grow_bfs(
        self,
        new_centers: List[int],
        label: List[int],
        parent: List[int],
        offsets: array,
        adj: array,
        alive: bytearray,
        depth_limit: int,
        rank: List[int],
        unrank: List[int],
    ) -> int:
        """Relax labels outward from the new centres; returns messages sent.

        Not a :meth:`~repro.topology.graph.CSRView.bfs` call: it relaxes
        existing labels by strict improvement over the alive links only and
        counts the messages each improvement sends.

        A node adopts a neighbour's announcement only when it strictly reduces
        its label (ties between simultaneous announcements go to the least
        root, which the orchestration realises by processing announcements in
        deterministic order).  Every node whose label improves announces the
        improvement over all its non-removed incident links — each such
        announcement is one message.

        Each announcement is encoded as the single integer
        ``announced · n + rank(sender)``: with ranks below ``n`` that integer
        orders exactly like the historical ``(announced, repr(sender))``
        pair, so each neighbour keeps only its running minimum offer (one
        int per receiver, no per-receiver offer list), and the chosen parent
        decodes via ``unrank``.
        """
        n = len(rank)
        messages = 0
        frontier = list(new_centers)
        for _ in range(depth_limit):
            if not frontier:
                break
            best_offer: Dict[int, int] = {}
            for node in sorted(frontier, key=rank.__getitem__):
                encoded = (label[node] + 1) * n + rank[node]
                for position in range(offsets[node], offsets[node + 1]):
                    if not alive[position]:
                        continue
                    messages += 1
                    neighbor = adj[position]
                    best = best_offer.get(neighbor)
                    if best is None or encoded < best:
                        best_offer[neighbor] = encoded
            next_frontier: List[int] = []
            for neighbor, best in best_offer.items():
                best_label = best // n
                if best_label > depth_limit:
                    continue
                current = label[neighbor]
                if current == -1 or best_label < current:
                    label[neighbor] = best_label
                    parent[neighbor] = unrank[best % n]
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return messages

    def _remove_internal_links(
        self,
        label: List[int],
        parent: List[int],
        workspace: _Workspace,
        alive: bytearray,
        live_links,
    ) -> array:
        """Drop links whose endpoints share a tree but that are not tree edges.

        Returns the surviving worklist (canonical edge ids) so the next
        iteration skips removed links without consulting the flags; removal
        flips the alive flag on both endpoints' entries.
        """
        edge_u, edge_v, edge_pos = workspace.edge_u, workspace.edge_v, workspace.edge_pos
        adj_back = workspace.adj_back
        root_cache: List[int] = [-1] * len(label)
        survivors = array("q")
        for j in live_links:
            u = edge_u[j]
            v = edge_v[j]
            if parent[u] == v or parent[v] == u:
                survivors.append(j)
                continue
            root_u = (
                -1 if label[u] == -1
                else find_root_indexed(parent, root_cache, u)
            )
            root_v = (
                -1 if label[v] == -1
                else find_root_indexed(parent, root_cache, v)
            )
            if root_u != -1 and root_u == root_v:
                position_u = edge_pos[j]
                alive[position_u] = 0
                alive[adj_back[position_u]] = 0
            else:
                survivors.append(j)
        return survivors

    # ------------------------------------------------------------------
    def _verify(self, forest: SpanningForest) -> bool:
        """Las-Vegas verification: schedule the roots on the channel.

        The roots contend on the channel with the Metcalfe–Boggs technique
        for at most ``8√n`` slots; verification succeeds when every root got
        a slot and the number of roots is at most ``2√n``... the paper uses
        the weaker check "all roots scheduled and their number ≤ 2√n"; we
        allow the forest when the count is within ``4√n`` (the constant the
        Monte-Carlo analysis actually yields for small n) so that the
        restart probability stays below 1/2 as the Remark requires.
        """
        roots = forest.cores
        sqrt_n = math.sqrt(self._n)
        budget = max(4, math.ceil(8 * sqrt_n))
        estimate = max(1, math.ceil(2 * sqrt_n))
        # eager seed draws keep the master stream identical to the old
        # eager-rng form; the generators themselves materialise lazily
        contenders = [
            MetcalfeBoggsContender(
                identity=root,
                estimated_contenders=estimate,
                seed=self._rng.randrange(2**63),
                payload=root,
            )
            for root in roots
        ]
        self._metrics.set_phase("verification")
        try:
            outcome = run_contention(
                contenders, max_slots=budget, metrics=self._metrics
            )
        except ProtocolError:
            # the channel could not schedule every root: reject the forest
            return False
        finally:
            self._metrics.set_phase(None)
        scheduled_all = len(outcome.order) == len(roots)
        return scheduled_all and len(roots) <= math.ceil(4 * sqrt_n)
