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
its CSR slot): labels, parent pointers, each labelled node's tree
centre (``root``) and the BFS round in which it took its label
(``claimed``, so only a node claimed in a round competes for its parent
in that round) are lists.  The links are the graph's own CSR rows
(``offsets``/``targets``); no copy of the adjacency is built.  The only
column added over them is each row entry's reverse position
(:meth:`~repro.topology.graph.CSRView.reverse_positions`), with a
``bytearray`` of per-entry alive flags and a worklist of one entry per
live link, and link removal — the only reader of the three — flips the
flag on *both* endpoints' entries.  Removal after an iteration matters
only to the next one, so it runs at the start of the next iteration, and
an attempt whose first iteration leaves no node free (the usual case)
never builds them: until then the BFS reads whole row slices.  Building
the three per attempt and reading every row through the flags from the
start (one path) measured 1.47–1.59 s of CPU against 0.83–0.86 s on e4's
``xhot`` grid (n = 102 400, four attempts) and 0.47–0.62 s against
0.28–0.36 s on scale-free n = 102 400 (best of three, Python 3.11,
2-vCPU host).  ``root`` is kept as the BFS relabels (a node takes its new
parent's centre), so neither the removal nor the free/unfree step walks a
parent chain.  The deterministic tie-break order (``repr`` of the node)
is precomputed once as an integer rank (:func:`repr_order`, without
building a string).  Nothing computed depends on the order of a row or
of a BFS frontier (see :meth:`RandomizedPartitioner._grow_bfs`).  The
random stream is consumed in exactly the historical order (coin flips
over the free set in repr order), so the outputs stay bit-identical to
the pre-optimization implementation (pinned by the v2 goldens and
``tests/test_partition_digests.py``, including a graph built from a
shuffled edge stream and runs whose later iterations meet the labels of
earlier ones).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import lt
from typing import List, Optional, Tuple

import random

from repro.core.partition.forest import SpanningForest
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs
from repro.sim.collector import collector_paused
from repro.sim.errors import ProtocolError
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import WeightedGraph

#: Safety bound on Las-Vegas restarts: each attempt fails its verification
#: with probability below 1/2, so running past it indicates a bug.
MAX_RESTARTS = 8


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


def repr_order(n: int) -> List[int]:
    """Return ``0..n-1`` sorted by ``repr``, without building a string.

    The decimal strings of ``0..n-1`` in lexicographic order are a preorder
    walk of the decimal trie: ``0`` (a leaf), then each of ``1..9`` followed
    by its subtree, whose children are ``10x..10x+9`` (those below ``n``).
    """
    order: List[int] = [0] if n else []
    pending = list(range(min(9, n - 1), 0, -1))
    while pending:
        node = pending.pop()
        order.append(node)
        first = 10 * node
        if first < n:
            pending.extend(range(min(first + 9, n - 1), first - 1, -1))
    return order


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
        seed: int,
        las_vegas: bool = False,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create a partitioner.

        Args:
            graph: connected point-to-point topology.
            seed: seed for the coin flips (and the verification scheduling).
            las_vegas: run the Las-Vegas variant (verify the number of roots
                on the channel and restart on failure).
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
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    # ------------------------------------------------------------------
    @collector_paused
    def run(self) -> RandomizedPartitionResult:
        """Execute the algorithm (with verification when Las Vegas is enabled)."""
        # the tie-break ranks are invariant across Las-Vegas restarts: build
        # them once and hand each attempt a fresh copy of only the mutable
        # per-run state
        unrank = repr_order(self._n)
        rank: List[int] = [0] * self._n
        for position, node in enumerate(unrank):
            rank[node] = position
        restarts = 0
        while True:
            forest, iterations = self._run_once(rank, unrank)
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
            if restarts > MAX_RESTARTS:
                raise RuntimeError(
                    "Las-Vegas verification kept failing; this indicates a bug "
                    "because the failure probability per attempt is below 1/2"
                )

    # ------------------------------------------------------------------
    def _run_once(
        self, rank: List[int], unrank: List[int]
    ) -> Tuple[SpanningForest, List[IterationRecord]]:
        # the links are the CSR rows themselves (nothing the algorithm
        # computes depends on the order of a row — see _grow_bfs)
        csr = self._graph.csr()
        offsets, targets = csr.offsets, csr.targets
        n = self._n
        sqrt_n = math.sqrt(n)
        depth_limit = max(1, math.ceil(4 * sqrt_n))
        unfree_label = 2 * sqrt_n
        max_iterations = ln_star(max(2, n)) + 2
        probabilities = [
            min(1.0, e / sqrt_n) for e in escalation_sequence(max_iterations)
        ]
        probabilities[-1] = 1.0  # the last iteration promotes every free node

        # per-link alive flags, made with the reverse positions at the first
        # removal (None while every link is alive); removing a link flips
        # the flag on BOTH endpoints' entries, so the BFS hot loop tests one
        # byte instead of hashing an oriented pair
        alive: Optional[bytearray] = None
        label: List[int] = [-1] * n  # -1 encodes "unlabelled"
        parent: List[int] = [-1] * n  # -1 encodes "no parent"
        root: List[int] = [-1] * n  # the node's tree's centre; -1 unlabelled
        # the BFS round (counted across iterations) in which the node last
        # took a label; -1 never
        claimed: List[int] = [-1] * n
        # the free nodes in repr order, the order the coins are flipped in
        free: List[int] = list(unrank)
        # worklist of the links the algorithm still considers (row
        # positions): a removed link is never looked at again, so each
        # iteration only rescans the survivors
        back: Optional[array] = None
        live_links: Optional[array] = None
        records: List[IterationRecord] = []

        self._metrics.set_phase("partition")
        rng_random = self._rng.random
        for iteration, probability in enumerate(probabilities):
            if not free:
                break
            free_before = len(free)
            messages_start = self._metrics.point_to_point_messages

            # remove the links the last iteration's trees made internal
            # that are not tree edges.  Nothing in an iteration reads the
            # alive flags after its BFS, so the removal runs here, and
            # not at all after the last iteration
            if iteration:
                if alive is None:
                    back = csr.reverse_positions()
                    size = len(back)
                    alive = bytearray(b"\x01") * size
                    # one entry per link: the one below its partner
                    live_links = array(
                        "q", compress(range(size), map(lt, range(size), back))
                    )
                live_links = self._remove_internal_links(
                    parent, root, targets, back, alive, live_links
                )

            # Step 1: coin flips (one synchronized round)
            new_centers = [node for node in free if rng_random() < probability]
            for center in new_centers:
                label[center] = 0
                parent[center] = -1
                root[center] = center
            rounds = 1

            # Step 2: synchronous BFS growth to depth 4√n from the new centres
            bfs_messages = self._grow_bfs(
                new_centers, label, parent, root, claimed,
                iteration * depth_limit, offsets, targets, alive,
                depth_limit, rank,
            )
            rounds += depth_limit
            self._metrics.record_messages(bfs_messages)

            # Step 3: free/unfree determination (convergecast + broadcast
            # per tree).  A tree has an outgoing link to an unlabelled node
            # when some unlabelled (hence free) node is its neighbour.  The
            # convergecast and broadcast cost 2·(size − 1) per tree: the
            # trees are the labelled nodes grouped under the label-0 centres
            outgoing = bytearray(n)
            for node in free:
                if label[node] < 0:
                    for neighbor in targets[offsets[node]:offsets[node + 1]]:
                        if root[neighbor] >= 0:
                            outgoing[root[neighbor]] = 1
            free = [
                node for node in free
                if label[node] < 0
                or (outgoing[root[node]] and label[node] > unfree_label)
            ]
            labelled = n - label.count(-1)
            self._metrics.record_messages(2 * (labelled - label.count(0)))
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

        if -1 in label:
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
        root: List[int],
        claimed: List[int],
        first_round: int,
        offsets: array,
        targets: array,
        alive: Optional[bytearray],
        depth_limit: int,
        rank: List[int],
    ) -> int:
        """Relax labels outward from the new centres; returns messages sent.

        Not a :meth:`~repro.topology.graph.CSRView.bfs` call: it relaxes
        existing labels by strict improvement over the alive links only and
        counts the messages each improvement sends (``alive`` is ``None``
        while every link is alive).

        A node adopts a neighbour's announcement only when it strictly reduces
        its label (ties between simultaneous announcements go to the least
        root, which the orchestration realises by processing announcements in
        deterministic order).  Every node whose label improves announces the
        improvement over all its non-removed incident links — each such
        announcement is one message.

        Round ``d`` announces label ``d``: the round-1 senders are the
        centres (label 0), and every node improved in round ``d`` took label
        ``d`` and sends in round ``d + 1``.  So a node improves on the first
        announcement it hears, and a later one in the same round only
        competes for the parent, won by the ``repr``-least sender (lowest
        ``rank``).  Only a node claimed in this very round competes
        (``claimed`` holds the round, counted from ``first_round``, in
        which each node took its label): a node that kept an equal label
        from an earlier iteration hears no strict improvement and keeps its
        parent, as its subtree keeps its root.  Nothing here depends on the
        order of the senders or of a row.

        ``root`` is kept with the parent: a node takes its new parent's
        centre.  A node whose parent is relabelled is relabelled too in the
        same iteration — the parent's label dropped before the last round,
        so it announces, and beats the node's label (the parent's old one
        plus 1) — so an untouched node's root stays right.
        """
        messages = 0
        frontier = new_centers
        for depth in range(1, depth_limit + 1):
            if not frontier:
                break
            stamp = first_round + depth
            improved: List[int] = []
            for node in frontier:
                tree = root[node]
                start = offsets[node]
                end = offsets[node + 1]
                if alive is None:
                    messages += end - start
                    row = targets[start:end]
                else:
                    messages += alive.count(1, start, end)
                    row = compress(targets[start:end], alive[start:end])
                for neighbor in row:
                    current = label[neighbor]
                    if current < 0 or current > depth:
                        label[neighbor] = depth
                        parent[neighbor] = node
                        root[neighbor] = tree
                        claimed[neighbor] = stamp
                        improved.append(neighbor)
                    elif (
                        claimed[neighbor] == stamp
                        and rank[node] < rank[parent[neighbor]]
                    ):
                        parent[neighbor] = node
                        root[neighbor] = tree
            frontier = improved
        return messages

    def _remove_internal_links(
        self,
        parent: List[int],
        root: List[int],
        targets: array,
        back: array,
        alive: bytearray,
        live_links: array,
    ) -> array:
        """Drop links whose endpoints share a tree but that are not tree edges.

        ``live_links`` holds one row position per link; the link's other
        entry is ``back`` of it, and each entry's neighbour is the other
        endpoint.  Returns the surviving worklist so the next iteration
        skips removed links without consulting the flags; removal flips the
        alive flag on both endpoints' entries.
        """
        survivors = array("q")
        keep = survivors.append
        for position in live_links:
            partner = back[position]
            u = targets[partner]
            v = targets[position]
            if parent[u] == v or parent[v] == u:
                keep(position)
                continue
            tree = root[u]
            if tree >= 0 and tree == root[v]:
                alive[position] = 0
                alive[partner] = 0
            else:
                keep(position)
        return survivors

    # ------------------------------------------------------------------
    def _verify(self, forest: SpanningForest) -> bool:
        """Las-Vegas verification: schedule the roots on the channel.

        The roots contend on the channel with the Metcalfe–Boggs technique
        for at most ``8√n`` slots.  The paper's check is "all roots
        scheduled and their number ≤ 2√n"; verification here succeeds when
        every root got a slot and there are at most ``⌈4√n⌉`` roots (the
        constant the Monte-Carlo analysis actually yields for small n), so
        that the restart probability stays below 1/2 as the Remark requires.
        """
        roots = forest.cores
        sqrt_n = math.sqrt(self._n)
        budget = max(4, math.ceil(8 * sqrt_n))
        estimate = max(1, math.ceil(2 * sqrt_n))
        self._metrics.set_phase("verification")
        try:
            # the stage draws one seed per root from the master stream, which
            # the partition keeps drawing from after a rejected forest
            outcome = run_contention(
                MetcalfeBoggs(estimate, self._rng), roots, roots, self._metrics,
                max_slots=budget,
            )
        except ProtocolError:
            # the channel could not schedule every root: reject the forest
            return False
        finally:
            self._metrics.set_phase(None)
        scheduled_all = len(outcome.order) == len(roots)
        return scheduled_all and len(roots) <= math.ceil(4 * sqrt_n)
