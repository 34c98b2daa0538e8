"""The deterministic partitioning algorithm (Section 3).

The algorithm builds a spanning forest whose trees are subtrees of the MST,
have size ≥ √n and radius ≤ 8√n, in O(√n log* n) time and
O(m + n log n log* n) messages.  It proceeds in synchronized phases; in phase
``i`` every fragment has size ≥ 2^i, and the *active* fragments (those of
level exactly ``i``) each merge with at least one neighbour, so after
``⌈log₂ √n⌉`` phases every fragment has at least √n nodes.  The radius is
kept in check by 3-colouring the fragment graph F (Goldberg–Plotkin–Shannon),
extracting an MIS that contains every root of F (Steps 4–5), and cutting the
trees of F at the MIS vertices so each group of merging fragments has
constant diameter in F (Step 6).

Execution style
---------------
The phases are executed as an *orchestrated simulation*: the per-node state
(parent pointer, core identity, list of not-yet-rejected incident links) is
explicit, every step is realised through the distributed tree primitives
(broadcast, convergecast, GHS-style link testing, core-to-core routing over
fragment branches), and the time and message cost of every step is charged
from the actual tree radii and sizes involved — i.e. the costs are the costs
of the message-passing execution, not wall-clock proxies.  The paper's phase
synchronisation ("each phase takes exactly 5·2^i·log* n rounds", Section 3)
is reproduced by padding each phase to its precomputed length; the result
records both the padded (model) time and the busy time actually used.

Fidelity note: for the per-node minimum-outgoing-link search (Step 2,
substep 2) the nodes test incident links sequentially in weight order, as in
Gallager–Humblet–Spira; a link found internal is rejected forever.  On dense
graphs a node may have to test many links in one phase, so the *measured*
busy time of a phase can exceed the 5·2^i·log* n budget even though the
total message count stays within O(m + n log n log* n); the experiments
report both numbers.

Implementation notes (slot-indexed columns)
-------------------------------------------
All per-phase state lives in flat columns indexed by node (a node is its
CSR slot), and the result's :class:`SpanningForest` is the parent column.

* **Link scan.** Every node's incident links, in the GHS ``(weight, repr)``
  order, occupy the node's CSR range of three flat columns (neighbour slot,
  weight, reverse position; :meth:`~repro.topology.graph.CSRView.scan_columns`)
  plus one ``bytearray`` of dead flags; a per-node ``scan_pos`` only moves
  past permanently rejected links.  A rejection marks both endpoints'
  entries dead via the reverse position, so the scan never hashes a node or
  an edge key.
* **Shared with the GHS baseline.**  The Step 2 scan
  (:func:`find_min_outgoing_links`) and the Step 6 splice
  (:func:`splice_groups`) are module-level kernels over these columns;
  :class:`~repro.core.mst.ghs_baseline.PointToPointMST` runs both on every
  fragment with F uncut.  Each caller charges its own messages and rounds
  from what they return.
* **Fragment bookkeeping.** ``members``/``sizes``/``radii`` are lists
  indexed by core slot, updated only for the fragments a merge touches; a
  singleton fragment has no member list (``None``).  The live cores are
  kept in first-appearance order (smallest member slot), the order a full
  scan over the nodes meets them.
* **Fragment forest F.** F's vertices are numbered ``0..k-1`` per phase
  (choosing cores first, in active order, then inactive targets) and F,
  its 2-cycle break, validation, Cole–Vishkin steps, shift-down passes,
  MIS (:func:`~repro.protocols.symmetry.mis.mis_columns`) and cut all run
  as passes over int columns.  No node-keyed dict is built.  Every value
  these passes compute depends only on a vertex and its F-neighbours, not
  on the numbering, so the results are those of the node-keyed
  formulation bit for bit (pinned by the v1 goldens and
  ``tests/test_partition_digests.py``).
"""

from __future__ import annotations

import math
from array import array
from itertools import groupby
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.partition.forest import SpanningForest, find_root_indexed
from repro.protocols.symmetry.cole_vishkin import log_star
from repro.protocols.symmetry.mis import MIS_COMMUNICATION_ROUNDS, RED, mis_columns
from repro.protocols.symmetry.three_coloring import three_color_columns
from repro.sim.collector import collector_paused
from repro.sim.metrics import MetricsRecorder, MetricsSnapshot
from repro.topology.graph import WeightedGraph


@dataclass
class PhaseRecord:
    """Per-phase statistics recorded by the deterministic partitioner.

    Attributes:
        phase: the phase index ``i``.
        active_fragments: number of fragments of level exactly ``i``.
        fragments_before / fragments_after: fragment counts around the phase.
        busy_rounds: rounds of actual activity in the phase.
        charged_rounds: rounds charged after padding to the synchronized
            phase length ``5 · 2^i · log* n``.
        messages: point-to-point messages sent during the phase.
        coloring_rounds: parent→child communication rounds used by the
            3-colouring + MIS computation on the fragment graph F.
    """

    phase: int
    active_fragments: int
    fragments_before: int
    fragments_after: int
    busy_rounds: int
    charged_rounds: int
    messages: int
    coloring_rounds: int


@dataclass
class DeterministicPartitionResult:
    """Result of the deterministic partitioning algorithm.

    Attributes:
        forest: the spanning forest (each tree a subtree of the MST).
        metrics: time/message accounting of the whole run.
        phases: per-phase records.
        busy_rounds: total rounds of actual activity (≤ ``metrics.rounds``,
            which includes the synchronization padding).
        target_size: the size threshold the algorithm was run to (√n by
            default; the tightened-balance variant of Section 5.1 uses
            ``√(n / (log n log* n))``).
    """

    forest: SpanningForest
    metrics: MetricsSnapshot
    phases: List[PhaseRecord]
    busy_rounds: int
    target_size: int

    @property
    def num_fragments(self) -> int:
        """Return the number of trees in the forest."""
        return self.forest.num_fragments()


class DeterministicPartitioner:
    """Runs the Section 3 algorithm on a weighted multimedia network."""

    def __init__(
        self,
        graph: WeightedGraph,
        target_size: Optional[int] = None,
        metrics: Optional[MetricsRecorder] = None,
    ) -> None:
        """Create a partitioner.

        Args:
            graph: connected point-to-point topology with distinct link
                weights (use :func:`repro.topology.weights.assign_distinct_weights`).
            target_size: stop once every fragment has at least this many
                nodes; defaults to ``⌈√n⌉``.  Section 5.1's tightened variant
                passes ``⌈√(n / (log n · log* n))⌉``.
            metrics: externally owned recorder to charge (the MST algorithm
                passes its own so all stages share one accountant).

        Raises:
            ValueError: if the graph is empty or disconnected.
        """
        if graph.num_nodes() == 0:
            raise ValueError("cannot partition an empty network")
        if not graph.csr().is_connected():
            raise ValueError("the point-to-point topology must be connected")
        self._graph = graph
        self._n = graph.num_nodes()
        self._target = target_size if target_size is not None else max(
            1, math.isqrt(self._n - 1) + 1 if self._n > 1 else 1
        )
        if self._target < 1:
            raise ValueError("target_size must be at least 1")
        self._metrics = metrics if metrics is not None else MetricsRecorder()

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    @collector_paused
    def run(self) -> DeterministicPartitionResult:
        """Execute the algorithm and return the resulting forest."""
        n = self._n
        log_star_n = max(1, log_star(max(2, n)))
        # all hot state below is indexed by node, which is its CSR slot
        csr = self._graph.csr()
        # Phase 0 state: every node is a depth-0 singleton fragment whose
        # core is itself (-1 encodes "no parent")
        parent_idx: List[int] = [-1] * n
        core_arr: List[int] = list(range(n))
        depths: List[int] = [0] * n
        # Each node scans its incident links in (weight, repr) order across
        # all phases (the GHS discipline): the scan columns hold every
        # node's links in that order over its CSR range, and scan_pos only
        # moves past links rejected forever
        nbr, weight, back = csr.scan_columns()
        dead = bytearray(len(nbr))
        scan_pos = csr.offsets[:-1]
        scan_end = csr.offsets[1:]

        # fragment bookkeeping by core slot, maintained incrementally across
        # phases; members[core] is the ascending member list, or None for a
        # singleton.  `cores` lists the live cores in first-appearance order
        members: List[Optional[List[int]]] = [None] * n
        sizes: List[int] = [1] * n
        radii: List[int] = [0] * n
        cores: Sequence[int] = range(n)
        # slot → F-vertex number, -1 outside F (reset after every phase)
        f_local: List[int] = [-1] * n

        phase_records: List[PhaseRecord] = []
        busy_total = 0
        max_phases = max(1, math.ceil(math.log2(max(2, self._target))) + 1)

        self._metrics.set_phase("partition")
        for phase in range(max_phases):
            if len(cores) <= 1 or min(sizes[core] for core in cores) >= self._target:
                break
            active = [
                core for core in cores if sizes[core].bit_length() - 1 == phase
            ]
            fragments_before = len(cores)
            phase_messages_start = self._metrics.point_to_point_messages
            busy = 0

            # ---------------- Step 1: count fragment sizes ----------------
            # broadcast-and-respond on every fragment
            busy += 2 * max(radii[core] for core in cores)
            self._metrics.record_messages(2 * (n - len(cores)))

            if active:
                # ------------- Step 2: minimum outgoing links -------------
                # substep 1, the "you are active" broadcast, and substep 3,
                # the convergecast of the minimum to the core, frame the
                # GHS testing of substep 2 (nodes test in parallel)
                max_active_radius = max(radii[core] for core in active)
                relays = sum(sizes[core] - 1 for core in active)
                choosers, link_u, link_v, total_tests, max_tests = find_min_outgoing_links(
                    active, members, core_arr,
                    nbr, weight, back, dead, scan_pos, scan_end,
                )
                busy += 2 * max_active_radius + 2 * max_tests
                self._metrics.record_messages(2 * relays + 2 * total_tests)

                # ------------- Steps 3-5: colour F and find the MIS -------
                f_verts, f_parent = fragment_forest(choosers, link_v, core_arr, f_local)
                # the cores are distinct ints: F-vertex x's identifier is its core
                colors, rounds = three_color_columns(f_parent, f_verts)
                f_colors = mis_columns(f_parent, colors)
                coloring_rounds = rounds + MIS_COMMUNICATION_ROUNDS
                # each colouring round is a core-to-core exchange routed over
                # the fragment branches: O(max radius) time, and at most one
                # relay message per node of every fragment involved in F
                involved_nodes = sum(sizes[slot] for slot in f_verts)
                max_involved_radius = max(radii[slot] for slot in f_verts)
                busy += coloring_rounds * (2 * max_involved_radius + 1)
                self._metrics.record_messages(coloring_rounds * involved_nodes)

                # ------------- Step 6: cut F at the MIS and merge ----------
                merge_busy = 0
                for spliced, merged, reroot, radius in splice_groups(
                    f_verts, _cut_at_mis(f_parent, f_colors), link_u, link_v,
                    parent_idx, core_arr, members, sizes, radii, depths,
                ):
                    # one broadcast over the group's spliced fragments
                    # performs the re-rooting; the new-core announcement then
                    # travels to the whole merged fragment
                    self._metrics.record_messages(2 * spliced + merged)
                    merge_busy = max(merge_busy, 2 * reroot + radius + 1)
                busy += merge_busy
                # a merged fragment takes the place of its earliest member
                # fragment, which keeps `cores` in first-appearance order
                cores = list(dict.fromkeys([core_arr[core] for core in cores]))
            else:
                coloring_rounds = 0

            # ---------------- phase synchronization ----------------------
            charged = max(busy, 5 * (2 ** phase) * log_star_n)
            self._metrics.record_round(charged)
            busy_total += busy

            phase_records.append(
                PhaseRecord(
                    phase=phase,
                    active_fragments=len(active),
                    fragments_before=fragments_before,
                    fragments_after=len(cores),
                    busy_rounds=busy,
                    charged_rounds=charged,
                    messages=self._metrics.point_to_point_messages - phase_messages_start,
                    coloring_rounds=coloring_rounds,
                )
            )

        self._metrics.set_phase(None)
        return DeterministicPartitionResult(
            forest=SpanningForest(parent_idx),
            metrics=self._metrics.snapshot(),
            phases=phase_records,
            busy_rounds=busy_total,
            target_size=self._target,
        )


# ----------------------------------------------------------------------
# the GHS kernels, shared with the point-to-point MST baseline
# ----------------------------------------------------------------------
def find_min_outgoing_links(
    cores: Sequence[int],
    members: List[Optional[List[int]]],
    core_arr: List[int],
    nbr: array,
    weight: array,
    back: array,
    dead: bytearray,
    scan_pos: array,
    scan_end: array,
) -> Tuple[List[int], List[int], List[int], int, int]:
    """Return the minimum-weight outgoing link of every fragment in ``cores``.

    Returns ``(choosers, link_u, link_v, total_tests, max_tests)``: the cores
    that found an outgoing link, in ``cores`` order, with the link's inside
    endpoint ``u`` and outside endpoint ``v`` (slots) in the parallel
    columns, then the number of link tests made and the most made by one
    node.  Per the GHS discipline, every member (``members[core]``, or the
    core alone for a singleton) scans its links in the order of
    :meth:`~repro.topology.graph.CSRView.scan_columns` from ``scan_pos``,
    testing each link not yet ``dead``: an internal link is rejected
    forever, flipping the dead flag on *both* endpoints' entries (via
    ``back``) so the partner never re-tests it, and the first outgoing link
    found is the node's candidate, re-tested in later phases.  A test is
    two messages; the caller charges them.
    """
    choosers: List[int] = []
    link_u: List[int] = []
    link_v: List[int] = []
    max_tests = 0
    total_tests = 0
    for core in cores:
        best_w: Optional[float] = None
        best_u = best_v = -1
        for node in members[core] or (core,):
            tests = 0
            limit = scan_end[node]
            index = scan_pos[node]
            while index < limit:
                if dead[index]:
                    index += 1
                    continue
                tests += 1  # test + accept/reject: 2 messages
                neighbor = nbr[index]
                if core_arr[neighbor] == core:
                    dead[index] = 1
                    dead[back[index]] = 1
                    index += 1
                    continue
                link_weight = weight[index]
                # distinct weights decide almost always; the node tie-break
                # preserves the historical (weight, u, v) tuple comparison on
                # graphs with repeated weights
                if (
                    best_w is None
                    or link_weight < best_w
                    or (link_weight == best_w and (node, neighbor) < (best_u, best_v))
                ):
                    best_w, best_u, best_v = link_weight, node, neighbor
                break
            scan_pos[node] = index
            total_tests += tests
            if tests > max_tests:
                max_tests = tests
        if best_w is not None:
            choosers.append(core)
            link_u.append(best_u)
            link_v.append(best_v)
    return choosers, link_u, link_v, total_tests, max_tests


def splice_groups(
    f_verts: List[int],
    f_parent: List[int],
    link_u: List[int],
    link_v: List[int],
    parent_idx: List[int],
    core_arr: List[int],
    members: List[Optional[List[int]]],
    sizes: List[int],
    radii: List[int],
    depths: List[int],
) -> Iterator[Tuple[int, int, int, int]]:
    """Merge the fragments of every tree of the fragment forest into one.

    F-vertex ``x`` is core slot ``f_verts[x]`` and its F-parent is
    ``f_parent[x]`` (``-1`` at a root); a vertex with a parent was joined to
    it over the physical link ``(link_u[x], link_v[x])``.  Every tree with
    more than one vertex becomes one fragment whose core is the root
    vertex's core: each other fragment is re-rooted at its link's inside
    endpoint and hung off the outside endpoint (the distributed "merge
    broadcast"), every member of those fragments takes the new core, and
    their depths are back-filled; the root vertex's fragment keeps its core,
    parents and depths.  ``parent_idx``, ``core_arr`` and
    ``depths`` (per node) and ``members``/``sizes``/``radii`` (per core) are
    updated in place for exactly the fragments a merge touches.

    Yields ``(spliced, merged, reroot_radius, new_radius)`` once per merged
    tree, after merging it: the nodes of its re-rooted fragments, the nodes
    of the merged fragment, the largest re-rooted radius and the new
    radius.  The merges happen as the generator is consumed, so a caller
    must exhaust it; nothing is kept per tree.
    """
    # group the fragments by the root of their tree (one sort, no list per
    # group kept alive: the merges are independent of each other, so any
    # group order gives one result)
    k = len(f_verts)
    group_of: List[int] = [-1] * k
    for vertex in range(k):
        find_root_indexed(f_parent, group_of, vertex)

    by_group = sorted(range(k), key=group_of.__getitem__)
    for group_root, run in groupby(by_group, key=group_of.__getitem__):
        group_vertices = list(run)
        if len(group_vertices) == 1:
            continue
        root_slot = f_verts[group_root]
        reroot_radius = 0
        moved: List[int] = []
        for vertex in group_vertices:
            if vertex == group_root:
                continue
            slot = f_verts[vertex]
            old_members = members[slot]
            if old_members is None:
                moved.append(slot)
            else:
                moved.extend(old_members)
                members[slot] = None
            u = link_u[vertex]
            _reroot_indexed(parent_idx, u)
            parent_idx[u] = link_v[vertex]
            if radii[slot] > reroot_radius:
                reroot_radius = radii[slot]
        # the root's fragment keeps its core, its parents and so its depths:
        # relabel and re-walk just the spliced fragments' nodes.  Mark each
        # unknown, then chase each unknown node's parent chain to the
        # nearest known depth and back-fill — each node is walked once, with
        # no children index to build (the order does not matter)
        for node in moved:
            core_arr[node] = root_slot
            depths[node] = -1
        new_radius = radii[root_slot]
        for node in moved:
            if depths[node] >= 0:
                continue
            chain: List[int] = []
            current = node
            while depths[current] < 0:
                chain.append(current)
                current = parent_idx[current]
            depth = depths[current]
            for link in reversed(chain):
                depth += 1
                depths[link] = depth
            if depth > new_radius:
                new_radius = depth
        # keep the member list in ascending slot order.  It is load-bearing:
        # a link rejection marks BOTH endpoints' scan entries dead, so
        # whichever member scans first pays the test, and the per-node test
        # counts feed the rounds accounting
        new_members = members[root_slot]
        if new_members is None:
            new_members = [root_slot]
        new_members.extend(moved)
        new_members.sort()
        members[root_slot] = new_members
        sizes[root_slot] = len(new_members)
        radii[root_slot] = new_radius
        yield len(moved), len(new_members), reroot_radius, new_radius


def fragment_forest(
    choosers: List[int],
    link_v: List[int],
    core_arr: List[int],
    f_local: List[int],
) -> Tuple[List[int], List[int]]:
    """Return F as ``(f_verts, f_parent)`` columns.

    F-vertex ``x`` is core slot ``f_verts[x]``: the choosing cores first
    (``x`` is also the chooser's position in ``choosers``/``link_v``), then
    the inactive cores they chose, in first-seen order.  Every choosing
    fragment has one outgoing F-edge, to the fragment on the far side of its
    chosen link; the single cycle that can arise when two fragments choose
    the same link is broken at the fragment whose core has the larger
    ``repr`` (for ints ``repr`` order is not numeric order), exactly as in
    the paper.  ``f_local`` is the caller's slot → F-vertex scratch column
    (all ``-1``), restored before returning.
    """
    f_verts = list(choosers)
    for vertex, core in enumerate(choosers):
        f_local[core] = vertex
    f_parent: List[int] = []
    for v in link_v:
        target = core_arr[v]
        up = f_local[target]
        if up < 0:
            up = f_local[target] = len(f_verts)
            f_verts.append(target)
        f_parent.append(up)
    f_parent.extend([-1] * (len(f_verts) - len(choosers)))
    for core in f_verts:
        f_local[core] = -1

    # break 2-cycles (both fragments chose the same connecting link); on a
    # repr tie the first in active order is dropped, as max(key=repr) does
    for vertex in range(len(choosers)):
        up = f_parent[vertex]
        if up >= 0 and f_parent[up] == vertex:
            if repr(f_verts[up]) > repr(f_verts[vertex]):
                f_parent[up] = -1
            else:
                f_parent[vertex] = -1
    return f_verts, f_parent


def _cut_at_mis(f_parent: List[int], f_colors: List[int]) -> List[int]:
    """Return F's parent column cut above every red vertex that has children.

    Step 6 of the paper: the MIS contains every root of F, so cutting at its
    internal vertices leaves trees of constant diameter in F.
    """
    cut = list(f_parent)
    has_children = bytearray(len(f_parent))
    for up in f_parent:
        if up >= 0:
            has_children[up] = 1
    for vertex, color in enumerate(f_colors):
        if color == RED and has_children[vertex]:
            cut[vertex] = -1
    return cut


def _reroot_indexed(parent_idx: List[int], new_root: int) -> None:
    """Re-root a tree at ``new_root`` in the flat parent-index array.

    Only the parent pointers along the path from ``new_root`` to the old
    root are reversed (``-1`` encodes "no parent").
    """
    path = [new_root]
    current = parent_idx[new_root]
    while current >= 0:
        path.append(current)
        current = parent_idx[current]
    for index in range(len(path) - 1, 0, -1):
        parent_idx[path[index]] = path[index - 1]
    parent_idx[new_root] = -1
