"""Undirected weighted graph used as the point-to-point topology.

The paper's point-to-point network is one fixed graph: every algorithm reads
it and none changes it.  :class:`WeightedGraph` is therefore immutable — a
thin wrapper over exactly one compressed-sparse-row :class:`CSRView`
(stdlib ``array('q')`` offsets/targets plus a parallel weight column).  The
view keeps the edge stream it was built from and fills its rows from it by
one counting-sort pass the first time a row is read, so a graph that is
only reweighted or rewired (each reads the stream, never a row) is never
filled.  A node *is* its slot: the nodes of an ``n``-node graph are the ints
``0..n-1`` — the distinct O(log n)-bit identifiers the paper's model gives
its processors — so no consumer translates between labels and slots.  Edges
are undirected and carry a weight, and row order is the edge-stream order,
so iteration is deterministic.  Determinism matters because the paper's
algorithms break ties by node identifier and because every experiment must
be reproducible from a seed.

Graphs are built by the generators (slot edge columns through
:meth:`WeightedGraph._from_csr_edges`, or ``(u, v)`` pairs through
:meth:`WeightedGraph.from_edges`) or from caller edges
(:meth:`WeightedGraph.from_edges`, which checks them).  A derived graph — a
reweighting, a rewiring — edits the edge columns and builds a new graph.
Point queries (:meth:`~WeightedGraph.weight`, …) read the node's CSR row;
hot loops walk the columns directly.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import gt, le, lt
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


def edge_key(u: int, v: int) -> Tuple[int, int]:
    """Return the canonical (sorted) key for the undirected edge ``{u, v}``."""
    return (u, v) if u < v else (v, u)


class Edge(NamedTuple):
    """An undirected weighted edge.

    A named tuple rather than a (frozen) dataclass: edge lists are rebuilt
    wholesale by the graph accessors, and tuple construction is several
    times cheaper than frozen-dataclass construction.

    Attributes:
        u: one endpoint.
        v: the other endpoint.
        weight: the link weight.  The paper assumes distinct weights for the
            MST-related algorithms; :mod:`repro.topology.weights` provides
            helpers to enforce that.
    """

    u: int
    v: int
    weight: float = 1.0

    def key(self) -> Tuple[int, int]:
        """Return the canonical undirected key of this edge."""
        return edge_key(self.u, self.v)


class CSRView:
    """The compressed-sparse-row columns of a :class:`WeightedGraph`.

    The columnar layout the graph is made of and the hot loops walk:
    ``offsets`` is an ``array('q')`` of length ``n + 1``, ``targets``
    holds the ``2m`` neighbour slots row by row, and ``weights`` is the
    parallel ``array('d')`` weight column.  Slot ``i`` is node ``i``.

    The view holds the edge stream it was built from (slot columns
    ``edge_u``/``edge_v`` and a weight column, ``None`` for unit weights)
    and fills the three row columns from it on their first read
    (:meth:`__getattr__`); after that they are plain slots and cost nothing
    extra.  Consumers that read only the stream — :meth:`canonical_edges`,
    :meth:`canonical_endpoints`, :attr:`num_edges` — never trigger the fill.

    Row order is edge-stream order: node ``i``'s row lists its neighbours in
    the order the edges at ``i`` appeared in the stream the graph was built
    from, and :meth:`WeightedGraph.neighbors` yields exactly that row.  The
    view is never modified after construction, so every derived column
    (:meth:`canonical_edges`, :meth:`is_connected`) is cached on it.
    """

    __slots__ = (
        "n",
        "offsets",
        "targets",
        "weights",
        "_edge_u",
        "_edge_v",
        "_edge_w",
        "_canonical",
        "_endpoints",
        "_connected",
    )

    def __init__(
        self,
        n: int,
        edge_u: array,
        edge_v: array,
        edge_w: Optional[array],
    ) -> None:
        """Bind the edge stream; built by the graph, not by callers."""
        self.n = n
        self._edge_u = edge_u
        self._edge_v = edge_v
        self._edge_w = edge_w
        self._canonical: Optional[Tuple[array, array, array]] = None
        self._endpoints: Optional[Tuple[array, array]] = None
        self._connected: Optional[bool] = None

    def __getattr__(self, name: str) -> array:
        """Fill the row columns on the first read of any of them.

        Python calls this only for a slot that is still unset, so once the
        fill has bound ``offsets``, ``targets`` and ``weights`` their reads
        never come here again.
        """
        if name not in ("offsets", "targets", "weights"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._fill()
        return object.__getattribute__(self, name)

    def _fill(self) -> None:
        """Build the rows from the edge stream by one counting-sort pass.

        Each edge is placed at its endpoints' cursors in stream order, so
        node ``i``'s row lists its edges in the order they appear in the
        stream.
        """
        n = self.n
        edge_u = self._edge_u
        edge_v = self._edge_v
        edge_weights = self._edge_w
        m = len(edge_u)
        degree = array("q", bytes(8 * n)) if n else array("q")
        for u in edge_u:
            degree[u] += 1
        for v in edge_v:
            degree[v] += 1
        offsets = array("q", bytes(8 * (n + 1)))
        run = 0
        for i in range(n):
            run += degree[i]
            offsets[i + 1] = run
        cursor = offsets[:n]
        targets = array("q", bytes(16 * m))
        if edge_weights is None:
            weights = array("d", [1.0]) * (2 * m)
            for j in range(m):
                u = edge_u[j]
                v = edge_v[j]
                cu = cursor[u]
                targets[cu] = v
                cursor[u] = cu + 1
                cv = cursor[v]
                targets[cv] = u
                cursor[v] = cv + 1
        else:
            weights = array("d", bytes(16 * m))
            for j in range(m):
                u = edge_u[j]
                v = edge_v[j]
                w = edge_weights[j]
                cu = cursor[u]
                targets[cu] = v
                weights[cu] = w
                cursor[u] = cu + 1
                cv = cursor[v]
                targets[cv] = u
                weights[cv] = w
                cursor[v] = cv + 1
        self.offsets = offsets
        self.targets = targets
        self.weights = weights

    @property
    def num_edges(self) -> int:
        """Return ``m``, the number of undirected edges."""
        return len(self._edge_u)

    def slot(self, node: object) -> int:
        """Return ``node``'s slot, which is ``node`` itself.

        Raises:
            KeyError: if ``node`` is not a node of the graph — anything but
                an int in ``0..n-1``.
        """
        if type(node) is int and 0 <= node < self.n:
            return node
        raise KeyError(node)

    def bfs(self, source: int) -> Tuple[List[int], List[int], List[int]]:
        """Breadth-first search from ``source``: the one graph BFS of the library.

        Returns ``(distance, parent, order)``: the hop distance and BFS-tree
        parent of every slot (``-1`` where unreached; ``source``'s parent is
        ``-1`` too), and the reached slots in visit order — level by level,
        FIFO within a level, neighbours in row order, which is the order of
        a node-at-a-time queue.  The eccentricity of ``source`` within its
        component is ``distance[order[-1]]``.

        Raises:
            KeyError: if ``source`` is not a node of the graph.
        """
        offsets = self.offsets
        targets = self.targets
        distance = [-1] * self.n
        parent = [-1] * self.n
        distance[self.slot(source)] = 0
        order = [source]
        visit = order.append
        # the list is the FIFO queue: iteration reaches the slots appended
        # while it runs
        for slot in order:
            depth = distance[slot] + 1
            for target in targets[offsets[slot]:offsets[slot + 1]]:
                if distance[target] < 0:
                    distance[target] = depth
                    parent[target] = slot
                    visit(target)
        return distance, parent, order

    def is_connected(self) -> bool:
        """Return ``True`` when the graph is connected (the empty graph counts).

        One sweep from slot 0 over a ``bytearray`` of seen flags and an
        ``array('q')`` queue — about 9 bytes per node, where :meth:`bfs`
        would build three n-entry lists only to count the reached slots.
        Computed once per view and cached, so every consumer of the graph
        (the partitioners, the MST stages, each simulation run) shares it.
        """
        if self._connected is None:
            n = self.n
            if n == 0:
                self._connected = True
            else:
                offsets = self.offsets
                targets = self.targets
                seen = bytearray(n)
                seen[0] = 1
                queue = array("q", [0])
                visit = queue.append
                # the array is the FIFO queue: iteration reaches the slots
                # appended while it runs
                for slot in queue:
                    for target in targets[offsets[slot]:offsets[slot + 1]]:
                        if not seen[target]:
                            seen[target] = 1
                            visit(target)
                self._connected = len(queue) == n
        return self._connected

    def canonical_edges(self) -> Tuple[array, array, array]:
        """Return ``(edge_u, edge_v, edge_w)`` columns in canonical edge order.

        One entry per undirected edge, endpoints as slot indices with
        ``edge_u[j] < edge_v[j]``, in exactly the order
        :meth:`WeightedGraph.edges` enumerates (by first endpoint's slot,
        then row order).  Row order is stream order, so this is the edge
        stream, each edge written low endpoint first, stably sorted on its
        low endpoint; no row is read.  A *canonical* stream — ``edge_u``
        nondecreasing and ``edge_u[j] < edge_v[j]`` — already is that order
        and is returned as it is (unit weights become an all-``1.0``
        column).  The columns are computed once per view and cached, so
        repeated consumers (:meth:`WeightedGraph.edges`, the partition scan
        builders) share the arrays and must not modify them.
        """
        if self._canonical is None:
            edge_u, edge_v, edge_w = self._sorted_stream(self._edge_w)
            if edge_w is None:
                edge_w = array("d", [1.0]) * len(edge_u)
            self._canonical = (edge_u, edge_v, edge_w)
            self._endpoints = (edge_u, edge_v)
        return self._canonical

    def canonical_endpoints(self) -> Tuple[array, array]:
        """Return ``(edge_u, edge_v)``: :meth:`canonical_edges` without weights.

        For a consumer that replaces the weights (weight assignment): the
        stream's weight column is not permuted, nor a unit column built.
        Cached, and shared with :meth:`canonical_edges` once that has run;
        a later :meth:`canonical_edges` call sorts the stream again for its
        weights.
        """
        if self._endpoints is None:
            edge_u, edge_v, _ = self._sorted_stream(None)
            self._endpoints = (edge_u, edge_v)
        return self._endpoints

    def _sorted_stream(
        self, edge_w: Optional[array]
    ) -> Tuple[array, array, Optional[array]]:
        """The edge stream in canonical order, ``edge_w`` permuted along."""
        edge_u = self._edge_u
        edge_v = self._edge_v
        ordered = all(map(lt, edge_u, edge_v))
        if not (ordered and all(map(le, edge_u, islice(edge_u, 1, None)))):
            if ordered:
                low, high = list(edge_u), edge_v
            elif all(map(gt, edge_u, edge_v)):
                low, high = list(edge_v), edge_u
            else:
                low = [u if u < v else v for u, v in zip(edge_u, edge_v)]
                high = [v if u < v else u for u, v in zip(edge_u, edge_v)]
            # a stable sort keeps each node's edges in stream order
            order = sorted(range(len(low)), key=low.__getitem__)
            edge_u = array("q", [low[j] for j in order])
            edge_v = array("q", [high[j] for j in order])
            if edge_w is not None:
                edge_w = array("d", [edge_w[j] for j in order])
        return edge_u, edge_v, edge_w

    def has_distinct_weights(self) -> bool:
        """Return ``True`` when no two edges share a weight.

        The paper's MST-related algorithms assume distinct weights; read off
        the :meth:`canonical_edges` weight column, so no row is filled.
        """
        edge_w = self.canonical_edges()[2]
        return len(set(edge_w)) == len(edge_w)

    def reverse_positions(self) -> array:
        """Return ``back``: ``back[p]`` is row entry ``p``'s position in its neighbour's row.

        The two entries of a link point at each other, so a consumer that
        flags links per row entry (the randomized partitioner's alive
        flags) flips both with one lookup.  Built by replaying the edge
        stream with the fill's cursors, fresh per call: the caller owns the
        array.
        """
        offsets = self.offsets
        back = array("q", bytes(8 * len(self.targets)))
        cursor = offsets[:-1]
        for u, v in zip(self._edge_u, self._edge_v):
            at_u = cursor[u]
            at_v = cursor[v]
            cursor[u] = at_u + 1
            cursor[v] = at_v + 1
            back[at_u] = at_v
            back[at_v] = at_u
        return back

    def scan_columns(self) -> Tuple[array, array, array]:
        """Return the GHS scan columns ``(nbr, weight, back)`` over CSR ranges.

        Node ``i``'s links fill positions ``offsets[i]..offsets[i + 1]`` in
        increasing ``(weight, repr(neighbour))`` order, the order in which
        Gallager–Humblet–Spira nodes test their links; ``nbr[p]`` is the
        neighbour slot, ``weight[p]`` the link weight and ``back[p]`` the
        position of the same link in the neighbour's range.  Every GHS-style
        scan (the deterministic partitioner and the point-to-point MST
        baseline, through one shared kernel) reads this one order.  Built
        fresh per call: the caller owns the arrays.
        """
        offsets = self.offsets
        size = len(self.targets)
        nbr = array("q", bytes(8 * size))
        weight = array("d", bytes(8 * size))
        back = array("q", bytes(8 * size))
        edge_u, edge_v, edge_w = self.canonical_edges()
        if self.has_distinct_weights():
            # distinct weights (the standard assumption): one stable argsort
            # of the canonical weight column fills every node's range in
            # weight order, and both reverse positions are known at fill time
            cursor = offsets[:-1]
            for j in sorted(range(len(edge_w)), key=edge_w.__getitem__):
                u = edge_u[j]
                v = edge_v[j]
                at_u = cursor[u]
                at_v = cursor[v]
                cursor[u] = at_u + 1
                cursor[v] = at_v + 1
                nbr[at_u] = v
                nbr[at_v] = u
                weight[at_u] = weight[at_v] = edge_w[j]
                back[at_u] = at_v
                back[at_v] = at_u
            return nbr, weight, back
        # repeated weights: a stable per-node (weight, repr) sort of each CSR
        # row, then pair the two entries of every link for the reverse
        # positions
        targets = self.targets
        row_weights = self.weights
        reprs = list(map(repr, range(self.n)))
        first_seen: Dict[Tuple[int, int], int] = {}
        for i in range(self.n):
            start = offsets[i]
            row = sorted(
                range(start, offsets[i + 1]),
                key=lambda k: (row_weights[k], reprs[targets[k]]),
            )
            for position, k in enumerate(row, start):
                j = targets[k]
                nbr[position] = j
                weight[position] = row_weights[k]
                key = (i, j) if i < j else (j, i)
                partner = first_seen.pop(key, -1)
                if partner < 0:
                    first_seen[key] = position
                else:
                    back[position] = partner
                    back[partner] = position
        return nbr, weight, back


def _column(typecode: str, values: Sequence) -> array:
    """Return ``values`` as an ``array(typecode)``, shared when it already is one."""
    if type(values) is array and values.typecode == typecode:
        return values
    return array(typecode, values)


class WeightedGraph:
    """An immutable undirected weighted graph with deterministic iteration order.

    One :class:`CSRView` holds the whole graph; the class adds the node and
    edge queries the distributed algorithms, the simulator and the tests
    need.  ``WeightedGraph()`` is the empty graph.
    """

    def __init__(self) -> None:
        """Create the empty graph (:meth:`from_edges` builds a populated one)."""
        self._bind(CSRView(0, array("q"), array("q"), None))

    def _bind(self, csr: CSRView) -> None:
        self._csr = csr
        self._edges: Optional[List[Edge]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _from_csr_edges(
        cls,
        n: int,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        edge_weights: Optional[Sequence[float]] = None,
    ) -> "WeightedGraph":
        """Build the graph on nodes ``0..n-1`` from an edge stream of slot columns.

        ``edge_u``/``edge_v`` give one entry per undirected edge;
        ``edge_weights`` is the parallel weight column (``None`` ⇒ unit
        weights).  The stream must not contain a self loop or repeat an
        edge; the generators guarantee that, and :meth:`from_edges` checks
        it for caller input.

        The graph keeps the stream: its rows are filled from it on first
        read (:meth:`CSRView._fill`), in stream order.
        Columns that are already ``array('q')``/``array('d')`` are shared,
        not copied, so the caller must not modify them after the build.
        """
        edge_u = _column("q", edge_u)
        edge_v = _column("q", edge_v)
        edge_w = None if edge_weights is None else _column("d", edge_weights)
        graph = cls.__new__(cls)
        graph._bind(CSRView(n, edge_u, edge_v, edge_w))
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence],
        n: Optional[int] = None,
    ) -> "WeightedGraph":
        """Build the graph on nodes ``0..n-1`` from ``(u, v)`` or ``(u, v, weight)`` edges.

        ``n`` defaults to one more than the largest endpoint; a larger ``n``
        adds isolated nodes.  Each row lists its edges in stream order, and
        an edge without a weight has weight ``1.0``.

        Raises:
            ValueError: on an endpoint that is not an int in ``0..n-1``, a
                self loop, or an edge given twice (in either orientation).
        """
        edge_u = array("q")
        edge_v = array("q")
        edge_w = array("d")
        seen = set()
        top = -1
        for u, v, *weight in edges:
            for node in (u, v):
                if type(node) is not int or node < 0:
                    raise ValueError(f"node {node!r} is not a non-negative int")
            if u == v:
                raise ValueError(f"self loops are not allowed (node {u})")
            pair = edge_key(u, v)
            if pair in seen:
                raise ValueError(f"edge ({u}, {v}) is given twice")
            seen.add(pair)
            if pair[1] > top:
                top = pair[1]
            edge_u.append(u)
            edge_v.append(v)
            edge_w.append(weight[0] if weight else 1.0)
        if n is None:
            n = top + 1
        elif top >= n:
            raise ValueError(f"node {top} is out of range for n = {n}")
        return cls._from_csr_edges(n, edge_u, edge_v, edge_w)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def csr(self) -> CSRView:
        """Return the graph's CSR columns (shared, never modified)."""
        return self._csr

    def has_node(self, node: object) -> bool:
        """Return ``True`` when ``node`` is in the graph (an int in ``0..n-1``)."""
        try:
            self._csr.slot(node)
        except KeyError:
            return False
        return True

    def _edge_position(self, u: int, v: int) -> int:
        """Return the position of ``v`` in ``u``'s row (or the reverse), else -1.

        Scans the shorter of the two endpoint rows.
        """
        csr = self._csr
        if not (self.has_node(u) and self.has_node(v)):
            return -1
        offsets = csr.offsets
        if offsets[u + 1] - offsets[u] > offsets[v + 1] - offsets[v]:
            u, v = v, u
        try:
            return csr.targets.index(v, offsets[u], offsets[u + 1])
        except ValueError:
            return -1

    def has_edge(self, u: int, v: int) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        return self._edge_position(u, v) >= 0

    def weight(self, u: int, v: int) -> float:
        """Return the weight of the edge ``{u, v}``.

        Raises:
            KeyError: if the edge does not exist.
        """
        position = self._edge_position(u, v)
        if position < 0:
            raise KeyError(f"no edge between {u!r} and {v!r}")
        return self._csr.weights[position]

    def nodes(self) -> List[int]:
        """Return all nodes, ``0..n-1``."""
        return list(range(self._csr.n))

    def edges(self) -> List[Edge]:
        """Return every undirected edge exactly once.

        Edges are listed in :meth:`CSRView.canonical_edges` order: by the
        first endpoint, then by row order.  The list is built once and
        copied per call, so callers may mutate it.
        """
        if self._edges is None:
            edge_u, edge_v, edge_w = self._csr.canonical_edges()
            self._edges = list(map(Edge, edge_u, edge_v, edge_w))
        return list(self._edges)

    def num_nodes(self) -> int:
        """Return ``n``, the number of nodes."""
        return self._csr.n

    def num_edges(self) -> int:
        """Return ``m``, the number of undirected edges."""
        return self._csr.num_edges

    def __contains__(self, node: object) -> bool:
        """Return ``True`` when ``node`` is a node of the graph."""
        return self.has_node(node)

    def __len__(self) -> int:
        """Return the number of nodes."""
        return self._csr.n

    def __iter__(self) -> Iterator[int]:
        """Iterate over the nodes ``0..n-1``."""
        return iter(range(self._csr.n))

    def __repr__(self) -> str:
        """Return a compact ``n``/``m`` summary for debugging."""
        return f"WeightedGraph(n={self.num_nodes()}, m={self.num_edges()})"
