"""Undirected weighted graph used as the point-to-point topology.

The paper's point-to-point network is one fixed graph: every algorithm reads
it and none changes it.  :class:`WeightedGraph` is therefore immutable — a
thin wrapper over exactly one compressed-sparse-row :class:`CSRView`
(stdlib ``array('q')`` offsets/targets plus a parallel weight column).  The
view keeps the edge stream it was built from and fills its rows from it by
one counting-sort pass the first time a row is read, so a graph that is
only reweighted, relabelled or rewired (each reads the stream, never a row)
is never filled.  Node identifiers are arbitrary hashable values (the
generators use ``0..n-1``), edges are undirected and carry a weight, and
row order is the edge-stream order, so iteration is deterministic.
Determinism matters because the paper's algorithms break ties by node
identifier and because every experiment must be reproducible from a seed.

Graphs are built by the generators (slot edge columns through
:meth:`WeightedGraph._from_csr_edges`) or from labelled ``(u, v[, w])``
edges (:meth:`WeightedGraph.from_edges`).  A derived graph — a reweighting,
a relabelling, a rewiring — edits the edge columns and builds a new graph.
Point queries (:meth:`~WeightedGraph.neighbors`,
:meth:`~WeightedGraph.weight`, …) read the node's CSR row; hot loops walk
the columns directly.
"""

from __future__ import annotations

import numbers
from array import array
from itertools import islice
from operator import gt, le, lt
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

NodeId = Hashable


def edge_key(u: NodeId, v: NodeId) -> Tuple[NodeId, NodeId]:
    """Return the canonical (sorted) key for the undirected edge ``{u, v}``.

    Endpoints are ordered by direct comparison when the values are mutually
    comparable (the common case: integer node identifiers), which is both
    fast and correct for distinct values.  Incomparable endpoints (mixed
    types) fall back to ordering by ``(type name, repr)``.  The old
    repr-only ordering was a hot spot *and* wrong for distinct nodes whose
    reprs collide: ``edge_key(u, v)`` and ``edge_key(v, u)`` disagreed, so
    the same physical link could appear under two keys.
    """
    try:
        if u < v:  # type: ignore[operator]
            return (u, v)
        if v < u:  # type: ignore[operator]
            return (v, u)
    except TypeError:
        pass
    if u == v:
        return (u, v)
    # incomparable types, or a partial order where neither side is smaller
    # (e.g. disjoint frozensets): order by (type name, repr) instead
    if (type(u).__name__, repr(u)) <= (type(v).__name__, repr(v)):
        return (u, v)
    return (v, u)


def is_identity_enumeration(nodes: Sequence[NodeId]) -> bool:
    """True when ``nodes`` is exactly the int sequence ``0, 1, …, n-1``.

    Every standard generator numbers its nodes this way, which lets
    array-indexed hot loops (the partitioners) skip the node→index
    translation outright.  The type check matters: ``2.0 == 2`` compares
    equal to its position yet is no use as a list index.
    """
    return all(type(node) is int and node == i for i, node in enumerate(nodes))


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

    u: NodeId
    v: NodeId
    weight: float = 1.0

    def endpoints(self) -> Tuple[NodeId, NodeId]:
        """Return both endpoints as a tuple."""
        return (self.u, self.v)

    def other(self, node: NodeId) -> NodeId:
        """Return the endpoint different from ``node``.

        Raises:
            ValueError: if ``node`` is not an endpoint of this edge.
        """
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def key(self) -> Tuple[NodeId, NodeId]:
        """Return the canonical undirected key of this edge."""
        return edge_key(self.u, self.v)


class CSRView:
    """The compressed-sparse-row columns of a :class:`WeightedGraph`.

    The columnar layout the graph is made of and the hot loops walk:
    ``offsets`` is an ``array('q')`` of length ``n + 1``, ``targets``
    holds the ``2m`` neighbour *slot indices* row by row, and ``weights`` is
    the parallel ``array('d')`` weight column.  Slot ``i`` is node
    ``nodes[i]`` — the graph's node enumeration, so slot space is exactly
    the index space the partitioners already use.  On identity-labelled
    graphs (:func:`is_identity_enumeration`) ``nodes`` is a ``range`` and
    ``index_of`` is ``None``: labels *are* slots and no translation dict is
    ever built; arbitrary hashable labels get a ``tuple`` plus a label→slot
    dict.

    The view holds the edge stream it was built from (slot columns
    ``edge_u``/``edge_v`` and a weight column, ``None`` for unit weights)
    and fills the three row columns from it on their first read
    (:meth:`__getattr__`); after that they are plain slots and cost nothing
    extra.  Consumers that read only the stream — :meth:`canonical_edges`,
    :attr:`num_edges` — never trigger the fill.

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
        "nodes",
        "index_of",
        "identity",
        "_edge_u",
        "_edge_v",
        "_edge_w",
        "_canonical",
        "_connected",
    )

    def __init__(
        self,
        n: int,
        edge_u: array,
        edge_v: array,
        edge_w: Optional[array],
        nodes: Sequence[NodeId],
        index_of: Optional[Dict[NodeId, int]],
        identity: bool,
    ) -> None:
        """Bind the edge stream; built by the graph, not by callers."""
        self.n = n
        self._edge_u = edge_u
        self._edge_v = edge_v
        self._edge_w = edge_w
        self.nodes = nodes
        self.index_of = index_of
        self.identity = identity
        self._canonical: Optional[Tuple[array, array, array]] = None
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

    def slot(self, node: NodeId) -> int:
        """Return the slot index of ``node``.

        Raises:
            KeyError: if ``node`` is not a node of the graph.
            TypeError: if ``node`` is unhashable.
        """
        index_of = self.index_of
        if index_of is not None:
            return index_of[node]
        # identity enumeration: the node set is exactly the ints 0..n-1.
        # Keep dict-lookup ==/hash semantics without delegating to
        # range.__contains__, whose equality fallback is an O(n) scan for
        # anything but exact ints
        hash(node)
        if isinstance(node, int):  # bools and int subclasses included
            if 0 <= node < self.n:
                return int(node)
        elif isinstance(node, float):
            if node.is_integer() and 0 <= node < self.n:
                return int(node)
        elif isinstance(node, numbers.Number) and node in self.nodes:
            # exotic numeric aliases (Decimal, Fraction, complex, …): rare
            # enough that range's linear scan is acceptable
            return self.nodes.index(node)
        raise KeyError(node)

    def is_connected(self) -> bool:
        """Return ``True`` when the graph is connected (the empty graph counts).

        One frontier sweep over the rows from slot 0, computed once per view
        and cached, so every consumer of the graph (the partitioners, the MST
        stages, each simulation run) shares it.
        """
        if self._connected is None:
            offsets = self.offsets
            targets = self.targets
            seen = bytearray(self.n)
            frontier = []
            if self.n:
                seen[0] = 1
                frontier.append(0)
            reached = len(frontier)
            while frontier:
                next_frontier: List[int] = []
                for slot in frontier:
                    for target in targets[offsets[slot]:offsets[slot + 1]]:
                        if not seen[target]:
                            seen[target] = 1
                            next_frontier.append(target)
                reached += len(next_frontier)
                frontier = next_frontier
            self._connected = reached == self.n
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
        repeated consumers (weight assignment, the partition scan builders)
        share the arrays and must not modify them.
        """
        if self._canonical is None:
            edge_u = self._edge_u
            edge_v = self._edge_v
            edge_w = self._edge_w
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
            if edge_w is None:
                edge_w = array("d", [1.0]) * len(edge_u)
            self._canonical = (edge_u, edge_v, edge_w)
        return self._canonical

    def has_distinct_weights(self) -> bool:
        """Return ``True`` when no two edges share a weight.

        The paper's MST-related algorithms assume distinct weights; read off
        the :meth:`canonical_edges` weight column, so no row is filled.
        """
        edge_w = self.canonical_edges()[2]
        return len(set(edge_w)) == len(edge_w)

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
        reprs = [repr(node) for node in self.nodes]
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
        self._bind(CSRView(0, array("q"), array("q"), None, range(0), None, True))

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
        nodes: Optional[Sequence[NodeId]] = None,
        index_of: Optional[Dict[NodeId, int]] = None,
    ) -> "WeightedGraph":
        """Build a graph from an edge stream given as slot columns.

        ``edge_u``/``edge_v`` give one entry per undirected edge as slot
        indices; ``edge_weights`` is the parallel weight column (``None`` ⇒
        unit weights).  ``nodes`` maps slots to labels (``None`` ⇒ the
        identity enumeration ``0..n-1``).  The stream must not contain a
        self loop or repeat an edge; the generators guarantee that, and
        :meth:`from_edges` checks it for caller input.

        The graph keeps the stream: its rows are filled from it on first
        read (:meth:`CSRView._fill`), in stream order.
        Columns that are already ``array('q')``/``array('d')`` are shared,
        not copied, so the caller must not modify them after the build.
        """
        edge_u = _column("q", edge_u)
        edge_v = _column("q", edge_v)
        edge_w = None if edge_weights is None else _column("d", edge_weights)
        if nodes is None:
            view = CSRView(n, edge_u, edge_v, edge_w, range(n), None, True)
        else:
            if index_of is None:
                index_of = {node: i for i, node in enumerate(nodes)}
            view = CSRView(n, edge_u, edge_v, edge_w, nodes, index_of, False)
        graph = cls.__new__(cls)
        graph._bind(view)
        return graph

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence],
        nodes: Iterable[NodeId] = (),
    ) -> "WeightedGraph":
        """Build a graph from labelled ``(u, v)`` or ``(u, v, weight)`` edges.

        Node order is ``nodes`` first, then every other endpoint in order of
        first appearance in ``edges``; each row lists its edges in stream
        order.  An edge without a weight has weight ``1.0``.  Labels that are
        exactly ``0..n-1`` in order make an identity-labelled graph, the
        form the generators produce.

        Raises:
            ValueError: on a self loop or an edge given twice (in either
                orientation).
        """
        index_of: Dict[NodeId, int] = {}
        for node in nodes:
            index_of.setdefault(node, len(index_of))
        edge_u = array("q")
        edge_v = array("q")
        edge_w = array("d")
        seen = set()
        for u, v, *weight in edges:
            if u == v:
                raise ValueError(f"self loops are not allowed (node {u!r})")
            su = index_of.setdefault(u, len(index_of))
            sv = index_of.setdefault(v, len(index_of))
            pair = (su, sv) if su < sv else (sv, su)
            if pair in seen:
                raise ValueError(f"edge ({u!r}, {v!r}) is given twice")
            seen.add(pair)
            edge_u.append(su)
            edge_v.append(sv)
            edge_w.append(weight[0] if weight else 1.0)
        labels = list(index_of)
        if is_identity_enumeration(labels):
            return cls._from_csr_edges(len(labels), edge_u, edge_v, edge_w)
        return cls._from_csr_edges(
            len(labels), edge_u, edge_v, edge_w, nodes=tuple(labels), index_of=index_of
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def csr(self) -> CSRView:
        """Return the graph's CSR columns (shared, never modified)."""
        return self._csr

    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is in the graph."""
        try:
            self._csr.slot(node)
        except KeyError:
            return False
        return True

    def _edge_position(self, u: NodeId, v: NodeId) -> int:
        """Return the position of ``v`` in ``u``'s row (or the reverse), else -1.

        Scans the shorter of the two endpoint rows.
        """
        csr = self._csr
        try:
            su = csr.slot(u)
            sv = csr.slot(v)
        except KeyError:
            return -1
        offsets = csr.offsets
        if offsets[su + 1] - offsets[su] > offsets[sv + 1] - offsets[sv]:
            su, sv = sv, su
        try:
            return csr.targets.index(sv, offsets[su], offsets[su + 1])
        except ValueError:
            return -1

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        return self._edge_position(u, v) >= 0

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Return the weight of the edge ``{u, v}``.

        Raises:
            KeyError: if the edge does not exist.
        """
        position = self._edge_position(u, v)
        if position < 0:
            raise KeyError(f"no edge between {u!r} and {v!r}")
        return self._csr.weights[position]

    def iter_neighbors(self, node: NodeId) -> Iterator[NodeId]:
        """Iterate over the neighbours of ``node`` in row order.

        Raises:
            KeyError: if ``node`` is not in the graph.
        """
        csr = self._csr
        slot = csr.slot(node)
        row = csr.targets[csr.offsets[slot]:csr.offsets[slot + 1]]
        if csr.identity:
            return iter(row)
        return map(csr.nodes.__getitem__, row)

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the neighbours of ``node`` in row order.

        Raises:
            KeyError: if ``node`` is not in the graph.
        """
        return list(self.iter_neighbors(node))

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``.

        Raises:
            KeyError: if ``node`` is not in the graph.
        """
        csr = self._csr
        slot = csr.slot(node)
        return csr.offsets[slot + 1] - csr.offsets[slot]

    def nodes(self) -> List[NodeId]:
        """Return all nodes in slot order."""
        return list(self._csr.nodes)

    def edges(self) -> List[Edge]:
        """Return every undirected edge exactly once.

        Edges are listed in :meth:`CSRView.canonical_edges` order: by the
        first endpoint's slot, then by row order.  The list is built once and
        copied per call, so callers may mutate it.
        """
        if self._edges is None:
            csr = self._csr
            edge_u, edge_v, edge_w = csr.canonical_edges()
            if csr.identity:
                self._edges = [Edge(u, v, w) for u, v, w in zip(edge_u, edge_v, edge_w)]
            else:
                labels = csr.nodes
                self._edges = [
                    Edge(labels[u], labels[v], w) for u, v, w in zip(edge_u, edge_v, edge_w)
                ]
        return list(self._edges)

    def num_nodes(self) -> int:
        """Return ``n``, the number of nodes."""
        return self._csr.n

    def num_edges(self) -> int:
        """Return ``m``, the number of undirected edges."""
        return self._csr.num_edges

    def __contains__(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is a node of the graph."""
        return self.has_node(node)

    def __len__(self) -> int:
        """Return the number of nodes."""
        return self._csr.n

    def __iter__(self) -> Iterator[NodeId]:
        """Iterate over the nodes in slot order."""
        return iter(self._csr.nodes)

    def __repr__(self) -> str:
        """Return a compact ``n``/``m`` summary for debugging."""
        return f"WeightedGraph(n={self.num_nodes()}, m={self.num_edges()})"

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def relabeled(self, mapping: Optional[Dict[NodeId, NodeId]] = None) -> "WeightedGraph":
        """Return a copy with node identifiers replaced via ``mapping``.

        When ``mapping`` is ``None`` the nodes are renamed ``0..n-1`` in
        slot order, which is what the simulator expects.  The copy is built
        from the canonical edge stream, so node ``i``'s row lists first the
        edges to lower slots (by slot), then those to higher slots (in row
        order).

        Raises:
            KeyError: if ``mapping`` misses a node.
            ValueError: if ``mapping`` sends two nodes to the same label.
        """
        csr = self._csr
        edge_u, edge_v, edge_w = csr.canonical_edges()
        if mapping is None:
            return self._from_csr_edges(csr.n, edge_u, edge_v, edge_w)
        labels = [mapping[node] for node in csr.nodes]
        if is_identity_enumeration(labels):
            return self._from_csr_edges(csr.n, edge_u, edge_v, edge_w)
        index_of = {label: i for i, label in enumerate(labels)}
        if len(index_of) != csr.n:
            raise ValueError("relabeling mapping is not injective")
        return self._from_csr_edges(
            csr.n, edge_u, edge_v, edge_w, nodes=tuple(labels), index_of=index_of
        )
