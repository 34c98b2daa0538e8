"""Undirected weighted graph used as the point-to-point topology.

The graph is deliberately small and explicit: node identifiers are arbitrary
hashable values (the simulator uses integers), edges are undirected and carry
a weight, and adjacency is kept as an ordered mapping so that iteration order
is deterministic.  Determinism matters because the paper's algorithms break
ties by node identifier and because every experiment must be reproducible
from a seed.

The class sits under every hot loop of the partition/MST algorithms, so the
whole-graph accessors are cached: a mutation counter (``_version``) is bumped
by every mutation (edge changes and node insertions alike), the canonical
edge list is rebuilt at most once per
mutation generation, and the total weight is maintained incrementally.  The
``iter_neighbors``/``neighbor_items`` views expose the adjacency dict without
the per-call list allocation of :meth:`neighbors`.

On top of the dict API sits the columnar core (:class:`CSRView`,
:meth:`WeightedGraph.csr`): an immutable compressed-sparse-row snapshot —
stdlib ``array('q')`` offsets/targets plus a parallel weight column — built
at most once per mutation generation under the same version-counter
invalidation.  The generators construct graphs directly in CSR form
(:meth:`WeightedGraph._from_csr_edges`) and the nested dicts materialise
lazily only when something actually asks for them, so the partition-bound
sweeps never pay for per-edge dict insertion at all.
"""

from __future__ import annotations

import numbers
from array import array
from typing import (
    Dict,
    Hashable,
    ItemsView,
    Iterable,
    Iterator,
    KeysView,
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


def sorted_incident_links(
    graph: "WeightedGraph",
) -> Dict[NodeId, List[Tuple[float, NodeId, Tuple[NodeId, NodeId]]]]:
    """Return every node's incident links as ``(weight, neighbour, edge key)``
    triples in increasing ``(weight, repr(neighbour))`` order — the GHS scan
    order, with the canonical key precomputed once per physical link.

    The dict form of :meth:`CSRView.scan_columns`, which defines the order.
    """
    csr = graph.csr()
    nbr, weight, back = csr.scan_columns()
    nodes = csr.nodes
    offsets = csr.offsets
    # a link's key is made at its first entry and picked up at its reverse
    keys: List[Optional[Tuple[NodeId, NodeId]]] = [None] * len(nbr)
    links: Dict[NodeId, List[Tuple[float, NodeId, Tuple[NodeId, NodeId]]]] = {}
    for i, node in enumerate(nodes):
        start = offsets[i]
        end = offsets[i + 1]
        row = []
        for position, j, w, partner in zip(
            range(start, end), nbr[start:end], weight[start:end], back[start:end]
        ):
            neighbour = nodes[j]
            key = keys[position]
            if key is None:
                key = keys[partner] = edge_key(node, neighbour)
            row.append((w, neighbour, key))
        links[node] = row
    return links


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
    """An immutable compressed-sparse-row snapshot of a :class:`WeightedGraph`.

    The columnar layout the hot loops walk instead of the nested adjacency
    dicts: ``offsets`` is an ``array('q')`` of length ``n + 1``, ``targets``
    holds the ``2m`` neighbour *slot indices* row by row, and ``weights`` is
    the parallel ``array('d')`` weight column.  Slot ``i`` is node
    ``nodes[i]`` — the graph's insertion-order enumeration, so slot space is
    exactly the index space the partitioners already use.  On
    identity-labelled graphs (:func:`is_identity_enumeration`) ``nodes`` is a
    ``range`` and ``index_of`` is ``None``: labels *are* slots and no
    translation dict is ever built; arbitrary hashable labels get a ``tuple``
    plus a label→slot dict.

    Row order within a node equals the adjacency dict's insertion order, so a
    consumer that walks ``targets[offsets[i]:offsets[i + 1]]`` visits
    neighbours in exactly the order ``iter_neighbors`` would yield them —
    that row-order contract is what keeps CSR-walking consumers bit-identical
    to their dict-walking predecessors.

    Views are snapshots: :meth:`WeightedGraph.csr` hands out one view per
    mutation generation and a mutation makes the next call rebuild.  A stale
    view stays internally consistent (nothing is mutated in place) but no
    longer describes the graph.
    """

    __slots__ = (
        "n",
        "offsets",
        "targets",
        "weights",
        "nodes",
        "index_of",
        "identity",
        "_canonical",
        "_connected",
    )

    def __init__(
        self,
        n: int,
        offsets: array,
        targets: array,
        weights: array,
        nodes: Sequence[NodeId],
        index_of: Optional[Dict[NodeId, int]],
        identity: bool,
    ) -> None:
        """Bind the column arrays; built by the graph, not by callers."""
        self.n = n
        self.offsets = offsets
        self.targets = targets
        self.weights = weights
        self.nodes = nodes
        self.index_of = index_of
        self.identity = identity
        self._canonical: Optional[Tuple[array, array, array]] = None
        self._connected: Optional[bool] = None

    @property
    def num_edges(self) -> int:
        """Return ``m``, the number of undirected edges in the snapshot."""
        return len(self.targets) // 2

    def is_connected(self) -> bool:
        """Return ``True`` when the snapshot is connected (the empty graph counts).

        One frontier sweep over the rows from slot 0, computed once per view
        and cached, so every consumer of one mutation generation (the
        partitioners, the MST stages, each simulation run) shares it.
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
        :meth:`WeightedGraph.edges` enumerates (first-endpoint insertion
        order).  Computed once per view and cached, so repeated consumers
        (weight assignment, the partition scan builders) share the arrays.
        """
        if self._canonical is None:
            offsets = self.offsets
            targets = self.targets
            weights = self.weights
            edge_u = array("q")
            edge_v = array("q")
            edge_w = array("d")
            start = 0
            for u in range(self.n):
                end = offsets[u + 1]
                for k in range(start, end):
                    t = targets[k]
                    if t > u:
                        edge_u.append(u)
                        edge_v.append(t)
                        edge_w.append(weights[k])
                start = end
            self._canonical = (edge_u, edge_v, edge_w)
        return self._canonical

    def scan_columns(self) -> Tuple[array, array, array]:
        """Return the GHS scan columns ``(nbr, weight, back)`` over CSR ranges.

        Node ``i``'s links fill positions ``offsets[i]..offsets[i + 1]`` in
        increasing ``(weight, repr(neighbour))`` order, the order in which
        Gallager–Humblet–Spira nodes test their links; ``nbr[p]`` is the
        neighbour slot, ``weight[p]`` the link weight and ``back[p]`` the
        position of the same link in the neighbour's range.  Every GHS-style
        scan (the deterministic partitioner, :func:`sorted_incident_links`)
        reads this one order.  Built fresh per call: the caller owns the
        arrays.
        """
        offsets = self.offsets
        size = len(self.targets)
        nbr = array("q", bytes(8 * size))
        weight = array("d", bytes(8 * size))
        back = array("q", bytes(8 * size))
        edge_u, edge_v, edge_w = self.canonical_edges()
        if len(set(edge_w)) == len(edge_w):
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


def _csr_from_adjacency(adjacency: Dict[NodeId, Dict[NodeId, float]]) -> CSRView:
    """Build a :class:`CSRView` mirroring ``adjacency`` rows exactly."""
    nodes_list = list(adjacency)
    n = len(nodes_list)
    identity = is_identity_enumeration(nodes_list)
    offsets = array("q", bytes(8 * (n + 1)))
    targets = array("q")
    weights = array("d")
    if identity:
        nodes: Sequence[NodeId] = range(n)
        index_of = None
        try:
            for i, row in enumerate(adjacency.values()):
                targets.extend(row.keys())
                weights.extend(row.values())
                offsets[i + 1] = len(targets)
        except TypeError:
            # a numeric alias of an integer label (add_edge(1, 2.0)) snuck
            # into a row: redo slot by slot with explicit conversion
            del targets[:]
            del weights[:]
            for i, row in enumerate(adjacency.values()):
                for v, w in row.items():
                    targets.append(int(v))
                    weights.append(w)
                offsets[i + 1] = len(targets)
    else:
        nodes = tuple(nodes_list)
        index_of = {node: i for i, node in enumerate(nodes_list)}
        for i, row in enumerate(adjacency.values()):
            for v, w in row.items():
                targets.append(index_of[v])
                weights.append(w)
            offsets[i + 1] = len(targets)
    return CSRView(n, offsets, targets, weights, nodes, index_of, identity)


class WeightedGraph:
    """An undirected weighted graph with deterministic iteration order.

    The class intentionally exposes only the operations the distributed
    algorithms and the simulator need: adding nodes and edges, neighbour
    queries, weight lookups, and a handful of whole-graph accessors.
    """

    def __init__(self) -> None:
        """Create an empty graph."""
        # nested adjacency dicts, or None while a CSR-built graph has not
        # needed them yet (see _materialize_adjacency)
        self._adj: Optional[Dict[NodeId, Dict[NodeId, float]]] = {}
        self._edge_count = 0
        self._total_weight = 0.0
        # cache generation: bumped by every mutation (edges and node
        # insertions — the CSR snapshot encodes the node set); whole-graph
        # views derived from the adjacency are rebuilt lazily when stale
        self._version = 0
        self._edges_cache: List[Edge] = []
        self._edges_cache_version = -1
        self._csr_cache: Optional[CSRView] = None
        self._csr_cache_version = -1

    @property
    def _adjacency(self) -> Dict[NodeId, Dict[NodeId, float]]:
        """The nested adjacency dicts, materialised from CSR on first use."""
        adj = self._adj
        if adj is None:
            adj = self._materialize_adjacency()
        return adj

    @_adjacency.setter
    def _adjacency(self, value: Dict[NodeId, Dict[NodeId, float]]) -> None:
        self._adj = value

    def _materialize_adjacency(self) -> Dict[NodeId, Dict[NodeId, float]]:
        """Build the nested dicts from the pending CSR snapshot.

        Only reachable on a graph constructed in CSR form (``_adj is None``),
        whose snapshot is by construction current.  Row insertion order is
        the CSR row order, i.e. exactly what the equivalent ``add_edge``
        sequence would have produced; materialising is therefore invisible
        (no version bump).
        """
        csr = self._csr_cache
        offsets = csr.offsets
        targets = csr.targets
        weights = csr.weights
        adj: Dict[NodeId, Dict[NodeId, float]] = {}
        start = 0
        if csr.identity:
            for i in range(csr.n):
                end = offsets[i + 1]
                adj[i] = {
                    targets[k]: weights[k] for k in range(start, end)
                }
                start = end
        else:
            nodes = csr.nodes
            for i in range(csr.n):
                end = offsets[i + 1]
                adj[nodes[i]] = {
                    nodes[targets[k]]: weights[k] for k in range(start, end)
                }
                start = end
        self._adj = adj
        return adj

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
        """Build a graph directly in CSR form from an edge stream.

        ``edge_u``/``edge_v`` give one entry per undirected edge as slot
        indices; ``edge_weights`` is the parallel weight column (``None`` ⇒
        unit weights).  ``nodes`` maps slots to labels (``None`` ⇒ the
        identity enumeration ``0..n-1``).  The stream must not repeat an
        edge.

        The counting-sort fill places each edge at its endpoints' cursors in
        stream order, so row order — and hence every downstream iteration
        order — is exactly what per-edge :meth:`add_edge` calls in the same
        order would have produced.  The nested adjacency dicts are *not*
        built here; they materialise lazily on first dict-shaped access,
        which the partition-only workloads never perform.
        """
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
        total = 0.0
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
            total = float(m)
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
                # accumulate in stream order: bit-identical to the same
                # sequence of add_edge calls
                total += w
        if nodes is None:
            view = CSRView(n, offsets, targets, weights, range(n), None, True)
        else:
            if index_of is None:
                index_of = {node: i for i, node in enumerate(nodes)}
            view = CSRView(n, offsets, targets, weights, nodes, index_of, False)
        graph = cls()
        graph._adj = None
        graph._edge_count = m
        graph._total_weight = total
        graph._csr_cache = view
        graph._csr_cache_version = graph._version
        return graph

    def add_node(self, node: NodeId) -> None:
        """Add ``node`` to the graph (no-op if already present)."""
        adjacency = self._adjacency
        if node not in adjacency:
            adjacency[node] = {}
            # the CSR snapshot encodes the node set (n, offsets, nodes), so
            # inserting even an isolated node invalidates it exactly like an
            # edge mutation does
            self._version += 1

    def add_nodes(self, nodes: Iterable[NodeId]) -> None:
        """Add every node in ``nodes``."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: NodeId, v: NodeId, weight: float = 1.0) -> None:
        """Add the undirected edge ``{u, v}`` with ``weight``.

        Adding an edge that already exists overwrites its weight.  Self loops
        are rejected because the network model has no use for them.

        Raises:
            ValueError: if ``u == v``.
        """
        if u == v:
            raise ValueError(f"self loops are not allowed (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        existing = self._adjacency[u].get(v)
        if existing is None:
            self._edge_count += 1
            self._total_weight += weight
        else:
            self._total_weight += weight - existing
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._version += 1

    def remove_edge(self, u: NodeId, v: NodeId) -> None:
        """Remove the undirected edge ``{u, v}``.

        Raises:
            KeyError: if the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        self._total_weight -= self._adjacency[u][v]
        del self._adjacency[u][v]
        del self._adjacency[v][u]
        self._edge_count -= 1
        if self._edge_count == 0:
            self._total_weight = 0.0  # clear float residue exactly
        self._version += 1

    def set_weight(self, u: NodeId, v: NodeId, weight: float) -> None:
        """Set the weight of an existing edge.

        Raises:
            KeyError: if the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        self._total_weight += weight - self._adjacency[u][v]
        self._adjacency[u][v] = weight
        self._adjacency[v][u] = weight
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_node(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is in the graph."""
        adj = self._adj
        if adj is not None:
            return node in adj
        csr = self._csr_cache
        if csr.index_of is not None:
            return node in csr.index_of
        # identity enumeration: the node set is exactly the ints 0..n-1.
        # Reproduce the dict lookup's ==/hash semantics without delegating
        # to range.__contains__, whose equality fallback is an O(n) scan
        # for anything but exact ints:
        hash(node)  # unhashable labels raise TypeError, as the dict did
        if isinstance(node, int):  # bools and int subclasses included
            return 0 <= node < csr.n
        if isinstance(node, float):
            return node.is_integer() and 0 <= node < csr.n
        if isinstance(node, numbers.Number):
            # exotic numeric aliases (Decimal, Fraction, complex, …) keep
            # the exact dict-equality semantics; rare enough that range's
            # linear scan is acceptable
            return node in csr.nodes
        return False

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Return ``True`` when the undirected edge ``{u, v}`` exists."""
        return u in self._adjacency and v in self._adjacency[u]

    def weight(self, u: NodeId, v: NodeId) -> float:
        """Return the weight of the edge ``{u, v}``.

        Raises:
            KeyError: if the edge does not exist.
        """
        if not self.has_edge(u, v):
            raise KeyError(f"no edge between {u!r} and {v!r}")
        return self._adjacency[u][v]

    def neighbors(self, node: NodeId) -> List[NodeId]:
        """Return the neighbours of ``node`` in insertion order."""
        return list(self._adjacency[node])

    def iter_neighbors(self, node: NodeId) -> KeysView:
        """Return a zero-copy view of ``node``'s neighbours (insertion order).

        The view reflects later mutations; do not add or remove edges at
        ``node`` while iterating it.
        """
        return self._adjacency[node].keys()

    def neighbor_items(self, node: NodeId) -> ItemsView:
        """Return a zero-copy ``(neighbour, weight)`` view for ``node``.

        Saves the per-neighbour :meth:`weight` lookup in hot loops; the same
        mutation caveat as :meth:`iter_neighbors` applies.
        """
        return self._adjacency[node].items()

    def adjacency(self) -> Dict[NodeId, Dict[NodeId, float]]:
        """Return the live ``node → (neighbour → weight)`` mapping.

        This is the graph's own adjacency structure, not a copy: callers must
        treat it as read-only.  It exists for the tightest loops (BFS sweeps,
        the simulator's per-round link validation) where even the bound-method
        dispatch of :meth:`iter_neighbors` per node is measurable.
        """
        return self._adjacency

    def degree(self, node: NodeId) -> int:
        """Return the degree of ``node``."""
        return len(self._adjacency[node])

    def incident_edges(self, node: NodeId) -> List[Edge]:
        """Return the edges incident to ``node``."""
        return [Edge(node, v, w) for v, w in self._adjacency[node].items()]

    def nodes(self) -> List[NodeId]:
        """Return all nodes in insertion order."""
        adj = self._adj
        if adj is not None:
            return list(adj)
        return list(self._csr_cache.nodes)

    def edges(self) -> List[Edge]:
        """Return every undirected edge exactly once.

        Edges are listed in first-endpoint insertion order (the order the
        old on-demand scan produced); the list is rebuilt at most once per
        mutation generation and copied per call, so callers may mutate it.
        """
        if self._edges_cache_version != self._version:
            adj = self._adj
            if adj is None:
                # CSR-built graph: canonical edge order falls straight out of
                # the row scan, no need to materialise the dicts
                csr = self._csr_cache
                edge_u, edge_v, edge_w = csr.canonical_edges()
                if csr.identity:
                    result = [
                        Edge(u, v, w)
                        for u, v, w in zip(edge_u, edge_v, edge_w)
                    ]
                else:
                    labels = csr.nodes
                    result = [
                        Edge(labels[u], labels[v], w)
                        for u, v, w in zip(edge_u, edge_v, edge_w)
                    ]
            else:
                position = {node: index for index, node in enumerate(adj)}
                result = []
                for u, nbrs in adj.items():
                    pos_u = position[u]
                    for v, w in nbrs.items():
                        if position[v] > pos_u:
                            result.append(Edge(u, v, w))
            self._edges_cache = result
            self._edges_cache_version = self._version
        return list(self._edges_cache)

    def csr(self) -> "CSRView":
        """Return the CSR snapshot of the current mutation generation.

        Built at most once per generation (the same version-counter
        invalidation :meth:`edges` uses) and shared by every caller until
        the next mutation.  Graphs constructed by the generators are born
        with the snapshot already in place, so this is free for them.
        """
        if self._csr_cache_version != self._version:
            self._csr_cache = _csr_from_adjacency(self._adj)
            self._csr_cache_version = self._version
        return self._csr_cache

    def num_nodes(self) -> int:
        """Return ``n``, the number of nodes."""
        adj = self._adj
        if adj is not None:
            return len(adj)
        return self._csr_cache.n

    def num_edges(self) -> int:
        """Return ``m``, the number of undirected edges."""
        return self._edge_count

    def total_weight(self) -> float:
        """Return the sum of all edge weights.

        Maintained incrementally across mutations, so after many
        ``remove_edge``/``set_weight`` calls on non-integral weights the
        value can differ from a fresh summation by float rounding residue
        (it is exact for integral weights, and resets exactly to 0.0 when
        the last edge is removed).  Compare with a tolerance when weights
        are fractional.
        """
        return self._total_weight

    def __contains__(self, node: NodeId) -> bool:
        """Return ``True`` when ``node`` is a node of the graph."""
        return self.has_node(node)

    def __len__(self) -> int:
        """Return the number of nodes."""
        return self.num_nodes()

    def __iter__(self) -> Iterator[NodeId]:
        """Iterate over the nodes in insertion order."""
        adj = self._adj
        if adj is not None:
            return iter(adj)
        return iter(self._csr_cache.nodes)

    def __repr__(self) -> str:
        """Return a compact ``n``/``m`` summary for debugging."""
        return (
            f"WeightedGraph(n={self.num_nodes()}, m={self.num_edges()})"
        )

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "WeightedGraph":
        """Return a deep copy of this graph."""
        clone = WeightedGraph()
        if self._adj is None:
            # CSR-built and never materialised: the snapshot is immutable, so
            # the clone shares it; whichever side mutates first materialises
            # its own dicts from the shared view
            clone._adj = None
            clone._edge_count = self._edge_count
            clone._total_weight = self._total_weight
            clone._csr_cache = self._csr_cache
            clone._csr_cache_version = clone._version
            return clone
        adjacency: Dict[NodeId, Dict[NodeId, float]] = {
            node: {} for node in self._adjacency
        }
        for edge in self.edges():
            adjacency[edge.u][edge.v] = edge.weight
            adjacency[edge.v][edge.u] = edge.weight
        clone._adjacency = adjacency
        clone._edge_count = self._edge_count
        clone._total_weight = self._total_weight
        return clone

    def subgraph(self, nodes: Iterable[NodeId]) -> "WeightedGraph":
        """Return the subgraph induced by ``nodes``."""
        keep = set(nodes)
        sub = WeightedGraph()
        adjacency: Dict[NodeId, Dict[NodeId, float]] = {
            node: {} for node in self.nodes() if node in keep
        }
        count = 0
        total = 0.0
        for edge in self.edges():
            if edge.u in keep and edge.v in keep:
                adjacency[edge.u][edge.v] = edge.weight
                adjacency[edge.v][edge.u] = edge.weight
                count += 1
                total += edge.weight
        sub._adjacency = adjacency
        sub._edge_count = count
        sub._total_weight = total
        return sub

    def relabeled(self, mapping: Optional[Dict[NodeId, NodeId]] = None) -> "WeightedGraph":
        """Return a copy with node identifiers replaced via ``mapping``.

        When ``mapping`` is ``None`` the nodes are renamed ``0..n-1`` in
        insertion order, which is what the simulator expects.
        """
        if mapping is None:
            mapping = {node: index for index, node in enumerate(self.nodes())}
        renamed = WeightedGraph()
        adjacency: Dict[NodeId, Dict[NodeId, float]] = {
            mapping[node]: {} for node in self.nodes()
        }
        # count and total are re-derived rather than copied: a non-injective
        # mapping may merge edges (last weight wins, as with add_edge) or
        # collapse an edge into a self loop, which is rejected
        count = 0
        total = 0.0
        for edge in self.edges():
            u, v = mapping[edge.u], mapping[edge.v]
            if u == v:
                raise ValueError(f"self loops are not allowed (node {u!r})")
            existing = adjacency[u].get(v)
            if existing is None:
                count += 1
                total += edge.weight
            else:
                total += edge.weight - existing
            adjacency[u][v] = edge.weight
            adjacency[v][u] = edge.weight
        renamed._adjacency = adjacency
        renamed._edge_count = count
        renamed._total_weight = total
        return renamed
