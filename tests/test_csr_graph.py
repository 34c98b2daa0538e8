"""Differential tests for the columnar CSR graph core (``topology/graph.py``).

A graph is one CSR view over an edge stream; a counting-sort fill builds
its rows on the first row read, and ``TestLazyFill`` pins which reads do.
These tests pin the fill against a plain reference model — nested dicts
filled edge by edge from the same stream — plus the degenerate shapes
(empty, single node, isolated nodes) and the node-membership rule.  The golden byte-identity
assertion rides in ``tests/test_perf_equivalence.py``; topology-level
equivalence of the CSR consumers (BFS, partition, MST) is pinned by the
existing suites.
"""

from __future__ import annotations

import random
import tracemalloc
from array import array

import pytest

from oracles import edge_weight_sum, neighbors, queue_bfs_forest, scan_canonical_edges
from repro.experiments.harness import make_topology
from repro.topology.generators import (
    ad_hoc_affectance_graph,
    barabasi_albert_graph,
    degree_preserving_rewire,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.topology.graph import CSRView, WeightedGraph
from repro.topology.weights import assign_distinct_weights


def csr_as_adjacency(graph):
    """Rebuild a nested-dict adjacency purely from the CSR columns."""
    csr = graph.csr()
    adjacency = {}
    for slot in range(csr.n):
        row = {}
        for position in range(csr.offsets[slot], csr.offsets[slot + 1]):
            row[csr.targets[position]] = csr.weights[position]
        adjacency[slot] = row
    return adjacency


def reference_adjacency(nodes, edges):
    """The reference model: insertion-ordered dicts filled edge by edge."""
    adjacency = {node: {} for node in nodes}
    for u, v, w in edges:
        adjacency.setdefault(u, {})[v] = w
        adjacency.setdefault(v, {})[u] = w
    return adjacency


def assert_csr_matches(graph, nodes, edges):
    """The CSR rows must reproduce the reference dicts entry for entry, in order."""
    expected = reference_adjacency(nodes, edges)
    rebuilt = csr_as_adjacency(graph)
    assert rebuilt == expected
    # row order is part of the contract (it drives BFS visit order and the
    # partitioners' workspace layout), so compare orders too
    assert list(rebuilt) == list(expected)
    for node in expected:
        assert list(rebuilt[node]) == list(expected[node])
        assert neighbors(graph.csr(), node) == tuple(expected[node])
        for neighbour, weight in expected[node].items():
            assert graph.weight(node, neighbour) == weight


def assert_csr_symmetric(graph):
    """Every row entry has a reverse entry of equal weight; rows hold no
    self loop and no repeated neighbour."""
    csr = graph.csr()
    entries = {}
    for slot in range(csr.n):
        for position in range(csr.offsets[slot], csr.offsets[slot + 1]):
            key = (slot, csr.targets[position])
            assert key[0] != key[1] and key not in entries
            entries[key] = csr.weights[position]
    for (u, v), weight in entries.items():
        assert entries[(v, u)] == weight
    assert len(entries) == 2 * graph.num_edges()


def random_stream(labels, seed, edge_probability=0.4):
    """A shuffled random edge stream over ``labels`` with distinct weights."""
    rng = random.Random(seed)
    edges = []
    for i, u in enumerate(labels):
        for v in labels[i + 1:]:
            if rng.random() < edge_probability:
                edges.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(edges)
    return [(u, v, float(weight)) for weight, (u, v) in enumerate(edges, 1)]


class TestCSRMatchesDict:
    @pytest.mark.parametrize("seed", (1, 2, 3, 4, 5))
    def test_random_identity_graphs(self, seed):
        labels = list(range(40))
        edges = random_stream(labels, seed, edge_probability=0.15)
        graph = WeightedGraph.from_edges(edges, n=len(labels))
        assert_csr_matches(graph, labels, edges)

    def test_canonical_edges_match_edges_enumeration(self):
        graph = erdos_renyi_graph(30, 0.2, seed=9)
        csr = graph.csr()
        edge_u, edge_v, edge_w = csr.canonical_edges()
        canonical = list(zip(edge_u, edge_v, edge_w))
        assert canonical == [tuple(edge) for edge in graph.edges()]

class TestGeneratorBuiltGraphs:
    """Graphs the generators fill from slot columns, against the reference
    model and against a rebuild of their edges through ``from_edges``."""

    @pytest.mark.parametrize("attachment", (1, 2, 3))
    def test_barabasi_albert_matches_reference_model(self, attachment):
        graph = barabasi_albert_graph(60, attachment, seed=attachment)
        edges = graph.edges()
        assert csr_as_adjacency(graph) == reference_adjacency(graph.nodes(), edges)
        assert_csr_symmetric(graph)
        assert edge_weight_sum(graph) == sum(edge.weight for edge in edges)

    @pytest.mark.parametrize(
        "build",
        (
            lambda: grid_graph(6, 6),
            lambda: barabasi_albert_graph(60, 3, seed=2),
            lambda: erdos_renyi_graph(40, 0.2, seed=3),
        ),
        ids=("grid", "barabasi_albert", "erdos_renyi"),
    )
    def test_weight_assignment_ignores_the_build_route(self, build):
        # the rebuild lists each edge in canonical order, so its rows may
        # differ from the generator's; the weights drawn must not
        graph = build()
        rebuilt = WeightedGraph.from_edges(graph.edges(), n=graph.num_nodes())
        assert rebuilt.edges() == graph.edges()
        assert (
            assign_distinct_weights(rebuilt, seed=3).edges()
            == assign_distinct_weights(graph, seed=3).edges()
        )

    def test_derived_graphs_leave_their_source_intact(self):
        graph = grid_graph(3, 3)
        before = (graph.nodes(), graph.edges(), csr_as_adjacency(graph))
        assign_distinct_weights(graph, seed=1)
        degree_preserving_rewire(graph, seed=1)
        assert (graph.nodes(), graph.edges(), csr_as_adjacency(graph)) == before
        assert edge_weight_sum(graph) == 12.0


def assert_canonical_matches_scan(graph):
    columns = graph.csr().canonical_edges()
    assert [column.typecode for column in columns] == ["q", "q", "d"]
    assert tuple(map(list, columns)) == scan_canonical_edges(graph.csr())


CANONICAL_CASES = {
    **{
        kind: (lambda kind=kind: make_topology(kind, 120, seed=4))
        for kind in ("grid", "ring", "geometric", "scale_free", "ad_hoc")
    },
    # unit weights, and the stream's wrap-around edge (n - 1, 0) is not
    # canonical
    "ring_graph": lambda: ring_graph(9),
    # every edge is (new node, older node): a non-canonical stream
    "barabasi_albert": lambda: barabasi_albert_graph(80, 2, seed=3),
    "grid_graph": lambda: grid_graph(5, 7),
    # ascending (u, v) pairs, then a stitching bridge from the first
    # component (low or high endpoint first)
    "geometric_graph": lambda: random_geometric_graph(150, seed=3),
    "geometric_bridged": lambda: random_geometric_graph(60, radius=0.1, seed=2),
    "ad_hoc_bridged": lambda: ad_hoc_affectance_graph(256, seed=0),
    "rewired": lambda: degree_preserving_rewire(
        barabasi_albert_graph(80, 2, seed=3), seed=1
    ),
    "path_graph": lambda: path_graph(6),
    "from_edges_canonical": lambda: WeightedGraph.from_edges(
        [(0, 1, 4), (0, 3, 2.5), (1, 2, 1), (2, 3, 7)]
    ),
    "from_edges_reversed": lambda: WeightedGraph.from_edges(
        [(1, 0, 4), (2, 1, 1), (3, 2, 7), (3, 0, 2.5)]
    ),
    "from_edges_unsorted": lambda: WeightedGraph.from_edges(
        [(1, 2), (0, 3), (0, 1), (2, 3)]
    ),
}


class TestCanonicalColumns:
    """``canonical_edges``, taken from the edge stream before any row is
    read (the stream itself when it is canonical, else its stable sort on
    the low endpoint), is always what a scan of the filled rows reads."""

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_matches_a_scan_of_the_rows(self, name):
        graph = CANONICAL_CASES[name]()
        assert_canonical_matches_scan(graph)
        assert_canonical_matches_scan(assign_distinct_weights(graph, seed=5))

    def test_a_canonical_stream_becomes_the_columns(self):
        edge_u = array("q", [0, 0, 1, 2])
        edge_v = array("q", [1, 3, 2, 3])
        edge_w = array("d", [4.0, 2.5, 1.0, 7.0])
        columns = WeightedGraph._from_csr_edges(4, edge_u, edge_v, edge_w).csr().canonical_edges()
        assert columns[0] is edge_u and columns[1] is edge_v and columns[2] is edge_w

    def test_unit_weight_stream_gets_a_unit_weight_column(self):
        graph = WeightedGraph._from_csr_edges(3, [0, 1], [1, 2])
        edge_u, edge_v, edge_w = graph.csr().canonical_edges()
        assert (list(edge_u), list(edge_v), list(edge_w)) == ([0, 1], [1, 2], [1.0, 1.0])
        assert edge_u.typecode == "q" and edge_w.typecode == "d"

    @pytest.mark.parametrize(
        "edge_u, edge_v",
        (([1, 0], [2, 1]), ([0, 2], [1, 1]), ([0, 1, 0], [1, 2, 2])),
        ids=("u_decreases", "u_above_v", "u_not_sorted"),
    )
    def test_a_non_canonical_stream_is_not_kept(self, edge_u, edge_v):
        graph = WeightedGraph._from_csr_edges(3, array("q", edge_u), array("q", edge_v))
        assert graph.csr().canonical_edges()[0] != array("q", edge_u)
        assert_canonical_matches_scan(graph)

    @pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
    def test_endpoints_are_the_columns_without_weights(self, name):
        csr = CANONICAL_CASES[name]().csr()
        edge_u, edge_v = csr.canonical_endpoints()
        # the weight column was neither permuted nor built
        assert csr._canonical is None
        columns = CANONICAL_CASES[name]().csr().canonical_edges()
        assert (edge_u, edge_v) == columns[:2]
        assert edge_u.typecode == edge_v.typecode == "q"
        # once both ran, they share the endpoint columns
        assert csr.canonical_endpoints() == csr.canonical_edges()[:2]
        assert all(a is b for a, b in zip(csr.canonical_endpoints(), csr.canonical_edges()))

    def test_reweighting_builds_no_weight_column(self):
        # an ad-hoc graph's link weights are its affectances; weight
        # assignment replaces them, so it leaves them unpermuted
        graph = ad_hoc_affectance_graph(256, seed=0)
        assign_distinct_weights(graph, seed=1)
        assert graph.csr()._canonical is None

    def test_reweighting_shares_the_source_endpoints(self):
        graph = grid_graph(4, 4)
        source_u, source_v, _ = graph.csr().canonical_edges()
        copy_u, copy_v, _ = assign_distinct_weights(graph, seed=1).csr().canonical_edges()
        assert copy_u is source_u and copy_v is source_v


@pytest.fixture
def fills(monkeypatch):
    """The views whose rows get filled while the test runs, in fill order."""
    filled = []
    fill = CSRView._fill

    def recording(view):
        filled.append(view)
        fill(view)

    monkeypatch.setattr(CSRView, "_fill", recording)
    return filled


class TestLazyFill:
    """A graph fills its rows from its edge stream on the first row read,
    once; everything that reads only the stream leaves it unfilled."""

    def test_stream_readers_do_not_fill(self, fills):
        graph = barabasi_albert_graph(200, 2, seed=1)
        assert graph.num_edges() == graph.csr().num_edges == 2 * (200 - 2)
        assert edge_weight_sum(graph) == float(graph.num_edges())
        graph.edges()
        graph.csr().canonical_edges()
        assign_distinct_weights(graph, seed=3).edges()
        degree_preserving_rewire(graph, seed=2)
        assert fills == []

    def test_first_row_read_fills_once(self, fills):
        graph = assign_distinct_weights(ring_graph(12), seed=2)
        csr = graph.csr()
        assert fills == []
        assert neighbors(csr, 0) == (1, 11)
        assert len(csr.targets) == 24 and len(csr.weights) == 24
        neighbors(csr, 5)
        csr.is_connected()
        csr.scan_columns()
        assert fills == [csr]

    def test_unknown_attribute_still_raises(self, fills):
        with pytest.raises(AttributeError, match="no attribute 'offset'"):
            path_graph(3).csr().offset
        assert fills == []

    @pytest.mark.parametrize(
        "kind", ("grid", "ring", "geometric", "scale_free", "ad_hoc")
    )
    def test_make_topology_fills_once(self, fills, monkeypatch, kind):
        from repro.experiments import harness

        handed = []
        weigh = harness.assign_distinct_weights

        def recording(graph, seed=None):
            handed.append(graph)
            return weigh(graph, seed=seed)

        monkeypatch.setattr(harness, "assign_distinct_weights", recording)
        graph = make_topology(kind, 120, seed=4)
        assert fills == []
        assert graph.csr().is_connected()
        neighbors(graph.csr(), 0)
        assert fills == [graph.csr()]
        assert handed[0].csr() not in fills

    def test_a_stitched_graph_is_returned_unfilled(self, fills):
        # the stream is disconnected: the component search fills throwaway
        # graphs, never the graph returned (nor its columns afterwards)
        graph = ad_hoc_affectance_graph(256, seed=0)
        assert fills and graph.csr() not in fills
        columns = tuple(map(list, graph.csr().canonical_edges()))
        assert graph.csr().is_connected()
        assert columns == scan_canonical_edges(graph.csr())


class TestDegenerateShapes:
    def test_empty_graph(self):
        graph = WeightedGraph()
        csr = graph.csr()
        assert csr.n == 0
        assert list(csr.offsets) == [0]
        assert len(csr.targets) == 0
        assert all(len(column) == 0 for column in csr.canonical_edges())
        assert csr.is_connected()
        assert_csr_matches(graph, [], [])

    def test_single_node(self):
        graph = WeightedGraph.from_edges([], n=1)
        csr = graph.csr()
        assert csr.n == 1 and csr.num_edges == 0
        assert list(csr.offsets) == [0, 0]
        assert_csr_matches(graph, [0], [])

    def test_isolated_nodes_between_connected_ones(self):
        graph = WeightedGraph.from_edges([(0, 4, 2.0)], n=5)
        csr = graph.csr()
        assert [csr.offsets[i + 1] - csr.offsets[i] for i in range(5)] == [
            1, 0, 0, 0, 1
        ]
        assert csr.bfs(3) == ([-1, -1, -1, 0, -1], [-1] * 5, [3])
        assert_csr_matches(graph, range(5), [(0, 4, 2.0)])


class TestIsConnected:
    """The connectivity check: a byte-flag sweep, cached on the view."""

    @pytest.mark.parametrize(
        "edges, n, expected",
        (
            ([], 0, True),
            ([], 1, True),
            ([], 2, False),
            ([(0, 1), (1, 2), (2, 0)], 3, True),
            ([(0, 1), (2, 3)], 4, False),
            ([(3, 2), (1, 0), (2, 1)], 4, True),
        ),
    )
    def test_results(self, edges, n, expected):
        assert WeightedGraph.from_edges(edges, n=n).csr().is_connected() is expected

    def test_cached(self):
        csr = grid_graph(4, 4).csr()
        assert csr.is_connected()
        # a second sweep over emptied rows would reach node 0 alone
        csr.targets = array("q")
        assert csr.is_connected()

    def test_peak_stays_under_16_bytes_per_node(self):
        csr = grid_graph(100, 100).csr()
        csr.offsets  # fill the rows outside the measured region
        tracemalloc.start()
        try:
            assert csr.is_connected()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * csr.n


class TestIdentityDetection:
    """A node is its slot: BFS sources are checked against ``0..n-1``."""

    def test_bfs_rejects_unknown_source(self):
        graph = path_graph(3)
        with pytest.raises(KeyError):
            graph.csr().bfs(99)
        with pytest.raises(KeyError):
            WeightedGraph().csr().bfs(0)


class TestBFSKernel:
    """``CSRView.bfs`` field for field against the node-at-a-time queue."""

    @staticmethod
    def assert_matches_queue(graph, source):
        distance, parent, order = graph.csr().bfs(source)
        parents, _, labels = queue_bfs_forest(graph, [source])
        slots = range(graph.num_nodes())
        assert order == list(labels)
        assert distance == [labels.get(slot, -1) for slot in slots]
        assert parent == [
            -1 if parents.get(slot) is None else parents[slot] for slot in slots
        ]

    @pytest.mark.parametrize(
        "kind", ("grid", "ring", "geometric", "scale_free", "ad_hoc")
    )
    def test_five_kinds(self, kind):
        graph = make_topology(kind, 150, seed=7)
        n = graph.num_nodes()
        for source in (0, n // 2, n - 1):
            self.assert_matches_queue(graph, source)

    def test_disconnected_graph(self):
        graph = WeightedGraph.from_edges([(0, 2), (2, 1), (3, 4), (1, 5)], n=7)
        for source in (0, 1, 4):
            self.assert_matches_queue(graph, source)
        assert sorted(graph.csr().bfs(1)[2]) == [0, 1, 2, 5]

    def test_isolated_source(self):
        graph = WeightedGraph.from_edges([(0, 2), (2, 1), (3, 4), (1, 5)], n=7)
        self.assert_matches_queue(graph, 6)
        assert graph.csr().bfs(6) == ([-1] * 6 + [0], [-1] * 7, [6])

    def test_single_node(self):
        graph = WeightedGraph.from_edges([], n=1)
        self.assert_matches_queue(graph, 0)
        assert graph.csr().bfs(0) == ([0], [-1], [0])


class TestHasNodeOnIdentityGraph:
    """The nodes of an ``n``-node graph are exactly the ints ``0..n-1``."""

    def test_int_and_numeric_alias_membership(self):
        graph = path_graph(5)
        assert graph.has_node(0) and graph.has_node(4)
        assert not graph.has_node(5) and not graph.has_node(-1)
        # a numeric alias of a node is no node: it is no int
        assert not graph.has_node(2.0) and 2.0 not in graph
        assert not graph.has_node(2.5)
        assert not graph.has_node(True)

    def test_non_numeric_labels_are_absent(self):
        graph = path_graph(5)
        assert not graph.has_node("2")
        assert not graph.has_node((2,))
        assert "2" not in graph
