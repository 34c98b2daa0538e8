"""Unit tests for the weighted graph data structure."""

import pytest

from oracles import degree, edge_weight_sum, neighbors
from repro.topology.graph import Edge, WeightedGraph, edge_key


class TestEdge:
    def test_key_is_canonical(self):
        assert Edge(2, 1).key() == Edge(1, 2).key()
        assert edge_key(5, 3) == edge_key(3, 5)


class TestEdgeKey:
    def test_comparable_nodes_ordered_by_value(self):
        # numeric order, not repr order ("10" < "2" lexicographically)
        assert edge_key(10, 2) == (2, 10)
        assert edge_key(2, 10) == (2, 10)


class TestWeightedGraph:
    def test_from_edges(self):
        graph = WeightedGraph.from_edges([(0, 1, 3.0), (1, 2, 4.0)])
        assert graph.num_nodes() == 3
        assert graph.num_edges() == 2
        assert graph.weight(0, 1) == 3.0
        assert graph.weight(1, 0) == 3.0

    def test_unweighted_edges_get_unit_weight(self):
        graph = WeightedGraph.from_edges([(0, 1), (1, 2, 2.5)])
        assert graph.weight(0, 1) == 1.0
        assert edge_weight_sum(graph) == 3.5

    def test_n_defaults_to_one_past_the_largest_endpoint(self):
        graph = WeightedGraph.from_edges([(3, 1), (1, 4), (5, 3)])
        assert graph.nodes() == [0, 1, 2, 3, 4, 5]
        assert list(graph) == graph.nodes()
        padded = WeightedGraph.from_edges([(3, 1)], n=7)
        assert padded.nodes() == list(range(7))
        assert padded.csr().is_connected() is False

    def test_rows_follow_the_edge_stream(self):
        csr = WeightedGraph.from_edges([(0, 3), (2, 0), (0, 1), (3, 1)]).csr()
        assert neighbors(csr, 0) == (3, 2, 1)
        assert neighbors(csr, 3) == (0, 1)
        assert neighbors(csr, 1) == (0, 3)

    @pytest.mark.parametrize(
        "edge",
        [("a", 1), (0, 0.1), (1.0, 2), (-1, 2), (0, True)],
        ids=["string", "float", "integral_float", "negative", "bool"],
    )
    def test_non_node_endpoint_rejected(self, edge):
        with pytest.raises(ValueError, match="not a non-negative int"):
            WeightedGraph.from_edges([(0, 3), edge])

    def test_endpoint_at_or_beyond_n_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            WeightedGraph.from_edges([(0, 1), (1, 2)], n=2)
        assert WeightedGraph.from_edges([(0, 1), (1, 2)], n=3).num_nodes() == 3

    def test_no_edges_and_n_nodes_is_the_disconnected_graph(self):
        graph = WeightedGraph.from_edges([], n=2)
        assert graph.nodes() == [0, 1]
        assert graph.num_edges() == 0
        assert graph.edges() == []
        assert not graph.csr().is_connected()
        assert WeightedGraph.from_edges([]).num_nodes() == 0

    @pytest.mark.parametrize("node", ["a", -1, 3, 2.5, 1.0, None, (0,)])
    def test_slot_rejects_non_nodes(self, node):
        graph = WeightedGraph.from_edges([(0, 1), (1, 2)])
        with pytest.raises(KeyError):
            graph.csr().slot(node)
        assert not graph.has_node(node)
        assert node not in graph

    def test_slot_of_a_node_is_the_node(self):
        csr = WeightedGraph.from_edges([(0, 1), (1, 2)]).csr()
        assert [csr.slot(node) for node in range(3)] == [0, 1, 2]

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([(0, 1), (1, 1)])

    @pytest.mark.parametrize("repeat", [(0, 1, 9.0), (1, 0)])
    def test_repeated_edge_rejected(self, repeat):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([(0, 1, 1.0), (1, 2), repeat])

    def test_weight_missing_edge_raises(self):
        graph = WeightedGraph.from_edges([], n=2)
        with pytest.raises(KeyError):
            graph.weight(0, 1)
        with pytest.raises(KeyError):
            graph.weight(0, 7)

    def test_has_edge(self):
        graph = WeightedGraph.from_edges([(0, 1), (1, 2)])
        assert graph.has_edge(0, 1)
        assert graph.has_edge(2, 1)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(0, 0)
        assert not graph.has_edge(0, 9)
        assert not graph.has_edge(0, "zz")

    def test_edge_lookup_scans_either_row(self):
        # hub 0 has the long row; both argument orders find every spoke
        graph = WeightedGraph.from_edges([(0, i, float(i)) for i in range(1, 8)])
        for i in range(1, 8):
            assert graph.weight(0, i) == graph.weight(i, 0) == float(i)

    def test_neighbors_and_degree(self):
        graph = WeightedGraph.from_edges([(0, 1), (0, 2)])
        assert set(neighbors(graph.csr(), 0)) == {1, 2}
        assert degree(graph, 0) == 2
        assert degree(graph, 1) == 1

    @pytest.mark.parametrize("labels", [lambda i: i, str])
    def test_unknown_node_queries_raise(self, labels):
        graph = WeightedGraph.from_edges([(0, 1)])
        for query in (graph.csr().slot, lambda node: neighbors(graph.csr(), node)):
            with pytest.raises(KeyError):
                query(labels(5))
        assert not graph.has_node(labels(5))

    def test_edges_listed_once(self):
        graph = WeightedGraph.from_edges([(0, 1), (1, 2), (2, 0)])
        assert len(graph.edges()) == 3

    def test_returned_edge_list_is_a_private_copy(self):
        graph = WeightedGraph.from_edges([(0, 1)])
        listing = graph.edges()
        listing.clear()
        assert len(graph.edges()) == 1

    def test_container_protocol(self):
        graph = WeightedGraph.from_edges([(0, 1)])
        assert 0 in graph
        assert len(graph) == 2
        assert sorted(iter(graph)) == [0, 1]

    def test_total_weight(self):
        graph = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 5.0)])
        assert edge_weight_sum(graph) == 7.0

    def test_total_weight_sums_in_stream_order(self):
        weights = [0.1, 0.2, 0.3, 1e16, -1e16]
        graph = WeightedGraph.from_edges([(i, i + 1, w) for i, w in enumerate(weights)])
        total = 0.0
        for w in weights:
            total += w
        assert edge_weight_sum(graph) == total

    def test_empty_graph(self):
        graph = WeightedGraph()
        assert graph.num_nodes() == graph.num_edges() == 0
        assert graph.edges() == []
        assert edge_weight_sum(graph) == 0.0
        assert edge_weight_sum(WeightedGraph.from_edges([], n=1)) == 0.0


def scan_rows(graph):
    """Return each node's ``(weight, neighbour)`` links in scan-column order."""
    csr = graph.csr()
    nbr, weight, _ = csr.scan_columns()
    return {
        node: [(weight[p], nbr[p]) for p in range(csr.offsets[node], csr.offsets[node + 1])]
        for node in range(csr.n)
    }


class TestSortedIncidentLinks:
    """Every node's incident links in the GHS scan order, as
    :meth:`CSRView.scan_columns` lays them out."""

    def test_distinct_weights_use_global_order(self):
        graph = WeightedGraph.from_edges([(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0)])
        links = scan_rows(graph)
        assert links[0] == [(1.0, 2), (3.0, 1)]
        assert links[1] == [(2.0, 2), (3.0, 0)]
        assert links[2] == [(1.0, 0), (2.0, 1)]

    def test_duplicate_weights_break_ties_by_repr(self):
        graph = WeightedGraph.from_edges([(0, 10, 1.0), (0, 2, 1.0)])
        # repr order: "10" < "2"
        assert [v for _, v in scan_rows(graph)[0]] == [10, 2]

    @pytest.mark.parametrize("repeated", [False, True])
    def test_scan_columns_pair_every_link(self, repeated):
        graph = WeightedGraph.from_edges(
            (u, v, 1.0 if repeated else float(i))
            for i, (u, v) in enumerate([(0, 1), (1, 2), (0, 2), (2, 3)])
        )
        csr = graph.csr()
        nbr, weight, back = csr.scan_columns()
        for node in range(csr.n):
            row = range(csr.offsets[node], csr.offsets[node + 1])
            # each row holds exactly the node's links, in (weight, repr) order
            expected = sorted(
                ((graph.weight(node, v), v) for v in neighbors(csr, node)),
                key=lambda link: (link[0], repr(link[1])),
            )
            assert [(weight[p], nbr[p]) for p in row] == expected
            for p in row:
                # the reverse entry points back here, with the same weight
                assert back[back[p]] == p
                assert back[p] != p
                assert nbr[back[p]] == node
                assert weight[back[p]] == weight[p]
