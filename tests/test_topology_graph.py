"""Unit tests for the weighted graph data structure."""

import functools

import pytest

from oracles import edge_weight_sum
from repro.topology.graph import Edge, WeightedGraph, edge_key, sorted_incident_links


@functools.total_ordering
class _ComparableCollidingRepr:
    """Distinct comparable values whose reprs all collide.

    The seed ``edge_key`` ordered endpoints by repr alone, so two distinct
    nodes with equal reprs produced *different* canonical keys depending on
    the argument order — the same physical link could be tracked twice.
    """

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "node"

    def __hash__(self):
        return hash(self.tag)

    def __eq__(self, other):
        return isinstance(other, _ComparableCollidingRepr) and self.tag == other.tag

    def __lt__(self, other):
        return self.tag < other.tag


class TestEdge:
    def test_other_endpoint(self):
        edge = Edge(1, 2, 5.0)
        assert edge.other(1) == 2
        assert edge.other(2) == 1

    def test_other_rejects_non_endpoint(self):
        with pytest.raises(ValueError):
            Edge(1, 2).other(3)

    def test_key_is_canonical(self):
        assert Edge(2, 1).key() == Edge(1, 2).key()
        assert edge_key(5, 3) == edge_key(3, 5)


class TestEdgeKey:
    def test_comparable_nodes_ordered_by_value(self):
        # direct comparison, not repr order ("10" < "2" lexicographically)
        assert edge_key(10, 2) == (2, 10)
        assert edge_key(2, 10) == (2, 10)

    def test_colliding_reprs_of_comparable_nodes_are_consistent(self):
        a = _ComparableCollidingRepr(1)
        b = _ComparableCollidingRepr(2)
        assert repr(a) == repr(b)
        assert edge_key(a, b) == edge_key(b, a)
        assert edge_key(a, b) == (a, b)

    def test_incomparable_nodes_fall_back_to_type_and_repr(self):
        assert edge_key(1, "1") == edge_key("1", 1)
        assert edge_key((0, 1), "x") == edge_key("x", (0, 1))

    def test_string_nodes(self):
        assert edge_key("b", "a") == ("a", "b")

    def test_partial_order_without_strict_comparison_is_consistent(self):
        # disjoint frozensets: a < b and b < a are both False without raising
        a, b = frozenset({1}), frozenset({2})
        assert edge_key(a, b) == edge_key(b, a)


class TestWeightedGraph:
    def test_from_edges(self):
        graph = WeightedGraph.from_edges([(0, 1, 3.0), (1, 2, 4.0)])
        assert graph.num_nodes() == 3
        assert graph.num_edges() == 2
        assert graph.weight(0, 1) == 3.0
        assert graph.weight(1, 0) == 3.0

    def test_unweighted_edges_get_unit_weight(self):
        graph = WeightedGraph.from_edges([("a", "b"), ("b", "c", 2.5)])
        assert graph.weight("a", "b") == 1.0
        assert edge_weight_sum(graph) == 3.5

    def test_node_order_is_nodes_then_first_appearance(self):
        graph = WeightedGraph.from_edges([(3, 1), (1, 4), (5, 3)], nodes=[9, 1])
        assert graph.nodes() == [9, 1, 3, 4, 5]
        assert list(graph) == graph.nodes()

    def test_rows_follow_the_edge_stream(self):
        graph = WeightedGraph.from_edges([(0, 3), (2, 0), (0, 1), (3, 1)])
        assert graph.neighbors(0) == [3, 2, 1]
        assert graph.neighbors(3) == [0, 1]
        assert list(graph.iter_neighbors(1)) == [0, 3]

    def test_identity_labels_need_no_translation(self):
        assert WeightedGraph.from_edges([(0, 1), (1, 2)]).csr().identity
        assert not WeightedGraph.from_edges([(1, 0), (1, 2)]).csr().identity
        assert not WeightedGraph.from_edges([(0.0, 1.0)]).csr().identity

    def test_self_loops_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([(0, 1), (1, 1)])

    @pytest.mark.parametrize("repeat", [(0, 1, 9.0), (1, 0)])
    def test_repeated_edge_rejected(self, repeat):
        with pytest.raises(ValueError):
            WeightedGraph.from_edges([(0, 1, 1.0), (1, 2), repeat])

    def test_weight_missing_edge_raises(self):
        graph = WeightedGraph.from_edges([], nodes=[0, 1])
        with pytest.raises(KeyError):
            graph.weight(0, 1)
        with pytest.raises(KeyError):
            graph.weight(0, 7)

    def test_has_edge(self):
        graph = WeightedGraph.from_edges([("a", "b"), ("b", "c")])
        assert graph.has_edge("a", "b")
        assert graph.has_edge("c", "b")
        assert not graph.has_edge("a", "c")
        assert not graph.has_edge("a", "a")
        assert not graph.has_edge("a", "zz")

    def test_edge_lookup_scans_either_row(self):
        # hub 0 has the long row; both argument orders find every spoke
        graph = WeightedGraph.from_edges([(0, i, float(i)) for i in range(1, 8)])
        for i in range(1, 8):
            assert graph.weight(0, i) == graph.weight(i, 0) == float(i)

    def test_neighbors_and_degree(self):
        graph = WeightedGraph.from_edges([(0, 1), (0, 2)])
        assert set(graph.neighbors(0)) == {1, 2}
        assert graph.degree(0) == 2
        assert graph.degree(1) == 1

    @pytest.mark.parametrize("labels", [lambda i: i, str])
    def test_unknown_node_queries_raise(self, labels):
        graph = WeightedGraph.from_edges([(labels(0), labels(1))])
        for query in (graph.neighbors, graph.iter_neighbors, graph.degree):
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

    def test_relabeled_default_enumeration(self):
        graph = WeightedGraph.from_edges([("a", "b", 7.0)])
        renamed = graph.relabeled()
        assert set(renamed.nodes()) == {0, 1}
        assert renamed.weight(0, 1) == 7.0
        assert renamed.csr().identity

    def test_relabeled_rebuilds_rows_from_canonical_edges(self):
        graph = WeightedGraph.from_edges([(0, 2), (1, 2), (0, 1)], nodes=range(3))
        assert graph.neighbors(2) == [0, 1]
        assert graph.neighbors(1) == [2, 0]
        renamed = graph.relabeled({0: "x", 1: "y", 2: "z"})
        assert renamed.nodes() == ["x", "y", "z"]
        assert renamed.neighbors("y") == ["x", "z"]
        assert [e.key() for e in renamed.edges()] == [("x", "z"), ("x", "y"), ("y", "z")]

    @pytest.mark.parametrize(
        "mapping", [{0: "x", 1: "x", 2: "y"}, {0: "a", 1: "b", 2: "a"}]
    )
    def test_relabeled_rejects_non_injective_mapping(self, mapping):
        graph = WeightedGraph.from_edges([(0, 1, 2.0), (1, 2, 3.0)])
        with pytest.raises(ValueError):
            graph.relabeled(mapping)

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
        assert edge_weight_sum(WeightedGraph.from_edges([], nodes=[0])) == 0.0


class TestSortedIncidentLinks:
    def test_distinct_weights_use_global_order(self):
        graph = WeightedGraph.from_edges([(0, 1, 3.0), (0, 2, 1.0), (1, 2, 2.0)])
        links = sorted_incident_links(graph)
        assert [(w, v) for w, v, _ in links[0]] == [(1.0, 2), (3.0, 1)]
        assert [(w, v) for w, v, _ in links[2]] == [(1.0, 0), (2.0, 1)]
        # the canonical key rides along with every link
        assert links[0][0][2] == edge_key(0, 2)

    def test_duplicate_weights_break_ties_by_repr(self):
        graph = WeightedGraph.from_edges([(0, 10, 1.0), (0, 2, 1.0)])
        links = sorted_incident_links(graph)
        # repr order: "10" < "2"
        assert [v for _, v, _ in links[0]] == [10, 2]

    @pytest.mark.parametrize("repeated", [False, True])
    def test_scan_columns_pair_every_link(self, repeated):
        graph = WeightedGraph.from_edges(
            (u, v, 1.0 if repeated else float(i))
            for i, (u, v) in enumerate([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")])
        )
        csr = graph.csr()
        nbr, weight, back = csr.scan_columns()
        links = sorted_incident_links(graph)
        for i, node in enumerate(csr.nodes):
            row = range(csr.offsets[i], csr.offsets[i + 1])
            assert [(weight[p], csr.nodes[nbr[p]]) for p in row] == [
                (w, v) for w, v, _ in links[node]
            ]
            for p in row:
                # the reverse entry points back here, with the same weight
                assert back[back[p]] == p
                assert nbr[back[p]] == i
                assert weight[back[p]] == weight[p]
        # one key object per physical link, shared by both entries
        assert links["a"][0][2] is links["b"][0][2]
