"""Unit tests for the weighted graph data structure."""

import functools

import pytest

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
    def test_add_nodes_and_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(1, 2, 4.0)
        assert graph.num_nodes() == 3
        assert graph.num_edges() == 2
        assert graph.weight(0, 1) == 3.0
        assert graph.weight(1, 0) == 3.0

    def test_self_loops_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            graph.add_edge(1, 1)

    def test_duplicate_edge_overwrites_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 1, 9.0)
        assert graph.num_edges() == 1
        assert graph.weight(0, 1) == 9.0

    def test_remove_edge(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.remove_edge(0, 1)
        assert graph.num_edges() == 0
        assert not graph.has_edge(0, 1)

    def test_remove_missing_edge_raises(self):
        graph = WeightedGraph()
        graph.add_node(0)
        graph.add_node(1)
        with pytest.raises(KeyError):
            graph.remove_edge(0, 1)

    def test_weight_missing_edge_raises(self):
        graph = WeightedGraph()
        graph.add_nodes([0, 1])
        with pytest.raises(KeyError):
            graph.weight(0, 1)

    def test_neighbors_and_degree(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.add_edge(0, 2)
        assert set(graph.neighbors(0)) == {1, 2}
        assert graph.degree(0) == 2
        assert graph.degree(1) == 1

    def test_edges_listed_once(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 0)
        assert len(graph.edges()) == 3

    def test_incident_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(0, 2, 3.0)
        incident = graph.incident_edges(0)
        assert {e.other(0) for e in incident} == {1, 2}
        assert sorted(e.weight for e in incident) == [2.0, 3.0]

    def test_copy_is_independent(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        clone = graph.copy()
        clone.add_edge(1, 2)
        assert graph.num_edges() == 1
        assert clone.num_edges() == 2

    def test_subgraph(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.add_edge(2, 3)
        sub = graph.subgraph([0, 1, 2])
        assert sub.num_nodes() == 3
        assert sub.num_edges() == 2
        assert not sub.has_node(3)

    def test_relabeled_default_enumeration(self):
        graph = WeightedGraph()
        graph.add_edge("a", "b", 7.0)
        renamed = graph.relabeled()
        assert set(renamed.nodes()) == {0, 1}
        assert renamed.weight(0, 1) == 7.0

    def test_relabeled_rejects_collapsed_self_loop(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        with pytest.raises(ValueError):
            graph.relabeled({0: "x", 1: "x", 2: "y"})

    def test_relabeled_merging_mapping_recounts_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(2, 3, 5.0)
        renamed = graph.relabeled({0: "a", 1: "b", 2: "a", 3: "b"})
        assert renamed.num_edges() == 1
        assert renamed.total_weight() == 5.0  # last weight wins, as add_edge

    def test_container_protocol(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        assert 0 in graph
        assert len(graph) == 2
        assert sorted(iter(graph)) == [0, 1]

    def test_total_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 5.0)
        assert graph.total_weight() == 7.0

    def test_set_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.set_weight(0, 1, 11.0)
        assert graph.weight(1, 0) == 11.0
        with pytest.raises(KeyError):
            graph.set_weight(0, 2, 1.0)


class TestIncrementalTotalWeight:
    """total_weight() is maintained incrementally; every mutation must land."""

    def test_add_and_remove(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 5.0)
        assert graph.total_weight() == 7.0
        graph.remove_edge(0, 1)
        assert graph.total_weight() == 5.0

    def test_overwrite_via_add_edge(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(0, 1, 9.0)
        assert graph.total_weight() == 9.0

    def test_set_weight_updates_total(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 2.0)
        graph.add_edge(1, 2, 3.0)
        graph.set_weight(0, 1, 10.0)
        assert graph.total_weight() == 13.0

    def test_matches_edge_sum_after_mixed_mutations(self):
        graph = WeightedGraph()
        for i in range(6):
            graph.add_edge(i, i + 1, float(i + 1))
        graph.remove_edge(2, 3)
        graph.set_weight(0, 1, 0.5)
        graph.add_edge(0, 6, 4.0)
        assert graph.total_weight() == pytest.approx(
            sum(edge.weight for edge in graph.edges())
        )

    def test_empty_graph(self):
        graph = WeightedGraph()
        graph.add_node(0)
        assert graph.total_weight() == 0.0

    def test_removing_last_edge_clears_float_residue(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 0.1)
        graph.add_edge(2, 3, 0.2)
        graph.remove_edge(0, 1)
        graph.remove_edge(2, 3)
        assert graph.total_weight() == 0.0


class TestCacheInvalidation:
    """The cached whole-graph views must reflect every later mutation."""

    def test_edges_after_add(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        assert len(graph.edges()) == 1  # populate the cache
        graph.add_edge(1, 2, 2.0)
        keys = {edge.key() for edge in graph.edges()}
        assert keys == {(0, 1), (1, 2)}

    def test_edges_after_remove(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        graph.add_edge(1, 2)
        graph.edges()
        graph.remove_edge(0, 1)
        assert [edge.key() for edge in graph.edges()] == [(1, 2)]

    def test_edges_after_set_weight(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        graph.edges()
        graph.set_weight(0, 1, 42.0)
        assert graph.edges()[0].weight == 42.0

    def test_total_weight_after_cached_edges(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        assert graph.total_weight() == 1.0
        graph.edges()
        graph.add_edge(1, 2, 2.0)
        assert graph.total_weight() == 3.0
        graph.set_weight(0, 1, 5.0)
        assert graph.total_weight() == 7.0

    def test_returned_edge_list_is_a_private_copy(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1)
        listing = graph.edges()
        listing.clear()
        assert len(graph.edges()) == 1

    def test_derived_graphs_after_mutation(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        graph.edges()
        graph.add_edge(1, 2, 2.0)
        assert graph.copy().num_edges() == 2
        assert graph.subgraph([0, 1, 2]).num_edges() == 2

    def test_neighbor_views_reflect_mutation(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 1.0)
        view = graph.iter_neighbors(0)
        graph.add_edge(0, 2, 2.0)
        assert list(view) == [1, 2]
        assert dict(graph.neighbor_items(0)) == {1: 1.0, 2: 2.0}


class TestSortedIncidentLinks:
    def test_distinct_weights_use_global_order(self):
        graph = WeightedGraph()
        graph.add_edge(0, 1, 3.0)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 2.0)
        links = sorted_incident_links(graph)
        assert [(w, v) for w, v, _ in links[0]] == [(1.0, 2), (3.0, 1)]
        assert [(w, v) for w, v, _ in links[2]] == [(1.0, 0), (2.0, 1)]
        # the canonical key rides along with every link
        assert links[0][0][2] == edge_key(0, 2)

    def test_duplicate_weights_break_ties_by_repr(self):
        graph = WeightedGraph()
        graph.add_edge(0, 10, 1.0)
        graph.add_edge(0, 2, 1.0)
        links = sorted_incident_links(graph)
        # repr order: "10" < "2"
        assert [v for _, v, _ in links[0]] == [10, 2]

    @pytest.mark.parametrize("repeated", [False, True])
    def test_scan_columns_pair_every_link(self, repeated):
        graph = WeightedGraph()
        for i, (u, v) in enumerate([("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]):
            graph.add_edge(u, v, 1.0 if repeated else float(i))
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
