"""Unit tests for weight assignment."""

import pytest

from repro.topology.generators import grid_graph, ring_graph
from repro.topology.graph import WeightedGraph
from repro.topology.weights import (
    assign_distinct_weights,
    assign_random_weights,
    ensure_distinct_weights,
    weight_bits,
)


class TestWeightAssignment:
    def test_distinct_weights_are_distinct(self):
        graph = assign_distinct_weights(grid_graph(5, 5), seed=1)
        weights = [e.weight for e in graph.edges()]
        assert len(weights) == len(set(weights))

    def test_distinct_weights_are_permutation(self):
        graph = assign_distinct_weights(ring_graph(8), seed=2)
        weights = sorted(e.weight for e in graph.edges())
        assert weights == [float(i) for i in range(1, 9)]

    def test_random_weights_in_range(self):
        graph = assign_random_weights(ring_graph(10), low=2.0, high=3.0, seed=5)
        assert all(2.0 <= e.weight <= 3.0 for e in graph.edges())

    def test_random_weights_validate_range(self):
        with pytest.raises(ValueError):
            assign_random_weights(ring_graph(4), low=5.0, high=1.0)

    def test_ensure_distinct_preserves_order(self):
        graph = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 5.0)])
        adjusted = ensure_distinct_weights(graph)
        weights = [e.weight for e in adjusted.edges()]
        assert len(set(weights)) == 3
        assert adjusted.weight(2, 3) > adjusted.weight(0, 1)

    def test_weight_bits(self):
        graph = WeightedGraph.from_edges([(0, 1, 200.0)])
        assert weight_bits(graph) == 8

    def test_original_graph_untouched(self):
        graph = ring_graph(6)
        assign_distinct_weights(graph, seed=1)
        assert all(e.weight == 1.0 for e in graph.edges())

