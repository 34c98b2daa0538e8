"""Unit tests for weight assignment."""

from repro.topology.generators import grid_graph, ring_graph
from repro.topology.weights import assign_distinct_weights


class TestWeightAssignment:
    def test_distinct_weights_are_distinct(self):
        graph = assign_distinct_weights(grid_graph(5, 5), seed=1)
        weights = [e.weight for e in graph.edges()]
        assert len(weights) == len(set(weights))

    def test_distinct_weights_are_permutation(self):
        graph = assign_distinct_weights(ring_graph(8), seed=2)
        weights = sorted(e.weight for e in graph.edges())
        assert weights == [float(i) for i in range(1, 9)]

    def test_original_graph_untouched(self):
        graph = ring_graph(6)
        assign_distinct_weights(graph, seed=1)
        assert all(e.weight == 1.0 for e in graph.edges())
