"""Unit tests for graph-property helpers."""

import pytest

from repro.topology.generators import path_graph, ring_graph
from repro.topology.graph import WeightedGraph
from repro.topology.properties import (
    breadth_first_levels,
    connected_components,
    diameter,
    is_connected,
)


class TestBFS:
    def test_levels_on_path(self):
        graph = path_graph(5)
        levels = breadth_first_levels(graph, 0)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_levels_missing_source(self):
        with pytest.raises(KeyError):
            breadth_first_levels(path_graph(3), 99)


class TestConnectivity:
    def test_connected_components_split(self):
        graph = WeightedGraph.from_edges([(0, 1), (2, 3)])
        components = connected_components(graph)
        assert sorted(sorted(c) for c in components) == [[0, 1], [2, 3]]

    def test_is_connected(self):
        assert is_connected(ring_graph(5))
        graph = WeightedGraph.from_edges([], nodes=[0, 1])
        assert not is_connected(graph)

    def test_empty_graph_is_connected(self):
        assert is_connected(WeightedGraph())


class TestDistances:
    def test_diameter_and_radius_of_path(self):
        graph = path_graph(7)
        assert diameter(graph) == 6

    def test_diameter_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            diameter(WeightedGraph())


class TestApproximateDiameter:
    def test_exact_on_paths_trees_and_rings(self):
        from repro.topology.generators import path_graph, random_tree, ring_graph
        from repro.topology.properties import approximate_diameter, diameter

        assert approximate_diameter(path_graph(17)) == 16
        tree = random_tree(40, seed=8)
        assert approximate_diameter(tree) == diameter(tree)
        # on a cycle the second sweep starts at an antipode, whose
        # eccentricity equals the true diameter
        assert approximate_diameter(ring_graph(30)) == 15
        assert approximate_diameter(ring_graph(31)) == 15

    def test_lower_bound_never_exceeds_exact(self):
        from repro.topology.generators import erdos_renyi_graph
        from repro.topology.properties import approximate_diameter, diameter

        for seed in (1, 2, 3):
            graph = erdos_renyi_graph(60, 0.08, seed=seed)
            assert approximate_diameter(graph) <= diameter(graph)

    def test_rejects_empty_and_disconnected(self):
        import pytest

        from repro.topology.graph import WeightedGraph
        from repro.topology.properties import approximate_diameter

        with pytest.raises(ValueError):
            approximate_diameter(WeightedGraph())
        disconnected = WeightedGraph.from_edges([], nodes=[0, 1])
        with pytest.raises(ValueError):
            approximate_diameter(disconnected)
