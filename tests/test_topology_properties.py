"""Unit tests for graph-property helpers."""

from collections import deque

import pytest

from repro.topology.generators import (
    barabasi_albert_graph,
    grid_graph,
    path_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.properties import (
    bfs_tree_parents,
    breadth_first_levels,
    connected_components,
    diameter,
    eccentricity,
    graph_radius,
    is_connected,
    shortest_path_lengths,
    tree_radius_from_root,
)


def queue_bfs_parents(graph, source):
    """Node-at-a-time FIFO BFS parent map: the reference visit order."""
    parents = {source: None}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in parents:
                parents[neighbor] = node
                queue.append(neighbor)
    return parents


class TestBFS:
    def test_levels_on_path(self):
        graph = path_graph(5)
        levels = breadth_first_levels(graph, 0)
        assert levels == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}

    def test_levels_missing_source(self):
        with pytest.raises(KeyError):
            breadth_first_levels(path_graph(3), 99)

    @pytest.mark.parametrize(
        "graph,source",
        (
            (barabasi_albert_graph(50, 2, seed=4), 0),
            (random_geometric_graph(60, seed=3), 17),
            (grid_graph(5, 5).relabeled(
                {node: f"g{node}" for node in range(25)}), "g12"),
        ),
        ids=("barabasi_albert", "geometric", "labelled_grid"),
    )
    def test_bfs_tree_parents_match_node_at_a_time_queue(self, graph, source):
        parents = bfs_tree_parents(graph, source)
        assert list(parents.items()) == list(queue_bfs_parents(graph, source).items())

    def test_bfs_tree_parents(self):
        graph = grid_graph(3, 3)
        parents = bfs_tree_parents(graph, 0)
        assert parents[0] is None
        assert len(parents) == 9
        # every non-root's parent is one hop closer to the root
        levels = breadth_first_levels(graph, 0)
        for node, parent in parents.items():
            if parent is not None:
                assert levels[parent] == levels[node] - 1


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
        assert graph_radius(graph) == 3

    def test_eccentricity(self):
        graph = path_graph(5)
        assert eccentricity(graph, 0) == 4
        assert eccentricity(graph, 2) == 2

    def test_eccentricity_disconnected_raises(self):
        graph = WeightedGraph.from_edges([], nodes=[0, 1])
        with pytest.raises(ValueError):
            eccentricity(graph, 0)

    def test_diameter_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            diameter(WeightedGraph())

    def test_all_pairs(self):
        graph = ring_graph(6)
        lengths = shortest_path_lengths(graph)
        assert lengths[0][3] == 3
        assert lengths[2][5] == 3


class TestTreeRadius:
    def test_radius_from_parent_map(self):
        parents = {0: None, 1: 0, 2: 1, 3: 1}
        assert tree_radius_from_root(parents, 0) == 2

    def test_cycle_detection(self):
        parents = {0: 1, 1: 0}
        with pytest.raises(ValueError):
            tree_radius_from_root(parents, 0)


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
