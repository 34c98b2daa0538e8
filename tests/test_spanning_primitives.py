"""Tests for tree utilities, distributed BFS and broadcast-and-respond."""

import pytest

from oracles import BFSTreeProtocol, TreeAggregationProtocol, per_node
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import (
    simulate_broadcast,
    simulate_convergecast,
    simulate_pif,
)
from repro.protocols.spanning.tree_utils import (
    breadth_first_order,
    children_map,
    members_by_root,
    node_depths,
    path_to_root,
    reroot,
    roots_of,
    subtree_sizes,
    tree_edges,
    tree_radius,
    validate_parent_map,
)
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import grid_graph, path_graph
from repro.topology.properties import breadth_first_levels


PATH_PARENTS = {0: None, 1: 0, 2: 1, 3: 2, 4: 3}
STAR_PARENTS = {0: None, 1: 0, 2: 0, 3: 0}


class TestTreeUtils:
    def test_validate_accepts_forest_and_rejects_cycles(self):
        validate_parent_map(PATH_PARENTS)
        with pytest.raises(ValueError):
            validate_parent_map({0: 1, 1: 0})
        with pytest.raises(ValueError):
            validate_parent_map({0: 5})

    def test_children_and_roots(self):
        children = children_map(STAR_PARENTS)
        assert sorted(children[0]) == [1, 2, 3]
        assert roots_of(STAR_PARENTS) == [0]

    def test_depths_and_radius(self):
        depths = node_depths(PATH_PARENTS)
        assert depths == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        assert tree_radius(PATH_PARENTS) == 4
        assert tree_radius({}) == 0

    def test_subtree_sizes(self):
        sizes = subtree_sizes(PATH_PARENTS)
        assert sizes[0] == 5 and sizes[4] == 1
        assert subtree_sizes(STAR_PARENTS)[0] == 4

    def test_tree_edges_and_members(self):
        assert len(tree_edges(PATH_PARENTS)) == 4
        members = members_by_root({**PATH_PARENTS, 10: None})
        assert sorted(members[0]) == [0, 1, 2, 3, 4]
        assert members[10] == [10]

    def test_path_to_root_and_bfs_order(self):
        assert path_to_root(PATH_PARENTS, 4) == [4, 3, 2, 1, 0]
        assert breadth_first_order(STAR_PARENTS, 0)[0] == 0

    def test_reroot_reverses_path(self):
        parents = dict(PATH_PARENTS)
        reroot(parents, list(parents), 4)
        assert parents[4] is None
        assert parents[0] == 1
        assert tree_radius(parents) == 4
        validate_parent_map(parents)

    def test_reroot_missing_node(self):
        with pytest.raises(KeyError):
            reroot(dict(PATH_PARENTS), [], 99)


class TestBuildBFSForest:
    def test_single_root_matches_reference_levels(self):
        graph = grid_graph(4, 4)
        parents, root_of, labels = build_bfs_forest(graph, [0])
        assert labels == breadth_first_levels(graph, 0)
        assert set(root_of.values()) == {0}
        validate_parent_map(parents)

    def test_multi_root_assigns_nearest(self):
        graph = path_graph(9)
        parents, root_of, labels = build_bfs_forest(graph, [0, 8])
        assert root_of[1] == 0 and root_of[7] == 8
        assert labels[4] == 4

    def test_depth_limit(self):
        graph = path_graph(10)
        _, _, labels = build_bfs_forest(graph, [0], depth_limit=3)
        assert max(labels.values()) == 3
        assert 9 not in labels

    def test_requires_valid_roots(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            build_bfs_forest(graph, [])
        with pytest.raises(ValueError):
            build_bfs_forest(graph, [17])


class TestBFSTreeProtocol:
    def test_distributed_bfs_matches_reference(self):
        graph = grid_graph(4, 4)
        inputs = {node: {"is_root": node == 0} for node in graph.nodes()}
        result = MultimediaNetwork(graph, seed=1).run(
            per_node(BFSTreeProtocol), inputs=inputs
        )
        reference = breadth_first_levels(graph, 0)
        for node, output in result.results.items():
            assert output["label"] == reference[node]
            assert output["root"] == 0

    def test_depth_limited_protocol(self):
        graph = path_graph(8)
        inputs = {
            node: {"is_root": node == 0, "depth_limit": 2} for node in graph.nodes()
        }
        result = MultimediaNetwork(graph, seed=1).run(
            per_node(BFSTreeProtocol), inputs=inputs
        )
        assert result.results[2]["label"] == 2
        assert result.results[7]["root"] is None


class TestBroadcastConvergecast:
    def test_simulated_convergecast_values_and_cost(self):
        values = {node: 1 for node in PATH_PARENTS}
        aggregates, cost = simulate_convergecast(PATH_PARENTS, values, lambda a, b: a + b)
        assert aggregates == {0: 5}
        assert cost.rounds == 4
        assert cost.messages == 4

    def test_simulated_pif_with_redistribution(self):
        values = {node: node for node in STAR_PARENTS}
        aggregates, cost = simulate_pif(
            STAR_PARENTS, values, lambda a, b: a + b, redistribute=True
        )
        assert aggregates == {0: 6}
        assert cost.rounds == 3
        assert cost.messages == 9

    def test_simulate_broadcast_cost(self):
        cost = simulate_broadcast(PATH_PARENTS)
        assert cost.rounds == 4
        assert cost.messages == 4

    def test_protocol_aggregates_sum_on_grid(self):
        graph = grid_graph(4, 4)
        parents, _, _ = build_bfs_forest(graph, [0])
        children = children_map(parents)
        inputs = {
            node: {
                "parent": parents[node],
                "children": tuple(children[node]),
                "value": 2,
                "combine": lambda a, b: a + b,
                "redistribute": True,
            }
            for node in graph.nodes()
        }
        result = MultimediaNetwork(graph, seed=1).run(
            per_node(TreeAggregationProtocol), inputs=inputs
        )
        assert all(value == 32 for value in result.results.values())

    def test_protocol_without_redistribution_only_root_knows(self):
        graph = path_graph(5)
        parents, _, _ = build_bfs_forest(graph, [0])
        children = children_map(parents)
        inputs = {
            node: {
                "parent": parents[node],
                "children": tuple(children[node]),
                "value": 1,
                "combine": lambda a, b: a + b,
            }
            for node in graph.nodes()
        }
        result = MultimediaNetwork(graph, seed=1).run(
            per_node(TreeAggregationProtocol), inputs=inputs
        )
        assert result.results[0] == 5
        assert result.results[4] is None
