"""Tests for tree utilities, distributed BFS and broadcast-and-respond."""

import pytest

from oracles import (
    BFSTreeProtocol,
    TreeAggregationProtocol,
    bfs_maps,
    children_map,
    per_node,
    queue_bfs_forest,
    spanning_forest,
)
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.experiments.harness import make_topology
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import grid_graph, path_graph
from repro.topology.graph import WeightedGraph


STAR_PARENTS = {0: None, 1: 0, 2: 0, 3: 0}


class TestTreeUtils:
    def test_children(self):
        children = children_map(STAR_PARENTS)
        assert sorted(children[0]) == [1, 2, 3]


class TestBuildBFSForest:
    def test_single_root_matches_reference_levels(self):
        graph = grid_graph(4, 4)
        parents, labels = bfs_maps(graph, build_bfs_forest(graph, 0))
        assert labels == queue_bfs_forest(graph, [0])[2]
        assert spanning_forest(parents).cores == (0,)

    @pytest.mark.parametrize(
        "kind,n,num_roots,depth_limit",
        (
            ("grid", 36, 1, None),
            ("ring", 24, 2, 1),
            ("geometric", 80, 3, None),
            ("scale_free", 60, 3, None),
            ("scale_free", 60, 3, 2),
            ("ad_hoc", 80, 4, 3),
        ),
    )
    def test_matches_node_at_a_time_queue(self, kind, n, num_roots, depth_limit):
        # the tree from each of the roots in turn; with a depth limit, the
        # limited queue the distributed BFS oracle is held to is that tree
        # cut at the limit
        graph = make_topology(kind, n, seed=5)
        nodes = graph.nodes()
        for root in nodes[:: len(nodes) // num_roots][:num_roots]:
            actual = bfs_maps(graph, build_bfs_forest(graph, root))
            parents, _, labels = queue_bfs_forest(graph, [root])
            for got, want in zip(actual, (parents, labels)):
                # same entries, parents included, inserted in the same order
                assert list(got.items()) == list(want.items())
            if depth_limit is not None:
                cut_parents, _, cut_labels = queue_bfs_forest(graph, [root], depth_limit)
                assert cut_labels == {
                    node: label for node, label in labels.items() if label <= depth_limit
                }
                assert cut_parents == {node: parents[node] for node in cut_labels}

    def test_returns_slot_columns(self):
        # a path 0..4 and an isolated node 5 the root does not reach
        graph = WeightedGraph.from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], n=6)
        parent, label = build_bfs_forest(graph, 1)
        assert list(parent) == [1, -1, 1, 2, 3, -1]
        assert list(label) == [1, 0, 1, 2, 3, -1]

    def test_requires_valid_roots(self):
        graph = path_graph(3)
        with pytest.raises(ValueError):
            build_bfs_forest(WeightedGraph(), 0)
        with pytest.raises(ValueError):
            build_bfs_forest(graph, 17)


class TestBFSTreeProtocol:
    def test_distributed_bfs_matches_reference(self):
        graph = grid_graph(4, 4)
        inputs = {node: {"is_root": node == 0} for node in graph.nodes()}
        result = MultimediaNetwork(graph).run(
            per_node(BFSTreeProtocol, inputs)
        )
        reference = graph.csr().bfs(0)[0]
        for node, output in result.results.items():
            assert output["label"] == reference[node]
            assert output["root"] == 0

    def test_depth_limited_protocol(self):
        graph = path_graph(8)
        inputs = {
            node: {"is_root": node == 0, "depth_limit": 2} for node in graph.nodes()
        }
        result = MultimediaNetwork(graph).run(
            per_node(BFSTreeProtocol, inputs)
        )
        assert result.results[2]["label"] == 2
        assert result.results[7]["root"] is None


class TestBroadcastConvergecast:
    def test_protocol_aggregates_sum_on_grid(self):
        graph = grid_graph(4, 4)
        parents, _ = bfs_maps(graph, build_bfs_forest(graph, 0))
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
        result = MultimediaNetwork(graph).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert all(value == 32 for value in result.results.values())

    def test_protocol_without_redistribution_only_root_knows(self):
        graph = path_graph(5)
        parents, _ = bfs_maps(graph, build_bfs_forest(graph, 0))
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
        result = MultimediaNetwork(graph).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert result.results[0] == 5
        assert result.results[4] is None
