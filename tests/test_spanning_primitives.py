"""Tests for tree utilities, distributed BFS and broadcast-and-respond."""

from collections import deque

import pytest

from oracles import (
    BFSTreeProtocol,
    TreeAggregationProtocol,
    bfs_maps,
    children_map,
    per_node,
    spanning_forest,
)
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.experiments.harness import make_topology
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import grid_graph, path_graph
from repro.topology.properties import breadth_first_levels


STAR_PARENTS = {0: None, 1: 0, 2: 0, 3: 0}


class TestTreeUtils:
    def test_children(self):
        children = children_map(STAR_PARENTS)
        assert sorted(children[0]) == [1, 2, 3]


def queue_bfs_forest(graph, roots, depth_limit=None):
    """Node-at-a-time FIFO BFS from the ``repr``-sorted roots: the visit
    order ``build_bfs_forest`` must reproduce."""
    parents, root_of, labels = {}, {}, {}
    queue = deque()
    for root in sorted(roots, key=repr):
        parents[root] = None
        root_of[root] = root
        labels[root] = 0
        queue.append(root)
    while queue:
        node = queue.popleft()
        if depth_limit is not None and labels[node] >= depth_limit:
            continue
        for neighbor in graph.neighbors(node):
            if neighbor not in labels:
                labels[neighbor] = labels[node] + 1
                parents[neighbor] = node
                root_of[neighbor] = root_of[node]
                queue.append(neighbor)
    return parents, root_of, labels


class TestBuildBFSForest:
    def test_single_root_matches_reference_levels(self):
        graph = grid_graph(4, 4)
        parents, root_of, labels = bfs_maps(graph, build_bfs_forest(graph, [0]))
        assert labels == breadth_first_levels(graph, 0)
        assert set(root_of.values()) == {0}
        assert spanning_forest(parents).cores == [0]

    def test_multi_root_assigns_nearest(self):
        graph = path_graph(9)
        parents, root_of, labels = bfs_maps(graph, build_bfs_forest(graph, [0, 8]))
        assert root_of[1] == 0 and root_of[7] == 8
        assert labels[4] == 4

    def test_depth_limit(self):
        graph = path_graph(10)
        _, _, labels = bfs_maps(graph, build_bfs_forest(graph, [0], depth_limit=3))
        assert max(labels.values()) == 3
        assert 9 not in labels

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
        graph = make_topology(kind, n, seed=5)
        nodes = graph.nodes()
        roots = nodes[:: len(nodes) // num_roots][:num_roots]
        expected = queue_bfs_forest(graph, roots, depth_limit)
        actual = bfs_maps(graph, build_bfs_forest(graph, roots, depth_limit))
        for got, want in zip(actual, expected):
            # same entries, parents included, inserted in the same order
            assert list(got.items()) == list(want.items())

    def test_matches_node_at_a_time_queue_on_labelled_graph(self):
        graph = make_topology("scale_free", 40, seed=2)
        graph = graph.relabeled({node: f"n{node:02d}" for node in graph.nodes()})
        roots = ["n07", "n31", "n00"]
        expected = queue_bfs_forest(graph, roots)
        actual = bfs_maps(graph, build_bfs_forest(graph, roots))
        for got, want in zip(actual, expected):
            assert list(got.items()) == list(want.items())

    def test_returns_slot_columns(self):
        graph = path_graph(6)
        parent, root, label = build_bfs_forest(graph, [1], depth_limit=3)
        assert [column.typecode for column in (parent, root, label)] == ["q"] * 3
        # node 5 is beyond the depth limit: -1 in every column
        assert list(parent) == [1, -1, 1, 2, 3, -1]
        assert list(root) == [1, 1, 1, 1, 1, -1]
        assert list(label) == [1, 0, 1, 2, 3, -1]

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
            per_node(BFSTreeProtocol, inputs)
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
            per_node(BFSTreeProtocol, inputs)
        )
        assert result.results[2]["label"] == 2
        assert result.results[7]["root"] is None


class TestBroadcastConvergecast:
    def test_protocol_aggregates_sum_on_grid(self):
        graph = grid_graph(4, 4)
        parents, _, _ = bfs_maps(graph, build_bfs_forest(graph, [0]))
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
            per_node(TreeAggregationProtocol, inputs)
        )
        assert all(value == 32 for value in result.results.values())

    def test_protocol_without_redistribution_only_root_knows(self):
        graph = path_graph(5)
        parents, _, _ = bfs_maps(graph, build_bfs_forest(graph, [0]))
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
            per_node(TreeAggregationProtocol, inputs)
        )
        assert result.results[0] == 5
        assert result.results[4] is None
