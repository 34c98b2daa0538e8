"""Tests for the fragment/forest data structures and the partition validators."""

import math

import pytest

from oracles import parent_map, spanning_forest
from repro.core.partition.forest import SpanningForest
from repro.core.partition.validation import validate_partition
from repro.topology.generators import grid_graph, path_graph
from repro.topology.weights import assign_distinct_weights


def path_forest():
    """Two fragments covering a 6-node path: {0,1,2} rooted at 0, {3,4,5} at 5."""
    return spanning_forest({0: None, 1: 0, 2: 1, 5: None, 4: 5, 3: 4})


class TestFragment:
    def test_basic_properties(self):
        forest = spanning_forest({0: None, 1: 0, 2: 1, 3: 1})
        assert forest.size(0) == 4
        assert forest.max_radius() == 2
        assert forest.num_nodes() == 4
        assert (3, 1) in forest.tree_edges()

    def test_singleton_default(self):
        forest = spanning_forest({0: None})
        assert forest.size(0) == 1
        assert forest.max_radius() == 0

    def test_core_is_the_root(self):
        forest = spanning_forest({1: 0, 0: None})
        assert forest.cores == (0,)
        assert forest.root[1] == 0

    def test_constructor_rejects_cycle_and_missing_parent(self):
        with pytest.raises(ValueError, match="cycle"):
            spanning_forest({0: None, 1: 2, 2: 1})
        with pytest.raises(ValueError, match="not in the map"):
            spanning_forest({0: None, 1: 5})
        with pytest.raises(ValueError, match="out of range"):
            SpanningForest([-1, 2])


class TestSpanningForest:
    def test_lookup_and_statistics(self):
        forest = path_forest()
        assert forest.num_fragments() == 2
        assert forest.num_nodes() == 6
        assert forest.root[2] == 0
        assert forest.root[4] == 5
        assert forest.max_radius() == 2
        assert forest.min_size() == 3

    def test_forest_beyond_the_network_reported(self):
        forest = SpanningForest([-1, 0, -1])
        report = validate_partition(forest, path_graph(2))
        assert not report.covers_all_nodes
        assert report.violations == ["1 forest node(s) not in the network"]

    def test_from_parent_map_round_trip(self):
        parents = {0: None, 1: 0, 2: 1, 5: None, 4: 5, 3: 4}
        forest = spanning_forest(parents)
        assert forest.num_fragments() == 2
        assert parent_map(forest) == parents

    def test_order_contract(self):
        # cores in first-appearance order over the nodes; the parent map
        # and tree edges grouped by core, members in ascending order
        forest = spanning_forest({3: 2, 1: None, 2: None, 4: 1, 0: 3})
        assert forest.cores == (2, 1)
        assert list(parent_map(forest)) == [0, 2, 3, 1, 4]
        assert forest.tree_edges() == [(0, 3), (3, 2), (4, 1)]
        assert forest.root == (2, 1, 2, 2, 1)

    @pytest.mark.parametrize("bad", (-2, -5))
    def test_parent_below_minus_one_rejected(self, bad):
        # -1 is the only root marker: any other negative slot is garbage,
        # not a second way to spell a core
        with pytest.raises(ValueError, match="out of range"):
            SpanningForest([bad, 0, 1])
        with pytest.raises(ValueError, match="out of range"):
            SpanningForest([-1, bad, 1])


class TestValidatePartition:
    def test_valid_partition_passes(self):
        graph = assign_distinct_weights(path_graph(6), seed=1)
        report = validate_partition(path_forest(), graph, check_mst_subtrees=True)
        assert report.ok
        assert report.subtrees_of_mst is True
        assert report.covers_all_nodes

    def test_missing_node_detected(self):
        graph = path_graph(7)
        report = validate_partition(path_forest(), graph)
        assert not report.ok
        assert not report.covers_all_nodes

    def test_non_link_tree_edge_detected(self):
        graph = path_graph(6)
        bad = spanning_forest(
            {0: None, 2: 0, 1: None, 3: None, 4: 3, 5: 4}
        )
        report = validate_partition(bad, graph)
        assert not report.edges_exist
        assert not report.ok

    def test_bound_violations_reported(self):
        graph = grid_graph(4, 4)
        singletons = spanning_forest(dict.fromkeys(graph.nodes()))
        report = validate_partition(
            singletons, graph,
            min_size_bound=math.sqrt(16),
            max_fragments_bound=math.sqrt(16),
        )
        assert not report.ok
        assert any("fragments" in v for v in report.violations)

    def test_ratios(self):
        graph = path_graph(6)
        report = validate_partition(path_forest(), graph)
        assert report.sqrt_n == pytest.approx(math.sqrt(6))
        assert report.num_fragments == 2
        assert report.min_size > report.sqrt_n
