"""Tests for the deterministic partitioning algorithm (Section 3)."""

import gc
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.complexity import (
    det_partition_message_bound,
    det_partition_time_bound,
)
from repro.core.partition import deterministic
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.forest import SpanningForest
from repro.core.partition.validation import validate_partition
from repro.protocols.symmetry.cole_vishkin import log_star
from repro.topology.generators import (
    erdos_renyi_graph,
    grid_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.weights import assign_distinct_weights


def partition(graph, **kwargs):
    return DeterministicPartitioner(graph, **kwargs).run()


class TestInvariants:
    def test_grid_partition_meets_all_paper_bounds(self, medium_grid):
        result = partition(medium_grid)
        n = medium_grid.num_nodes()
        report = validate_partition(
            result.forest,
            medium_grid,
            check_mst_subtrees=True,
            min_size_bound=math.sqrt(n),
            max_radius_bound=8 * math.sqrt(n),
            max_fragments_bound=math.sqrt(n),
        )
        assert report.ok, report.violations

    def test_ring_partition(self):
        graph = assign_distinct_weights(ring_graph(100), seed=4)
        result = partition(graph)
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=10, max_radius_bound=80,
        )
        assert report.ok, report.violations

    def test_sparse_random_graph(self):
        graph = assign_distinct_weights(erdos_renyi_graph(90, 0.04, seed=2), seed=2)
        result = partition(graph)
        n = graph.num_nodes()
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=math.sqrt(n), max_radius_bound=8 * math.sqrt(n),
        )
        assert report.ok, report.violations

    def test_geometric_graph(self):
        graph = assign_distinct_weights(random_geometric_graph(80, seed=6), seed=6)
        result = partition(graph)
        report = validate_partition(result.forest, graph, check_mst_subtrees=True)
        assert report.ok

    def test_empty_network_passes_the_mst_check(self):
        report = validate_partition(
            SpanningForest([]), WeightedGraph(), check_mst_subtrees=True
        )
        assert report.ok and report.subtrees_of_mst

    def test_single_node_network(self):
        graph = WeightedGraph.from_edges([], n=1)
        result = partition(graph)
        assert result.forest.num_fragments() == 1

    def test_two_node_network(self):
        graph = WeightedGraph.from_edges([(0, 1, 1.0)])
        result = partition(graph)
        assert result.forest.num_fragments() == 1

    def test_levels_grow_per_phase(self, medium_grid):
        result = partition(medium_grid)
        for record in result.phases:
            if record.active_fragments:
                assert record.fragments_after < record.fragments_before

    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_property_random_grids_meet_bounds(self, side, seed):
        graph = assign_distinct_weights(grid_graph(side, side), seed=seed)
        result = partition(graph)
        n = graph.num_nodes()
        report = validate_partition(
            result.forest, graph, check_mst_subtrees=True,
            min_size_bound=math.sqrt(n), max_radius_bound=8 * math.sqrt(n),
            max_fragments_bound=math.sqrt(n),
        )
        assert report.ok, report.violations


class TestComplexity:
    def test_time_within_constant_of_bound(self, medium_grid):
        result = partition(medium_grid)
        bound = det_partition_time_bound(medium_grid.num_nodes())
        assert result.metrics.rounds <= 40 * bound

    def test_messages_within_constant_of_bound(self, medium_grid):
        result = partition(medium_grid)
        bound = det_partition_message_bound(
            medium_grid.num_nodes(), medium_grid.num_edges()
        )
        assert result.metrics.point_to_point_messages <= 12 * bound

    def test_synchronized_phases_charge_at_least_busy_time(self, medium_grid):
        result = partition(medium_grid)
        assert result.metrics.rounds >= result.busy_rounds
        # every phase is padded to the paper's precomputed length
        log_star_n = max(1, log_star(max(2, medium_grid.num_nodes())))
        for record in result.phases:
            assert record.charged_rounds == max(
                record.busy_rounds, 5 * 2 ** record.phase * log_star_n
            )
        assert sum(record.charged_rounds for record in result.phases) == result.metrics.rounds
        assert any(record.charged_rounds > record.busy_rounds for record in result.phases)

    def test_phase_count_is_logarithmic(self, medium_grid):
        result = partition(medium_grid)
        assert len(result.phases) <= math.ceil(math.log2(result.target_size)) + 1


class TestTargetSize:
    def test_custom_target_size(self, medium_grid):
        result = partition(medium_grid, target_size=4)
        assert result.forest.min_size() >= 4
        assert result.target_size == 4

    def test_target_larger_than_default_gives_fewer_fragments(self, medium_grid):
        small = partition(medium_grid, target_size=4).forest.num_fragments()
        large = partition(medium_grid, target_size=16).forest.num_fragments()
        assert large <= small

    def test_invalid_inputs_rejected(self):
        graph = WeightedGraph()
        with pytest.raises(ValueError):
            DeterministicPartitioner(graph)
        disconnected = WeightedGraph.from_edges([], n=2)
        with pytest.raises(ValueError):
            DeterministicPartitioner(disconnected)

    def test_determinism(self, medium_grid):
        first = partition(medium_grid)
        second = partition(medium_grid)
        assert first.forest.parent == second.forest.parent
        assert first.metrics.rounds == second.metrics.rounds


def _tied_graph(seed, n=300, m=446):
    """A connected graph whose ``m`` links all weigh 1.0, in shuffled order.

    Node ``v`` hangs off a random earlier node, in a random orientation;
    random extra pairs fill up the rest.
    """
    rng = random.Random(seed)
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v) if rng.random() < 0.5 else (v, u))
    present = {frozenset(edge) for edge in edges}
    while len(edges) < m:
        pair = rng.sample(range(n), 2)
        if frozenset(pair) not in present:
            present.add(frozenset(pair))
            edges.append(tuple(pair))
    rng.shuffle(edges)
    return WeightedGraph.from_edges([(u, v, 1.0) for u, v in edges], n=n)


class TestTiedWeights:
    """Ties that close a cycle of minimum outgoing links name their cause."""

    @pytest.mark.parametrize("seed", [48, 111, 175])
    def test_a_cycle_of_tied_links_is_reported(self, seed):
        with pytest.raises(ValueError, match=r"tied link weights.*assign_distinct_weights"):
            partition(_tied_graph(seed))

    @pytest.mark.parametrize("seed", [48, 111, 175])
    def test_distinct_weights_partition_the_same_graph(self, seed):
        graph = assign_distinct_weights(_tied_graph(seed), seed=seed)
        result = partition(graph)
        report = validate_partition(result.forest, graph, check_mst_subtrees=True,
                                    min_size_bound=result.target_size)
        assert report.ok, report.violations

    def test_ties_without_a_cycle_still_partition(self):
        graph = _tied_graph(0)
        result = partition(graph)
        report = validate_partition(result.forest, graph,
                                    min_size_bound=result.target_size)
        assert report.ok, report.violations


class TestCollectorPause:
    """The phase loop holds the cyclic collector and always gives it back."""

    def test_enabled_after_a_normal_return(self, medium_grid):
        partition(medium_grid)
        assert gc.isenabled()

    def test_enabled_after_a_raise(self, medium_grid, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the link scan")

        monkeypatch.setattr(deterministic, "find_min_outgoing_links", broken)
        with pytest.raises(TypeError, match="bug inside"):
            partition(medium_grid)
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, medium_grid):
        gc.disable()
        try:
            partition(medium_grid)
            assert not gc.isenabled()
        finally:
            gc.enable()
