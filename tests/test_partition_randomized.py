"""Tests for the randomized partitioning algorithm (Section 4)."""

import gc
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partition import randomized
from repro.core.partition.randomized import (
    RandomizedPartitioner,
    escalation_sequence,
    ln_star,
)
from repro.core.partition.validation import validate_partition
from repro.sim.errors import ProtocolError
from repro.sim.metrics import MetricsRecorder
from repro.topology.generators import grid_graph, ring_graph
from repro.topology.graph import WeightedGraph


class TestHelpers:
    def test_ln_star_values(self):
        assert ln_star(1) == 0
        assert ln_star(2) == 1
        assert ln_star(15) == 2
        assert ln_star(1_000_000) == 3

    def test_ln_star_rejects_non_positive(self):
        with pytest.raises(ValueError):
            ln_star(0)

    def test_escalation_sequence_is_a_tower(self):
        values = escalation_sequence(4)
        assert values[0] == 1.0
        assert values[1] == pytest.approx(math.e)
        assert values[2] == pytest.approx(math.exp(math.e))
        assert values[3] > values[2]


class TestPartition:
    def test_structure_and_radius_bound(self, medium_grid):
        n = medium_grid.num_nodes()
        result = RandomizedPartitioner(medium_grid, seed=1).run()
        report = validate_partition(
            result.forest, medium_grid, max_radius_bound=4 * math.sqrt(n)
        )
        assert report.ok, report.violations

    def test_expected_tree_count_is_order_sqrt_n(self):
        graph = grid_graph(12, 12)
        counts = [
            RandomizedPartitioner(graph, seed=seed).run().num_fragments
            for seed in range(6)
        ]
        sqrt_n = math.sqrt(graph.num_nodes())
        assert sum(counts) / len(counts) <= 4 * sqrt_n

    def test_every_node_covered_on_ring(self):
        graph = ring_graph(60)
        result = RandomizedPartitioner(graph, seed=3).run()
        assert result.forest.num_nodes() == 60
        report = validate_partition(result.forest, graph)
        assert report.ok

    def test_reproducible_given_seed(self, medium_grid):
        first = RandomizedPartitioner(medium_grid, seed=9).run()
        second = RandomizedPartitioner(medium_grid, seed=9).run()
        assert first.forest.parent == second.forest.parent
        assert first.metrics.rounds == second.metrics.rounds

    def test_different_seeds_can_differ(self, medium_grid):
        first = RandomizedPartitioner(medium_grid, seed=1).run()
        second = RandomizedPartitioner(medium_grid, seed=2).run()
        assert (
            first.forest.parent != second.forest.parent
            or first.num_fragments != second.num_fragments
            or True  # identical outcomes are possible, the test only checks no crash
        )

    def test_iteration_records_are_consistent(self, medium_grid):
        result = RandomizedPartitioner(medium_grid, seed=5).run()
        assert result.iterations
        for record in result.iterations:
            assert record.free_after <= record.free_before
            assert 0.0 < record.head_probability <= 1.0

    def test_rejects_bad_graphs(self):
        with pytest.raises(ValueError):
            RandomizedPartitioner(WeightedGraph())
        disconnected = WeightedGraph.from_edges([], n=2)
        with pytest.raises(ValueError):
            RandomizedPartitioner(disconnected)

    @given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_property_radius_bound_holds_on_grids(self, side, seed):
        graph = grid_graph(side, side)
        result = RandomizedPartitioner(graph, seed=seed).run()
        n = graph.num_nodes()
        assert result.forest.max_radius() <= 4 * math.sqrt(n)
        assert result.forest.num_nodes() == n


class TestLasVegas:
    def test_verification_usually_accepts(self, medium_grid):
        result = RandomizedPartitioner(medium_grid, seed=2, las_vegas=True).run()
        assert result.verified
        assert result.restarts <= 2

    def test_las_vegas_output_still_valid(self, medium_grid):
        result = RandomizedPartitioner(medium_grid, seed=4, las_vegas=True).run()
        report = validate_partition(result.forest, medium_grid)
        assert report.ok

    def test_monte_carlo_does_not_verify(self, medium_grid):
        result = RandomizedPartitioner(medium_grid, seed=4, las_vegas=False).run()
        assert result.verified is False
        assert result.restarts == 0

    def test_verification_rejects_only_protocol_errors(self, medium_grid, monkeypatch):
        # a ProtocolError from the channel is a rejected forest: restart
        real_contention = randomized.run_contention
        failures = [ProtocolError("unresolved")]

        def failing_once(*args, **kwargs):
            if failures:
                raise failures.pop()
            return real_contention(*args, **kwargs)

        monkeypatch.setattr(randomized, "run_contention", failing_once)
        metrics = MetricsRecorder()
        result = RandomizedPartitioner(
            medium_grid, seed=2, las_vegas=True, metrics=metrics
        ).run()
        assert result.verified
        assert result.restarts == 1
        assert_no_phase(metrics)

        # any other exception is a bug and must propagate, phase reset
        def broken(*args, **kwargs):
            raise TypeError("bug inside the contention layer")

        monkeypatch.setattr(randomized, "run_contention", broken)
        metrics = MetricsRecorder()
        partitioner = RandomizedPartitioner(
            medium_grid, seed=2, las_vegas=True, metrics=metrics
        )
        with pytest.raises(TypeError, match="bug inside"):
            partitioner.run()
        assert_no_phase(metrics)
        # the run's collector pause ends on the raise too
        assert gc.isenabled()


def assert_no_phase(metrics):
    """A round recorded now is charged to no phase."""
    before = dict(metrics.phase_rounds)
    metrics.record_round(1)
    assert metrics.phase_rounds == before


class TestCollectorPause:
    """The iteration loop holds the cyclic collector and always gives it back
    (the raise path is checked in ``test_verification_rejects_only_protocol_errors``)."""

    def test_enabled_after_a_normal_return(self, medium_grid):
        RandomizedPartitioner(medium_grid, seed=2, las_vegas=True).run()
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, medium_grid):
        gc.disable()
        try:
            RandomizedPartitioner(medium_grid, seed=2, las_vegas=True).run()
            assert not gc.isenabled()
        finally:
            gc.enable()
