"""Tests for the lower-bound formulas (5.2) and size computation (7.3/7.4)."""

import math

import pytest

from repro.core.lower_bounds import (
    broadcast_lower_bound,
    claim4_sensitivity_trace,
    multimedia_lower_bound,
    point_to_point_lower_bound,
)
from repro.core.size_estimation import (
    compute_size_deterministically,
    estimate_size_randomized,
)
from repro.topology.generators import grid_graph, ray_graph, ring_graph
from repro.topology.properties import diameter


class TestBoundFormulas:
    def test_point_to_point_bound_is_diameter(self):
        assert point_to_point_lower_bound(17) == 17
        with pytest.raises(ValueError):
            point_to_point_lower_bound(-1)

    def test_broadcast_bound_is_half_n(self):
        assert broadcast_lower_bound(10) == 5
        assert broadcast_lower_bound(11) == 5

    def test_multimedia_bound_is_min_of_d_and_sqrt_n(self):
        assert multimedia_lower_bound(10_000, 4) == 1          # d dominates
        assert multimedia_lower_bound(64, 1000) == 2            # √n dominates
        assert multimedia_lower_bound(10_000, 1000) == 25


class TestClaim4Adversary:
    def test_horizon_tracks_min_d_sqrt_n(self):
        # wide shallow ray graph: d small, so d/4 governs
        shallow = claim4_sensitivity_trace(n=401, d=8)
        assert shallow.horizon >= 8 // 4 - 1
        # long thin ray graph: √n governs
        deep = claim4_sensitivity_trace(n=257, d=128)
        assert deep.horizon >= int(math.sqrt(257) / 4) - 1

    def test_sensitivity_is_non_increasing(self):
        trace = claim4_sensitivity_trace(n=200, d=20)
        assert all(a >= b for a, b in zip(trace.steps, trace.steps[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            claim4_sensitivity_trace(n=2, d=8)
        with pytest.raises(ValueError):
            claim4_sensitivity_trace(n=100, d=1)

    def test_matches_ray_graph_construction(self):
        graph = ray_graph(8, 8)
        trace = claim4_sensitivity_trace(graph.num_nodes(), diameter(graph))
        assert trace.horizon >= 1


class TestSizeComputation:
    def test_deterministic_size_is_exact(self):
        graph = grid_graph(6, 6)
        result = compute_size_deterministically(graph, seed=1)
        assert result.n == 36
        assert result.phases_used >= 1
        assert result.scheduling_slots > 0

    def test_deterministic_size_on_ring(self):
        graph = ring_graph(30)
        result = compute_size_deterministically(graph, seed=2)
        assert result.n == 30

    def test_randomized_estimate_reasonable(self):
        graph = grid_graph(10, 10)
        estimates = [
            estimate_size_randomized(graph, seed=seed) for seed in range(15)
        ]
        median_error = sorted(e.error_factor for e in estimates)[7]
        assert median_error <= 8
        assert all(e.true_n == 100 for e in estimates)

    def test_deterministic_size_propagates_channel_stage_bugs(self, monkeypatch):
        # only a ProtocolError means "the schedule did not fit its budget";
        # any other failure inside the channel stage is a bug and surfaces
        from repro.core import size_estimation

        def broken(*args, **kwargs):
            raise ZeroDivisionError("bug inside the channel stage")

        monkeypatch.setattr(size_estimation, "run_contention", broken)
        with pytest.raises(ZeroDivisionError, match="bug inside"):
            compute_size_deterministically(grid_graph(4, 4), seed=1)

    def test_empty_graph_rejected(self):
        from repro.topology.graph import WeightedGraph

        with pytest.raises(ValueError):
            estimate_size_randomized(WeightedGraph(), seed=0)
        with pytest.raises(ValueError):
            compute_size_deterministically(WeightedGraph(), seed=0)
