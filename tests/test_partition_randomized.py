"""Tests for the randomized partitioning algorithm (Section 4)."""

import gc
import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles import chorded_path, damped_escalation
from repro.core.partition import randomized
from repro.core.partition.randomized import (
    RandomizedPartitioner,
    escalation_sequence,
    ln_star,
    repr_order,
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

    @pytest.mark.parametrize(
        "n", (0, 1, 2, 9, 10, 11, 99, 100, 101, 1000, 4096, 102400)
    )
    def test_repr_order_is_the_string_sort(self, n):
        assert repr_order(n) == sorted(range(n), key=repr)


def _caterpillar(spine: int = 2048) -> WeightedGraph:
    """A path of ``spine`` nodes with one leaf hanging off each."""
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(spine)]
    return WeightedGraph.from_edges(edges, n=2 * spine)


class TestKeptRoots:
    """The attempt keeps each node's tree centre as the BFS relabels it."""

    @staticmethod
    def assert_roots_follow_parents(parent, root):
        for node in range(len(parent)):
            centre = node
            while parent[centre] >= 0:
                centre = parent[centre]
            assert root[node] == (centre if root[centre] >= 0 else -1)

    @pytest.mark.parametrize(
        "build, seed",
        [(chorded_path, seed) for seed in range(4)]
        + [(_caterpillar, seed) for seed in (1, 2, 4, 5)],
    )
    def test_roots_follow_the_parents_after_every_bfs(self, monkeypatch, build, seed):
        # damped coins make these runs take several iterations, whose BFS
        # waves meet nodes labelled in earlier ones (equal labels included);
        # on the caterpillar a node that wrongly changed parent would leave
        # its leaf under the old centre
        monkeypatch.setattr(
            randomized, "escalation_sequence", damped_escalation(0.15)
        )
        seen = []
        grow = RandomizedPartitioner._grow_bfs

        def spy(self, new_centers, label, parent, root, *args):
            messages = grow(self, new_centers, label, parent, root, *args)
            seen.append((list(parent), list(root)))
            return messages

        monkeypatch.setattr(RandomizedPartitioner, "_grow_bfs", spy)
        RandomizedPartitioner(build(), seed=seed).run()
        assert len(seen) > 1
        for parent, root in seen:
            self.assert_roots_follow_parents(parent, root)

    def test_an_equal_label_from_an_earlier_iteration_keeps_its_parent(self):
        # An earlier iteration's tree under centre 0 labels the path
        # 0 - 1 - 9 - 3 - 10 - 5 - 6 by distance (Y = 3 has label 3 and
        # parent 9), with a leaf 7 under Y and leaves 2, 4, 8 under 0.
        # Node 6 (label 6) starts a new tree: its wave gives 10 label 2,
        # and in round 3 node 10 announces label 3 to Y.  That is no
        # strict improvement, so Y keeps parent 9 although repr(10) <
        # repr(9), and the leaf 7 below Y keeps centre 0.
        path = [0, 1, 9, 3, 10, 5, 6]
        edges = list(zip(path, path[1:])) + [(3, 7), (0, 2), (0, 4), (0, 8)]
        graph = WeightedGraph.from_edges(edges, n=11)
        label = [-1] * 11
        parent = [-1] * 11
        for depth, node in enumerate(path):
            label[node] = depth
            parent[node] = path[depth - 1] if depth else -1
        for leaf, above in ((7, 3), (2, 0), (4, 0), (8, 0)):
            label[leaf] = label[above] + 1
            parent[leaf] = above
        root = [0] * 11
        claimed = list(label)  # the first iteration's BFS rounds
        label[6], parent[6], root[6] = 0, -1, 6
        rank = [0] * 11
        for position, node in enumerate(repr_order(11)):
            rank[node] = position
        csr = graph.csr()
        depth_limit = 8
        RandomizedPartitioner(graph, seed=0)._grow_bfs(
            [6], label, parent, root, claimed, depth_limit,
            csr.offsets, csr.targets, bytearray(b"\x01") * len(csr.targets),
            depth_limit, rank,
        )
        assert [label[node] for node in (5, 10, 3)] == [1, 2, 3]
        assert parent[3] == 9 and parent[10] == 5
        assert root[3] == root[7] == 0
        self.assert_roots_follow_parents(parent, root)


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
            RandomizedPartitioner(WeightedGraph(), seed=0)
        disconnected = WeightedGraph.from_edges([], n=2)
        with pytest.raises(ValueError):
            RandomizedPartitioner(disconnected, seed=0)

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
