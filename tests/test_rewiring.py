"""Property tests for the degree-preserving rewiring step (e12's randomizer)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.topology.generators import (
    barabasi_albert_graph,
    degree_preserving_rewire,
    flower_generations_for,
    flower_graph,
    flower_size,
    path_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph

from test_csr_graph import assert_csr_symmetric

SRC = str(Path(__file__).resolve().parent.parent / "src")


def degree_sequence(graph):
    """Sorted slot-degree sequence straight from the CSR offsets."""
    csr = graph.csr()
    return sorted(
        csr.offsets[i + 1] - csr.offsets[i] for i in range(csr.n)
    )


def edge_set(graph):
    """Frozenset of normalized edge pairs."""
    return {
        (edge.u, edge.v) if edge.u < edge.v else (edge.v, edge.u)
        for edge in graph.edges()
    }


class TestDegreeInvariance:
    @pytest.mark.parametrize("seed", (0, 1, 2, 7))
    def test_scale_free_degrees_exactly_preserved(self, seed):
        graph = barabasi_albert_graph(200, attachment=2, seed=3)
        rewired = degree_preserving_rewire(graph, seed=seed)
        assert degree_sequence(rewired) == degree_sequence(graph)
        assert rewired.num_edges() == graph.num_edges()

    @pytest.mark.parametrize("params", ((1, 3), (2, 2)))
    def test_flower_degrees_exactly_preserved(self, params):
        u, v = params
        graph = flower_graph(u, v, 3)
        rewired = degree_preserving_rewire(graph, seed=5)
        assert degree_sequence(rewired) == degree_sequence(graph)

    def test_per_slot_degrees_preserved_not_just_the_multiset(self):
        # double-edge swaps fix every endpoint's degree individually
        graph = barabasi_albert_graph(128, attachment=3, seed=1)
        rewired = degree_preserving_rewire(graph, seed=9)
        before = graph.csr()
        after = rewired.csr()
        for i in range(before.n):
            assert (
                after.offsets[i + 1] - after.offsets[i]
                == before.offsets[i + 1] - before.offsets[i]
            )

    def test_no_self_loops_or_parallel_edges(self):
        graph = ring_graph(64)
        rewired = degree_preserving_rewire(graph, swaps=2000, seed=2)
        edges = list(rewired.edges())
        normalized = [
            (e.u, e.v) if e.u < e.v else (e.v, e.u) for e in edges
        ]
        assert all(u != v for u, v in normalized)
        assert len(normalized) == len(set(normalized))

    def test_actually_rewires_something(self):
        graph = barabasi_albert_graph(200, attachment=2, seed=3)
        rewired = degree_preserving_rewire(graph, seed=0)
        assert edge_set(rewired) != edge_set(graph)

    def test_unit_weights_on_output(self):
        graph = barabasi_albert_graph(64, attachment=2, seed=3)
        rewired = degree_preserving_rewire(graph, seed=0)
        assert all(edge.weight == 1 for edge in rewired.edges())


class TestConnectivity:
    @pytest.mark.parametrize("seed", (0, 1, 2, 3, 4))
    def test_connected_input_stays_connected(self, seed):
        graph = barabasi_albert_graph(300, attachment=2, seed=11)
        rewired = degree_preserving_rewire(graph, seed=seed)
        assert rewired.csr().is_connected()

    def test_path_graph_fragile_case_stays_connected(self):
        # a path is the easiest graph to disconnect by a bad swap
        graph = path_graph(50)
        rewired = degree_preserving_rewire(graph, swaps=500, seed=7)
        assert rewired.csr().is_connected()
        assert degree_sequence(rewired) == degree_sequence(graph)

    def test_disconnected_input_is_still_rewired(self):
        graph = WeightedGraph.from_edges(
            ((0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (7, 4)), n=8
        )
        rewired = degree_preserving_rewire(graph, swaps=200, seed=1)
        assert degree_sequence(rewired) == degree_sequence(graph)


class TestDeterminism:
    def test_same_seed_same_graph(self):
        graph = barabasi_albert_graph(150, attachment=2, seed=5)
        first = degree_preserving_rewire(graph, seed=42)
        second = degree_preserving_rewire(graph, seed=42)
        assert edge_set(first) == edge_set(second)

    def test_different_seeds_differ(self):
        graph = barabasi_albert_graph(150, attachment=2, seed=5)
        assert edge_set(
            degree_preserving_rewire(graph, seed=0)
        ) != edge_set(degree_preserving_rewire(graph, seed=1))

    def test_deterministic_across_processes(self):
        # the swap stream must not depend on hash randomization: the rewire
        # in a fresh interpreter under a different PYTHONHASHSEED must emit
        # the exact same edge list
        script = (
            "from repro.topology.generators import "
            "barabasi_albert_graph, degree_preserving_rewire\n"
            "g = degree_preserving_rewire("
            "barabasi_albert_graph(100, attachment=2, seed=5), seed=42)\n"
            "print(sorted((min(e.u, e.v), max(e.u, e.v)) "
            "for e in g.edges()))\n"
        )
        outputs = set()
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hashseed)
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1
        graph = barabasi_albert_graph(100, attachment=2, seed=5)
        local = degree_preserving_rewire(graph, seed=42)
        expected = repr(sorted(edge_set(local))) + "\n"
        assert outputs == {expected}


class TestCSRDifferential:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_rewired_identity_graph_csr_is_symmetric(self, seed):
        graph = barabasi_albert_graph(80, attachment=2, seed=4)
        rewired = degree_preserving_rewire(graph, seed=seed)
        assert_csr_symmetric(rewired)

    def test_swap_count_validation(self):
        graph = ring_graph(8)
        with pytest.raises(ValueError):
            degree_preserving_rewire(graph, swaps=-1, seed=0)


class TestFlowerFamilies:
    def test_flower_size_recurrence(self):
        # nodes_{g+1} = nodes_g + (w - 2) · edges_g, edges_{g+1} = w · edges_g
        assert [flower_size(1, 3, g) for g in range(5)] == [
            4, 12, 44, 172, 684,
        ]
        assert [flower_size(2, 2, g) for g in range(5)] == [
            4, 12, 44, 172, 684,
        ]

    def test_generations_for_picks_the_largest_fitting(self):
        assert flower_generations_for(1, 3, 172) == 3
        assert flower_generations_for(1, 3, 683) == 3
        assert flower_generations_for(2, 2, 684) == 4
        assert flower_generations_for(1, 3, 1) == 0

    @pytest.mark.parametrize("g", (0, 1, 2, 3))
    def test_same_degree_sequence_across_the_w4_family(self, g):
        # the literal premise of arXiv:0908.0976: (1,3)- and (2,2)-flowers
        # of equal generation share one degree sequence exactly
        f13 = flower_graph(1, 3, g)
        f22 = flower_graph(2, 2, g)
        assert degree_sequence(f13) == degree_sequence(f22)
        assert f13.num_nodes() == f22.num_nodes() == flower_size(1, 3, g)

    def test_flowers_are_connected(self):
        for u, v in ((1, 3), (2, 2)):
            assert flower_graph(u, v, 3).csr().is_connected()

    def test_nonfractal_flower_has_smaller_diameter(self):
        from repro.topology.properties import diameter

        # u = 1 keeps every original edge as a shortcut; u = 2 stretches
        # distances by 2 per generation
        assert diameter(flower_graph(1, 3, 3)) < diameter(
            flower_graph(2, 2, 3)
        )

    def test_flower_csr_is_symmetric(self):
        assert_csr_symmetric(flower_graph(1, 3, 3))
        assert_csr_symmetric(flower_graph(2, 2, 3))

    def test_flower_parameter_validation(self):
        with pytest.raises(ValueError):
            flower_graph(0, 3, 2)
        with pytest.raises(ValueError):
            flower_graph(1, 3, -1)
        with pytest.raises(ValueError):
            flower_graph(1, 0, 2)
