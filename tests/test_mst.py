"""Tests for the MST algorithms (Kruskal reference, multimedia, p2p baseline)."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import p2p_mst_by_dicts, same_tree, spanning_tree_weight

from repro.analysis.complexity import mst_time_bound
from repro.core.mst.ghs_baseline import PointToPointMST
from repro.core.mst.kruskal import kruskal_mst
from repro.core.mst.multimedia_mst import MultimediaMST
from repro.experiments.harness import make_topology
from repro.topology.generators import (
    erdos_renyi_graph,
    grid_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.weights import assign_distinct_weights

try:
    import networkx as nx
except ImportError:  # pragma: no cover
    nx = None


class TestKruskal:
    def test_simple_triangle(self):
        graph = WeightedGraph.from_edges([(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])
        mst = kruskal_mst(graph)
        assert mst.total_weight == 3.0
        assert len(mst) == 2

    def test_disconnected_rejected(self):
        graph = WeightedGraph.from_edges([(0, 1)], n=3)
        with pytest.raises(ValueError):
            kruskal_mst(graph)

    def test_ring_drops_heaviest(self):
        graph = assign_distinct_weights(ring_graph(6), seed=3)
        mst = kruskal_mst(graph)
        assert len(mst) == 5
        heaviest = max(graph.edges(), key=lambda e: e.weight)
        assert heaviest.key() not in mst.edge_keys()
        assert mst.total_weight == sum(e.weight for e in mst.edges)

    def test_spanning_tree_weight_helper(self):
        graph = assign_distinct_weights(ring_graph(5), seed=1)
        mst = kruskal_mst(graph)
        assert spanning_tree_weight(graph, mst.edge_keys()) == mst.total_weight

    @pytest.mark.skipif(nx is None, reason="networkx unavailable")
    def test_matches_networkx(self):
        graph = assign_distinct_weights(erdos_renyi_graph(40, 0.1, seed=3), seed=3)
        ours = kruskal_mst(graph)
        reference = nx.Graph()
        for edge in graph.edges():
            reference.add_edge(edge.u, edge.v, weight=edge.weight)
        expected = sum(
            data["weight"] for _, _, data in nx.minimum_spanning_edges(reference, data=True)
        )
        assert ours.total_weight == pytest.approx(expected)


class TestMultimediaMST:
    def test_exact_mst_on_grid(self, medium_grid):
        result = MultimediaMST(medium_grid).run()
        reference = kruskal_mst(medium_grid)
        assert same_tree(result.mst, reference)
        assert result.initial_fragments >= 1
        assert result.merge_phases

    def test_exact_mst_on_ring(self):
        graph = assign_distinct_weights(ring_graph(64), seed=7)
        result = MultimediaMST(graph).run()
        assert same_tree(result.mst, kruskal_mst(graph))

    def test_time_within_constant_of_bound(self, medium_grid):
        result = MultimediaMST(medium_grid).run()
        assert result.total_rounds <= 40 * mst_time_bound(medium_grid.num_nodes())

    def test_phases_halve_current_fragments(self, medium_grid):
        result = MultimediaMST(medium_grid).run()
        for record in result.merge_phases:
            assert record.current_fragments_after <= record.current_fragments_before

    def test_repeated_weights_rejected(self):
        graph = ring_graph(6)  # unit weights, all equal
        with pytest.raises(ValueError):
            MultimediaMST(graph)

    def test_disconnected_rejected(self):
        graph = WeightedGraph.from_edges([(0, 1, 1.0)], n=3)
        with pytest.raises(ValueError):
            MultimediaMST(graph)

    @given(st.integers(min_value=3, max_value=8), st.integers(min_value=0, max_value=60))
    @settings(max_examples=12, deadline=None)
    def test_property_matches_kruskal_on_random_grids(self, side, seed):
        graph = assign_distinct_weights(grid_graph(side, side), seed=seed)
        result = MultimediaMST(graph).run()
        assert same_tree(result.mst, kruskal_mst(graph))


#: graphs the slot-column baseline must run exactly like the dict engine:
#: every e9 topology kind at several sizes, and a sparse Erdős–Rényi graph
BASELINE_CASES = [
    f"{kind}_{n}"
    for kind in ("ring", "grid", "geometric", "scale_free", "ad_hoc")
    for n in (2, 3, 17, 64, 300, 1024)
] + [
    "ring_4096", "grid_4096", "scale_free_4096",
    "erdos_renyi_200",
]


def build_case(case):
    """Return the weighted graph named by a ``BASELINE_CASES`` entry."""
    kind, _, n = case.rpartition("_")
    n = int(n)
    if kind == "erdos_renyi":
        return assign_distinct_weights(erdos_renyi_graph(n, 0.03, seed=4), seed=4)
    return make_topology(kind, n, seed=11)


class TestPointToPointBaseline:
    def test_exact_mst(self, medium_grid):
        result = PointToPointMST(medium_grid).run()
        assert same_tree(result.mst, kruskal_mst(medium_grid))
        assert result.phases >= 1

    def test_exact_mst_on_sparse_random_graph(self):
        graph = assign_distinct_weights(erdos_renyi_graph(60, 0.06, seed=8), seed=8)
        result = PointToPointMST(graph).run()
        assert same_tree(result.mst, kruskal_mst(graph))

    def test_multimedia_faster_on_large_ring(self):
        # the crossover sits between n ≈ 1k and 2k on rings (see
        # docs/experiments.md, E9): beyond it the multimedia algorithm's
        # O(√n log n) time beats the point-to-point baseline's Θ(n log n),
        # with the gap growing with n
        graph = assign_distinct_weights(ring_graph(2048), seed=2)
        multimedia = MultimediaMST(graph).run()
        baseline = PointToPointMST(graph).run()
        assert same_tree(multimedia.mst, baseline.mst)
        assert multimedia.total_rounds < baseline.total_rounds

    def test_repeated_weights_rejected(self):
        with pytest.raises(ValueError):
            PointToPointMST(ring_graph(5))

    @pytest.mark.parametrize("case", BASELINE_CASES)
    def test_matches_the_dict_engine(self, case):
        graph = build_case(case)
        result = PointToPointMST(graph).run()
        reference = p2p_mst_by_dicts(graph)
        assert result.mst.edges == reference.mst.edges
        assert result.mst.total_weight == reference.mst.total_weight
        assert result.metrics == reference.metrics
        assert result.phases == reference.phases

