"""Unit tests for the topology generators."""

import math

import pytest

from oracles import ad_hoc_links_all_pairs, degree, geometric_pairs_all_pairs
from repro.topology.generators import (
    _geometric_links,
    ad_hoc_affectance_graph,
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
    random_tree,
    ray_graph,
    ray_graph_for,
    ring_graph,
    torus_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.properties import diameter


def component_count(n, pairs):
    """The number of connected components of ``pairs`` over ``n`` nodes."""
    csr = WeightedGraph.from_edges(pairs, n=n).csr()
    seen = set()
    count = 0
    for start in range(n):
        if start not in seen:
            count += 1
            seen.update(csr.bfs(start)[2])
    return count


class TestBasicTopologies:
    def test_path_counts(self):
        graph = path_graph(10)
        assert graph.num_nodes() == 10
        assert graph.num_edges() == 9
        assert diameter(graph) == 9

    def test_path_requires_positive_size(self):
        with pytest.raises(ValueError):
            path_graph(0)

    def test_ring_counts_and_diameter(self):
        graph = ring_graph(10)
        assert graph.num_edges() == 10
        assert diameter(graph) == 5

    def test_ring_minimum_size(self):
        with pytest.raises(ValueError):
            ring_graph(2)

    def test_complete_graph(self):
        graph = complete_graph(6)
        assert graph.num_edges() == 15
        assert diameter(graph) == 1

    def test_grid_counts(self):
        graph = grid_graph(3, 4)
        assert graph.num_nodes() == 12
        assert graph.num_edges() == 3 * 3 + 2 * 4
        assert diameter(graph) == 5

    def test_torus_is_regular(self):
        graph = torus_graph(4, 4)
        assert all(degree(graph, v) == 4 for v in graph.nodes())

    def test_hypercube(self):
        graph = hypercube_graph(4)
        assert graph.num_nodes() == 16
        assert graph.num_edges() == 32
        assert diameter(graph) == 4


class TestRandomTopologies:
    def test_random_tree_is_a_tree(self):
        graph = random_tree(50, seed=4)
        assert graph.num_edges() == 49
        assert graph.csr().is_connected()

    def test_random_tree_deterministic_given_seed(self):
        first = random_tree(30, seed=9)
        second = random_tree(30, seed=9)
        assert {e.key() for e in first.edges()} == {e.key() for e in second.edges()}

    def test_erdos_renyi_connected(self):
        graph = erdos_renyi_graph(40, 0.05, seed=1)
        assert graph.csr().is_connected()
        assert graph.num_nodes() == 40

    def test_erdos_renyi_probability_validated(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5, seed=0)

    def test_geometric_connected(self):
        graph = random_geometric_graph(60, seed=2)
        assert graph.csr().is_connected()
        assert graph.num_nodes() == 60


class TestGeometricBuckets:
    """The cell-bucketed geometric links are exactly the all-pairs scan's
    pairs, in its ascending ``(u, v)`` order; the generator adds only the
    bridges that stitch their components together."""

    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize(
        "radius", (None, 0.0, 0.003, 0.05, 0.2, 0.7, 1.5, -0.2, math.nan, math.inf)
    )
    @pytest.mark.parametrize("n", (1, 2, 17, 240))
    def test_matches_the_all_pairs_scan(self, n, radius, seed):
        if radius is not None and not radius >= 0:
            # a NaN or negative radius names no graph: the generator and the
            # all-pairs reference both refuse it
            for build in (_geometric_links, geometric_pairs_all_pairs):
                with pytest.raises(ValueError, match="radius"):
                    build(n, radius, seed)
            return
        edge_u, edge_v, _, _ = _geometric_links(n, radius, seed)
        assert list(zip(edge_u, edge_v)) == geometric_pairs_all_pairs(n, radius, seed)

    @pytest.mark.parametrize("n, seed", ((1200, 3), (2000, 7)))
    def test_matches_at_the_default_radius(self, n, seed):
        edge_u, edge_v, _, _ = _geometric_links(n, None, seed)
        assert list(zip(edge_u, edge_v)) == geometric_pairs_all_pairs(n, None, seed)

    @pytest.mark.parametrize("radius", (0.0, 0.12, None))
    def test_the_graph_is_the_links_plus_bridges(self, radius):
        links = geometric_pairs_all_pairs(60, radius, 1)
        graph = random_geometric_graph(60, radius, seed=1)
        edge_u, edge_v, _ = graph.csr().canonical_edges()
        edges = set(zip(edge_u, edge_v))
        assert set(links) <= edges
        assert len(edges) - len(links) == component_count(60, links) - 1
        assert graph.csr().is_connected()

    @pytest.mark.parametrize("radius", (-0.2, -math.inf, math.nan))
    def test_rejects_a_negative_or_nan_radius(self, radius):
        # on the stitched path too, which would otherwise bridge whatever
        # the bad radius built into a connected graph
        with pytest.raises(ValueError, match="radius"):
            random_geometric_graph(50, radius=radius, seed=1)


class TestRayGraph:
    def test_shape(self):
        graph = ray_graph(4, 5)
        assert graph.num_nodes() == 21
        assert degree(graph, 0) == 4
        assert diameter(graph) == 10

    def test_single_ray_is_a_path(self):
        graph = ray_graph(1, 6)
        assert graph.num_edges() == 6
        assert diameter(graph) == 6

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ray_graph(0, 3)
        with pytest.raises(ValueError):
            ray_graph(3, 0)

    def test_ray_graph_for_targets(self):
        graph = ray_graph_for(n=65, diameter=16)
        assert diameter(graph) == 16
        assert abs(graph.num_nodes() - 65) <= 16

    def test_leaves_have_degree_one(self):
        graph = ray_graph(3, 4)
        leaves = [v for v in graph.nodes() if degree(graph, v) == 1]
        assert len(leaves) == 3


class TestBarabasiAlbert:
    def test_counts_and_connectivity(self):
        graph = barabasi_albert_graph(500, attachment=2, seed=7)
        assert graph.num_nodes() == 500
        # every node after the seed stage contributes exactly `attachment` edges
        assert graph.num_edges() == 2 * (500 - 2)
        assert graph.csr().is_connected()

    def test_degree_distribution_is_heavy_tailed(self):
        graph = barabasi_albert_graph(2000, attachment=2, seed=11)
        degrees = sorted(degree(graph, v) for v in graph.nodes())
        n = len(degrees)
        # every non-seed node has degree >= attachment
        assert degrees[0] >= 1
        assert degrees[n // 2] <= 4  # median stays near the attachment count
        # preferential attachment must concentrate mass on a few hubs: the
        # largest hub dwarfs the median degree and the uniform-random level
        assert degrees[-1] >= 10 * degrees[n // 2]
        # power-law sanity: the top decile holds a disproportionate share
        top_decile = sum(degrees[-n // 10:])
        assert top_decile >= 0.25 * sum(degrees)

    def test_deterministic_under_seed(self):
        a = barabasi_albert_graph(300, seed=5)
        b = barabasi_albert_graph(300, seed=5)
        assert a.edges() == b.edges()
        c = barabasi_albert_graph(300, seed=6)
        assert a.edges() != c.edges()

    def test_small_n_degenerates_to_complete(self):
        graph = barabasi_albert_graph(3, attachment=2, seed=1)
        assert graph.num_edges() == 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(0, seed=0)
        with pytest.raises(ValueError):
            barabasi_albert_graph(10, attachment=0, seed=0)


class TestAdHocAffectance:
    def test_connected_and_sparse(self):
        graph = ad_hoc_affectance_graph(400, seed=3)
        assert graph.num_nodes() == 400
        assert graph.csr().is_connected()
        # the default range keeps the network in the Θ(log n) degree regime,
        # far sparser than the plain geometric default
        average_degree = 2 * graph.num_edges() / graph.num_nodes()
        assert 3 <= average_degree <= 40

    def test_deterministic_under_seed(self):
        a = ad_hoc_affectance_graph(300, seed=9)
        b = ad_hoc_affectance_graph(300, seed=9)
        assert a.edges() == b.edges()
        c = ad_hoc_affectance_graph(300, seed=10)
        assert a.edges() != c.edges()

    @staticmethod
    def _links(n, **options):
        """The in-range links: the graph's edges but its stitching bridges,
        whose affectance (the link weight) exceeds 1."""
        graph = ad_hoc_affectance_graph(n, **options)
        return {edge.key() for edge in graph.edges() if edge.weight <= 1.0}

    def test_links_respect_the_smaller_range(self):
        # the same seed draws the same positions and the same range
        # fractions, so growing base_range can only add links (the link rule
        # is distance <= min of the two ranges, both proportional to base)
        narrow = self._links(200, seed=4, power_spread=2.0, base_range=0.08)
        wide = self._links(200, seed=4, power_spread=2.0, base_range=0.16)
        assert 0 < len(narrow) < len(wide)
        assert narrow <= wide
        # a larger power spread raises both endpoints' ranges (same draws),
        # so it can only add links as well
        boosted = self._links(200, seed=4, power_spread=3.0, base_range=0.08)
        assert narrow <= boosted

    def test_range_extremes(self):
        # ranges covering the whole unit square link every pair; ranges
        # smaller than any inter-node gap link none, and the graph is all
        # bridges, one fewer than the stations
        everyone = ad_hoc_affectance_graph(40, seed=2, base_range=2.0)
        assert everyone.num_edges() == 40 * 39 // 2
        assert len(self._links(40, seed=2, base_range=2.0)) == 40 * 39 // 2
        nobody = ad_hoc_affectance_graph(40, seed=2, base_range=1e-9)
        assert nobody.num_edges() == 39
        assert not self._links(40, seed=2, base_range=1e-9)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ad_hoc_affectance_graph(0, seed=0)
        with pytest.raises(ValueError):
            ad_hoc_affectance_graph(10, seed=0, power_spread=0.5)


class TestAdHocAffectanceExposure:
    """Every link's weight is its affectance."""

    @pytest.mark.parametrize(
        "n, options",
        ((96, {"seed": 5}), (200, {"seed": 4, "base_range": 0.05})),
    )
    def test_weights_match_the_all_pairs_scan(self, n, options):
        # the in-range links and their affectances, bit for bit, are the
        # all-pairs scan's over the same draws; every other edge is a bridge
        weights = {
            edge.key(): edge.weight
            for edge in ad_hoc_affectance_graph(n, **options).edges()
        }
        links = ad_hoc_links_all_pairs(n, **options)
        assert links.keys() <= weights.keys()
        assert {edge: weights[edge] for edge in links} == links
        assert all(weights[edge] > 1.0 for edge in weights.keys() - links.keys())

    def test_in_range_links_have_affectance_at_most_one(self):
        # α = distance / min(range_u, range_v): ≤ 1 for genuine radio links,
        # > 1 only on the stitched connectivity bridges — one fewer than
        # the components the radio links leave
        graph = ad_hoc_affectance_graph(200, seed=4, base_range=0.05)
        links = [edge.key() for edge in graph.edges() if edge.weight <= 1.0]
        bridges = graph.num_edges() - len(links)
        assert links and bridges
        assert all(edge.weight > 0.0 for edge in graph.edges())
        assert bridges == component_count(200, links) - 1

    def test_stitched_bridges_exceed_one(self):
        # with a tiny range, connectivity stitching must add out-of-range
        # bridges, and their affectance reflects that
        graph = ad_hoc_affectance_graph(40, seed=2, base_range=1e-6)
        assert graph.num_edges() > 0
        assert all(edge.weight > 1.0 for edge in graph.edges())
