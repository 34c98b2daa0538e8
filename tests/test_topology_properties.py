"""Unit tests for graph-property helpers."""

import pytest

from oracles import diameter_by_sweep
from repro.topology.generators import (
    ad_hoc_affectance_graph,
    barabasi_albert_graph,
    erdos_renyi_graph,
    flower_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_geometric_graph,
    random_tree,
    ray_graph,
    ring_graph,
    torus_graph,
)
from repro.topology.graph import WeightedGraph
from repro.topology.properties import approximate_diameter, diameter


class TestBFS:
    def test_levels_on_path(self):
        distance, _, _ = path_graph(5).csr().bfs(0)
        assert distance == [0, 1, 2, 3, 4]

    def test_levels_missing_source(self):
        with pytest.raises(KeyError):
            path_graph(3).csr().bfs(99)


class TestConnectivity:
    def test_connected_components_split(self):
        # a BFS reaches exactly its source's component
        csr = WeightedGraph.from_edges([(0, 1), (2, 3)]).csr()
        assert csr.bfs(0)[2] == [0, 1]
        assert csr.bfs(3)[2] == [3, 2]

    def test_is_connected(self):
        assert ring_graph(5).csr().is_connected()
        graph = WeightedGraph.from_edges([], n=2)
        assert not graph.csr().is_connected()

    def test_empty_graph_is_connected(self):
        assert WeightedGraph().csr().is_connected()


class TestDistances:
    def test_diameter_and_radius_of_path(self):
        graph = path_graph(7)
        assert diameter(graph) == 6

    def test_diameter_of_empty_graph_raises(self):
        with pytest.raises(ValueError):
            diameter(WeightedGraph())


def _diameter_cases():
    """``(id, build)`` for every generator kind, from n = 1 up to a few hundred."""
    cases = []
    for n in (1, 2, 3, 4, 7, 64, 257):
        cases.append((f"path_{n}", lambda n=n: path_graph(n)))
    for n in (3, 4, 5, 16, 101, 200):
        cases.append((f"ring_{n}", lambda n=n: ring_graph(n)))
    for rows, cols in ((1, 1), (1, 2), (1, 9), (2, 2), (3, 5), (8, 8), (12, 17)):
        cases.append((f"grid_{rows}x{cols}", lambda r=rows, c=cols: grid_graph(r, c)))
    for rows, cols in ((3, 3), (3, 8), (6, 6), (10, 13)):
        cases.append((f"torus_{rows}x{cols}", lambda r=rows, c=cols: torus_graph(r, c)))
    for dimension in range(9):
        cases.append((f"hypercube_{dimension}", lambda d=dimension: hypercube_graph(d)))
    for rays, length in ((1, 1), (1, 5), (2, 1), (3, 4), (8, 8), (16, 8), (5, 30)):
        cases.append(
            (f"ray_{rays}x{length}", lambda r=rays, k=length: ray_graph(r, k))
        )
    for u, v, generations in ((1, 2, 3), (2, 2, 3), (1, 3, 2), (2, 3, 2)):
        cases.append(
            (f"flower_{u}_{v}_{generations}",
             lambda u=u, v=v, g=generations: flower_graph(u, v, g))
        )
    for seed in range(6):
        for n in (2, 3, 30, 300):
            cases.append(
                (f"scale_free_{n}_s{seed}",
                 lambda n=n, s=seed: barabasi_albert_graph(n, 1 + s % 3, seed=s))
            )
            cases.append(
                (f"geometric_{n}_s{seed}", lambda n=n, s=seed: random_geometric_graph(n, seed=s))
            )
            cases.append(
                (f"ad_hoc_{n}_s{seed}", lambda n=n, s=seed: ad_hoc_affectance_graph(n, seed=s))
            )
            cases.append((f"tree_{n}_s{seed}", lambda n=n, s=seed: random_tree(n, seed=s)))
            cases.append(
                (f"erdos_renyi_{n}_s{seed}",
                 lambda n=n, s=seed: erdos_renyi_graph(n, min(1.0, 4.0 / n), seed=s))
            )
    return cases


DIAMETER_CASES = _diameter_cases()


class TestExactDiameter:
    """The eccentricity-bound diameter against the plain per-node sweep."""

    @pytest.mark.parametrize(
        "build", [build for _, build in DIAMETER_CASES],
        ids=[name for name, _ in DIAMETER_CASES],
    )
    def test_matches_the_per_node_sweep(self, build):
        graph = build()
        assert diameter(graph) == diameter_by_sweep(graph)

    def test_closed_forms(self):
        assert diameter(path_graph(1)) == 0
        assert diameter(path_graph(2)) == 1
        assert diameter(ray_graph(64, 32)) == 64
        assert diameter(ring_graph(1024)) == 512
        assert diameter(torus_graph(16, 16)) == 16
        assert diameter(hypercube_graph(8)) == 8
        assert diameter(grid_graph(20, 30)) == 48

    @pytest.mark.parametrize(
        "graph",
        (
            WeightedGraph.from_edges([], n=2),
            WeightedGraph.from_edges([(0, 1), (2, 3)]),
            WeightedGraph.from_edges([(0, 1), (1, 2)], n=4),
            erdos_renyi_graph(40, 0.02, seed=1, ensure_connected=False),
        ),
        ids=("two_isolated", "two_edges", "isolated_label", "sparse_er"),
    )
    def test_disconnected_graphs_raise_like_the_sweep(self, graph):
        message = "eccentricity is undefined on a disconnected graph"
        with pytest.raises(ValueError, match=message):
            diameter_by_sweep(graph)
        with pytest.raises(ValueError, match=message):
            diameter(graph)


class TestApproximateDiameter:
    def test_exact_on_paths_trees_and_rings(self):
        from repro.topology.properties import approximate_diameter, diameter

        assert approximate_diameter(path_graph(17)) == 16
        tree = random_tree(40, seed=8)
        assert approximate_diameter(tree) == diameter(tree)
        # on a cycle the second sweep starts at an antipode, whose
        # eccentricity equals the true diameter
        assert approximate_diameter(ring_graph(30)) == 15
        assert approximate_diameter(ring_graph(31)) == 15

    def test_lower_bound_never_exceeds_exact(self):
        from repro.topology.properties import approximate_diameter, diameter

        for seed in (1, 2, 3):
            graph = erdos_renyi_graph(60, 0.08, seed=seed)
            assert approximate_diameter(graph) <= diameter(graph)

    def test_far_end_is_the_first_deepest_slot_visited(self):
        # a 4-cycle 0-1-4-2 with 3 hanging off 1: the sweep from 0 reaches
        # 4 before 3 at its deepest level (1's row is 4, 3, 0), and the
        # second sweep runs from 4 (eccentricity 2), not from the smaller
        # slot 3 (eccentricity 3, the diameter)
        graph = WeightedGraph.from_edges([(1, 4), (1, 3), (0, 1), (2, 4), (0, 2)])
        distance, _, order = graph.csr().bfs(0)
        assert order == [0, 1, 2, 4, 3] and distance[4] == distance[3] == 2
        assert approximate_diameter(graph) == 2
        assert diameter(graph) == 3

    def test_rejects_empty_and_disconnected(self):
        import pytest

        from repro.topology.graph import WeightedGraph
        from repro.topology.properties import approximate_diameter

        with pytest.raises(ValueError):
            approximate_diameter(WeightedGraph())
        disconnected = WeightedGraph.from_edges([], n=2)
        with pytest.raises(ValueError):
            approximate_diameter(disconnected)
