"""Statistical tests for the random-walk engine against the exact chain solve."""

import math
import random

import pytest

from oracles import exact_mfpt
from repro.experiments.e12_random_walk_mfpt import (
    FAMILIES,
    build_family,
    fit_exponents,
    sweep_point,
)
from repro.sim.substreams import substream_seed
from repro.sim.walks import (
    WALK_SCOPE,
    hub_node,
    mean_first_passage_time,
)
from repro.topology.generators import (
    complete_graph,
    flower_graph,
    path_graph,
    ring_graph,
)
from repro.topology.graph import WeightedGraph


class TestHubNode:
    def test_flower_hub_is_a_generation_zero_node(self):
        # the original cycle nodes double their degree every generation
        assert hub_node(flower_graph(1, 3, 3)) < 4

    def test_ties_break_to_the_smallest_slot(self):
        assert hub_node(ring_graph(8)) == 0

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            hub_node(WeightedGraph())


class TestExactMFPT:
    def test_path_endpoints_closed_form(self):
        # on a path 0-1-...-k, the MFPT from the far end to node 0 is k²
        graph = path_graph(6)
        times = exact_mfpt(graph, target=0)
        assert times[0] == 0.0
        assert times[5] == pytest.approx(25.0)

    def test_complete_graph_closed_form(self):
        # from any non-target node of K_n: geometric with p = 1/(n-1)
        graph = complete_graph(7)
        times = exact_mfpt(graph, target=3)
        for u in range(7):
            expected = 0.0 if u == 3 else 6.0
            assert times[u] == pytest.approx(expected)

    def test_ring_closed_form(self):
        # on a cycle C_n, MFPT from distance d to the target is d · (n - d)
        n = 9
        graph = ring_graph(n)
        times = exact_mfpt(graph, target=0)
        for u in range(1, n):
            d = min(u, n - u)
            assert times[u] == pytest.approx(d * (n - d))

    def test_unreachable_target_is_singular(self):
        graph = WeightedGraph.from_edges([(0, 1), (2, 3)], n=4)
        with pytest.raises(ValueError):
            exact_mfpt(graph, target=0)

    def test_parameter_validation(self):
        graph = ring_graph(4)
        with pytest.raises(ValueError):
            exact_mfpt(graph, target=4)
        with pytest.raises(ValueError):
            exact_mfpt(WeightedGraph(), target=0)


class TestEngineAgainstExact:
    @pytest.mark.parametrize(
        "graph_fn", (lambda: ring_graph(12), lambda: flower_graph(1, 3, 2),
                     lambda: flower_graph(2, 2, 2), lambda: complete_graph(9)),
        ids=("ring", "flower13", "flower22", "complete"),
    )
    def test_monte_carlo_matches_the_absorbing_chain(self, graph_fn):
        # the engine's estimate must land within a few standard errors of
        # the exact uniform-start MFPT; with 600 walkers the tolerance is
        # comfortably wide of statistical noise yet catches any systematic
        # bias (an off-by-one step count, a start-distribution bug, ...)
        graph = graph_fn()
        target = hub_node(graph)
        exact = exact_mfpt(graph, target)
        n = graph.num_nodes()
        uniform_mean = sum(
            exact[u] for u in range(n) if u != target
        ) / (n - 1)
        summary = mean_first_passage_time(
            graph, target=target, walkers=600, seed=("calibration", n)
        )
        assert summary.capped == 0
        spread = math.sqrt(
            sum(
                (exact[u] - uniform_mean) ** 2
                for u in range(n) if u != target
            ) / (n - 1)
        )
        # first-passage times are roughly exponential, so their standard
        # deviation is of the order of the mean itself; take the larger
        scale = max(spread, uniform_mean)
        tolerance = 5.0 * scale / math.sqrt(600)
        assert abs(summary.mean_steps - uniform_mean) <= tolerance

    def test_walker_streams_are_batch_order_independent(self):
        # walker i's step count must equal a solo replay of its substream
        graph = flower_graph(1, 3, 2)
        target = hub_node(graph)
        seed = ("replay", 7)
        summary = mean_first_passage_time(
            graph, target=target, walkers=8, seed=seed
        )
        csr = graph.csr()
        for i in range(8):
            rng = random.Random(substream_seed(seed, WALK_SCOPE, i))
            position = rng.randrange(csr.n)
            while position == target:
                position = rng.randrange(csr.n)
            steps = 0
            while True:
                steps += 1
                lo = csr.offsets[position]
                degree = csr.offsets[position + 1] - lo
                nxt = csr.targets[lo + rng.randrange(degree)]
                if nxt == target:
                    break
                position = nxt
            assert summary.steps[i] == steps

    def test_inline_draw_is_randrange(self):
        # the engine draws a neighbour index as randrange(degree) does on
        # CPython 3.10–3.12: getrandbits(degree.bit_length()) until the value
        # is below degree.  An interpreter that draws otherwise fails here,
        # not as a silent change of every walk
        degrees = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 255, 256,
                   257, 975, 1023, 1024, 1025, 4097, 65535, 65537, 10**6, 2**31 - 1]
        for seed in range(20):
            expected = random.Random(seed)
            inline = random.Random(seed)
            for _ in range(3):
                for degree in degrees:
                    bits = degree.bit_length()
                    r = inline.getrandbits(bits)
                    while r >= degree:
                        r = inline.getrandbits(bits)
                    assert r == expected.randrange(degree), (seed, degree)
            assert inline.getstate() == expected.getstate()

    def test_step_cap_counts_and_biases_low(self):
        graph = flower_graph(2, 2, 2)
        target = hub_node(graph)
        capped = mean_first_passage_time(
            graph, target=target, walkers=32, seed=0, max_steps=2
        )
        assert capped.capped > 0
        assert capped.max_steps == 2
        assert all(s <= 2 for s in capped.steps)

    def test_default_target_is_the_hub(self):
        graph = flower_graph(1, 3, 2)
        assert mean_first_passage_time(
            graph, walkers=4, seed=1
        ).target == hub_node(graph)

    def test_parameter_validation(self):
        graph = ring_graph(4)
        with pytest.raises(ValueError):
            mean_first_passage_time(graph, walkers=0)
        with pytest.raises(ValueError):
            mean_first_passage_time(graph, target=9)
        with pytest.raises(ValueError):
            mean_first_passage_time(WeightedGraph())


class TestE12Families:
    def test_every_family_builds(self):
        for family in FAMILIES:
            graph, generation = build_family(family, 44, seed=11)
            assert graph.num_nodes() >= 4
            if "flower" in family:
                assert generation == 2
            else:
                assert generation is None
                assert graph.num_nodes() == 44

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            build_family("small_world", 44, seed=11)

    def test_rewired_flower_keeps_the_degree_sequence(self):
        base, _ = build_family("flower_22", 172, seed=11)
        rewired, _ = build_family("flower_22_rewired", 172, seed=11)

        def degrees(graph):
            csr = graph.csr()
            return sorted(
                csr.offsets[i + 1] - csr.offsets[i] for i in range(csr.n)
            )

        assert degrees(rewired) == degrees(base)

    def test_sweep_point_row_schema(self):
        row = sweep_point(44, "flower_13", walkers=4)
        assert row["n"] == 44
        assert row["generation"] == 2
        assert row["capped"] == 0
        assert row["hub_degree"] == 8
        assert row["mfpt"] > 0


class TestDistinctScalingEffect:
    def test_same_degree_sequence_distinct_mfpt_exponents(self):
        # the headline claim of arXiv:0908.0976, at tier-1 scale: the
        # fractal (2,2)-flower's MFPT-to-hub grows with a visibly larger
        # exponent than the non-fractal (1,3)-flower's, although the two
        # share their degree sequence exactly at every size swept
        rows = [
            sweep_point(n, family, walkers=32)
            for family in ("flower_13", "flower_22", "flower_22_rewired")
            for n in (44, 172, 684, 2732)
        ]
        fits = fit_exponents(rows)
        f13 = fits["flower_13"].exponent
        f22 = fits["flower_22"].exponent
        f22_rewired = fits["flower_22_rewired"].exponent
        # the walk seed is fixed, so these fits are deterministic; the
        # measured gaps (≈ 0.19 and ≈ 0.33) sit well clear of the margins
        assert f22 - f13 > 0.12
        # randomizing the fractal flower with its own degree sequence
        # collapses the scaling back towards the non-fractal regime
        assert f22 - f22_rewired > 0.2
        # sanity: all MFPTs grow with n (positive exponents)
        assert f13 > 0.0 and f22_rewired > 0.0

    def test_fit_exponents_skips_capped_rows_and_single_sizes(self):
        rows = [
            {"family": "a", "n": 10, "mfpt": 100.0, "capped": 0},
            {"family": "a", "n": 100, "mfpt": 1000.0, "capped": 0},
            {"family": "a", "n": 1000, "mfpt": 1.0, "capped": 3},
            {"family": "b", "n": 10, "mfpt": 50.0, "capped": 0},
        ]
        fits = fit_exponents(rows)
        assert set(fits) == {"a"}
        assert fits["a"].exponent == pytest.approx(1.0)
