"""Tests for Cole–Vishkin, GPS 3-colouring and the MIS recolouring.

The kernels take a forest held in columns: vertices ``0..k-1`` and
``parent[v]`` the parent's position (``-1`` for a root).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import is_independent_set, is_legal_coloring, is_maximal_independent_set
from repro.protocols.symmetry.cole_vishkin import (
    cole_vishkin_columns,
    color_bit_length,
    colors_after_step,
    log_star,
)
from repro.protocols.symmetry.mis import RED, mis_columns
from repro.protocols.symmetry.three_coloring import three_color_columns


def random_rooted_forest(num_nodes: int, seed: int, num_roots: int = 1):
    """Return a random rooted forest as a parent column over 0..num_nodes-1."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    parent = [-1] * num_nodes
    for index in range(num_roots, num_nodes):
        parent[nodes[index]] = nodes[rng.randrange(index)]
    return parent


def path_forest(num_nodes: int):
    """A path rooted at vertex 0."""
    return [-1] + list(range(num_nodes - 1))


forest_strategy = st.builds(
    random_rooted_forest,
    num_nodes=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    num_roots=st.integers(min_value=1, max_value=4),
)


def sparse_identifiers(parent, seed):
    """Distinct ints drawn from [0, 10^6), as F's core slots are."""
    return random.Random(seed).sample(range(10**6), len(parent))


#: ``(parent, identifiers)``: the enumeration ``0..k-1`` as identifiers, and
#: the sparse int core slots the partitioner's F uses directly
identified_forest_strategy = st.one_of(
    forest_strategy.map(lambda parent: (parent, range(len(parent)))),
    forest_strategy.flatmap(
        lambda parent: st.builds(
            lambda seed: (parent, sparse_identifiers(parent, seed)),
            st.integers(0, 10_000),
        )
    ),
)


def red_set(colors):
    """The red vertices of a final MIS colouring."""
    return {vertex for vertex, color in enumerate(colors) if color == RED}


class TestLogStar:
    def test_small_values(self):
        assert log_star(1) == 0
        assert log_star(2) == 1
        assert log_star(4) == 2
        assert log_star(16) == 3
        assert log_star(65536) == 4

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            log_star(0)


class TestColeVishkin:
    def test_single_step_reduces_colors_and_stays_legal(self):
        parent = path_forest(50)
        new_colors = cole_vishkin_columns(list(range(50)), parent, num_colors=50)
        assert is_legal_coloring(new_colors, parent)
        assert max(new_colors) < 2 * color_bit_length(50)

    def test_illegal_input_detected(self):
        with pytest.raises(ValueError):
            cole_vishkin_columns([3, 3], [-1, 0], num_colors=4)

    def test_colors_after_step(self):
        assert colors_after_step(1024) == 20
        assert colors_after_step(6) == 6

    def test_steps_to_constant_is_log_star_like(self):
        n = 2 ** 16
        _, rounds = three_color_columns(path_forest(n), range(n))
        # three of the rounds are the shift-down eliminations of 5, 4 and 3;
        # the rest are the Cole–Vishkin steps down to six colours
        assert rounds - 3 <= log_star(n) + 3


class TestThreeColoring:
    def test_path_gets_three_colors(self):
        parent = path_forest(100)
        colors, rounds = three_color_columns(parent, range(100))
        assert is_legal_coloring(colors, parent)
        assert set(colors) <= {0, 1, 2}
        assert rounds <= log_star(100) + 6

    def test_star_gets_two_colors_effectively(self):
        parent = [-1] + [0] * 29
        colors, _ = three_color_columns(parent, range(30))
        assert is_legal_coloring(colors, parent)

    def test_duplicate_identifiers_rejected(self):
        with pytest.raises(ValueError):
            three_color_columns([-1, 0], [5, 5])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            three_color_columns([1, 0], [0, 1])

    def test_parent_outside_the_forest_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            three_color_columns([-1, 7], [0, 1])

    def test_empty_forest(self):
        assert three_color_columns([], []) == ([], 0)

    @given(identified_forest_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_coloring_always_legal_and_three(self, forest):
        parent, identifiers = forest
        colors, _ = three_color_columns(parent, identifiers)
        assert is_legal_coloring(colors, parent)
        assert set(colors) <= {0, 1, 2}


class TestMIS:
    def test_mis_on_path_contains_root(self):
        parent = path_forest(40)
        colors, _ = three_color_columns(parent, range(40))
        independent = red_set(mis_columns(parent, colors))
        assert 0 in independent
        assert is_maximal_independent_set(parent, independent)

    def test_rejects_illegal_coloring(self):
        with pytest.raises(ValueError):
            mis_columns([-1, 0], [1, 1])

    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValueError):
            mis_columns([-1, 0], [4, 1])

    def test_is_independent_set_helper(self):
        parent = [-1, 0, 1]
        assert is_independent_set(parent, {0, 2})
        assert not is_independent_set(parent, {0, 1})
        assert not is_maximal_independent_set(parent, {0})

    @given(identified_forest_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_mis_contains_all_roots_and_is_maximal(self, forest):
        parent, identifiers = forest
        colors, _ = three_color_columns(parent, identifiers)
        independent = red_set(mis_columns(parent, colors))
        roots = {vertex for vertex, up in enumerate(parent) if up < 0}
        assert roots <= independent
        assert is_maximal_independent_set(parent, independent)
        # the MIS property the partition relies on: any vertex is within
        # distance ≤ 1 of the MIS, hence red-to-red paths are short
        assert is_independent_set(parent, independent)
