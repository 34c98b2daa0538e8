"""Tests for Cole–Vishkin, GPS 3-colouring and the MIS recolouring."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.protocols.symmetry.cole_vishkin import (
    cole_vishkin_step,
    color_bit_length,
    colors_after_step,
    log_star,
    steps_to_constant,
)
from repro.protocols.symmetry.mis import (
    mis_from_three_coloring,
    is_independent_set,
    is_maximal_independent_set,
)
from repro.protocols.symmetry.three_coloring import (
    is_legal_coloring,
    three_color_rooted_forest,
)


def random_rooted_forest(num_nodes: int, seed: int, num_roots: int = 1):
    """Return a random rooted forest as a parent map over 0..num_nodes-1."""
    rng = random.Random(seed)
    nodes = list(range(num_nodes))
    rng.shuffle(nodes)
    parents = {}
    roots = nodes[:num_roots]
    for root in roots:
        parents[root] = None
    for index in range(num_roots, num_nodes):
        parents[nodes[index]] = nodes[rng.randrange(index)]
    return parents


forest_strategy = st.builds(
    random_rooted_forest,
    num_nodes=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    num_roots=st.integers(min_value=1, max_value=4),
).map(lambda parents: parents)


def relabel(parents, labels):
    """Return ``parents`` with every vertex renamed through ``labels``."""
    return {
        labels[node]: None if parent is None else labels[parent]
        for node, parent in parents.items()
    }


def sparse_int_labels(parents, seed):
    """Relabel with distinct ints drawn from [0, 10^6), as F's core slots are."""
    chosen = random.Random(seed).sample(range(10**6), len(parents))
    return relabel(parents, dict(zip(parents, chosen)))


#: the plain 0..n-1 forests plus the two labellings the partitioner's F
#: meets: sparse int core slots (used directly as identifiers) and strings
labelled_forest_strategy = st.one_of(
    forest_strategy,
    st.builds(sparse_int_labels, forest_strategy, st.integers(0, 10_000)),
    forest_strategy.map(
        lambda parents: relabel(parents, {node: f"node-{node}" for node in parents})
    ),
)


def core_identifiers(parents):
    """Int labels are their own identifiers (as in the partitioner); else enumerate."""
    if all(isinstance(node, int) for node in parents):
        return {node: node for node in parents}
    return None


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
        parents = {i: (None if i == 0 else i - 1) for i in range(50)}
        colors = {i: i for i in range(50)}
        new_colors = cole_vishkin_step(colors, parents, num_colors=50)
        assert is_legal_coloring(new_colors, parents)
        assert max(new_colors.values()) < 2 * color_bit_length(50)

    def test_illegal_input_detected(self):
        parents = {0: None, 1: 0}
        with pytest.raises(ValueError):
            cole_vishkin_step({0: 3, 1: 3}, parents, num_colors=4)

    def test_parent_outside_the_map_rejected(self):
        # 7 has a colour but is not a key of the forest
        with pytest.raises(ValueError, match="not a vertex"):
            cole_vishkin_step({0: 1, 1: 2, 7: 0}, {0: None, 1: 7}, num_colors=4)

    def test_colors_after_step(self):
        assert colors_after_step(1024) == 20
        assert colors_after_step(6) == 6

    def test_steps_to_constant_is_log_star_like(self):
        assert steps_to_constant(2 ** 16) <= log_star(2 ** 16) + 3


class TestThreeColoring:
    def test_path_gets_three_colors(self):
        parents = {i: (None if i == 0 else i - 1) for i in range(100)}
        result = three_color_rooted_forest(parents)
        assert is_legal_coloring(result.colors, parents)
        assert set(result.colors.values()) <= {0, 1, 2}
        assert result.communication_rounds <= log_star(100) + 6

    def test_star_gets_two_colors_effectively(self):
        parents = {0: None}
        parents.update({i: 0 for i in range(1, 30)})
        result = three_color_rooted_forest(parents)
        assert is_legal_coloring(result.colors, parents)

    def test_duplicate_identifiers_rejected(self):
        parents = {0: None, 1: 0}
        with pytest.raises(ValueError):
            three_color_rooted_forest(parents, identifiers={0: 5, 1: 5})

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            three_color_rooted_forest({0: 1, 1: 0})

    def test_empty_forest(self):
        result = three_color_rooted_forest({})
        assert result.colors == {}

    @given(labelled_forest_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_coloring_always_legal_and_three(self, parents):
        result = three_color_rooted_forest(parents, core_identifiers(parents))
        assert is_legal_coloring(result.colors, parents)
        assert set(result.colors.values()) <= {0, 1, 2}


class TestMIS:
    def test_mis_on_path_contains_root(self):
        parents = {i: (None if i == 0 else i - 1) for i in range(40)}
        coloring = three_color_rooted_forest(parents)
        result = mis_from_three_coloring(parents, coloring.colors)
        assert 0 in result.independent_set
        assert is_maximal_independent_set(parents, result.independent_set)

    def test_rejects_illegal_coloring(self):
        parents = {0: None, 1: 0}
        with pytest.raises(ValueError):
            mis_from_three_coloring(parents, {0: 1, 1: 1})

    def test_rejects_out_of_range_colors(self):
        parents = {0: None, 1: 0}
        with pytest.raises(ValueError):
            mis_from_three_coloring(parents, {0: 4, 1: 1})

    def test_parent_outside_the_map_rejected(self):
        with pytest.raises(ValueError, match="not a vertex"):
            mis_from_three_coloring({0: None, 1: 7}, {0: 0, 1: 1, 7: 2})

    def test_is_independent_set_helper(self):
        parents = {0: None, 1: 0, 2: 1}
        assert is_independent_set(parents, {0, 2})
        assert not is_independent_set(parents, {0, 1})
        assert not is_maximal_independent_set(parents, {0})

    @given(labelled_forest_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_mis_contains_all_roots_and_is_maximal(self, parents):
        coloring = three_color_rooted_forest(parents, core_identifiers(parents))
        result = mis_from_three_coloring(parents, coloring.colors)
        roots = {node for node, parent in parents.items() if parent is None}
        assert roots <= result.independent_set
        assert is_maximal_independent_set(parents, result.independent_set)
        # the MIS property the partition relies on: any vertex is within
        # distance ≤ 1 of the MIS, hence red-to-red paths are short
        assert is_independent_set(parents, result.independent_set)
