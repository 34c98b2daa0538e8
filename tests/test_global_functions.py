"""Tests for global sensitive functions: semigroups, the multimedia algorithms
and the single-medium baselines."""

import pytest
from hypothesis import given, settings, strategies as st

from oracles import BOOLEAN_OR, check_global_sensitivity, standard_functions

from repro.core.global_function.baselines import (
    compute_on_channel_only,
    compute_on_point_to_point_only,
)
from repro.core.global_function.multimedia import compute_global_function
from repro.core.global_function.semigroup import (
    INTEGER_ADDITION,
    INTEGER_MAXIMUM,
    INTEGER_MINIMUM,
    XOR,
)
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.topology.generators import ring_graph
from repro.topology.weights import assign_distinct_weights


class TestSemigroups:
    def test_evaluate(self):
        assert INTEGER_ADDITION.evaluate([1, 2, 3]) == 6
        assert INTEGER_MINIMUM.evaluate([5, 2, 9]) == 2
        assert INTEGER_MAXIMUM.evaluate([5, 2, 9]) == 9
        assert XOR.evaluate([1, 1, 1]) == 1

    def test_empty_operands(self):
        assert INTEGER_ADDITION.evaluate([]) == 0
        with pytest.raises(ValueError):
            INTEGER_MINIMUM.evaluate([])

    def test_sensitivity_checks(self):
        assert check_global_sensitivity(INTEGER_ADDITION, [4, 5, 6])
        assert check_global_sensitivity(INTEGER_MINIMUM, [4, 5, 6])
        assert check_global_sensitivity(XOR, [0, 1, 0])

    def test_boolean_or_is_not_global_sensitive(self):
        # once one operand is True the others cannot change the value
        assert not check_global_sensitivity(BOOLEAN_OR, [True, False, False])

    def test_standard_functions_list(self):
        names = {fn.name for fn in standard_functions()}
        assert names == {"sum", "min", "max", "xor"}

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_addition_and_xor_always_sensitive(self, operands):
        assert check_global_sensitivity(INTEGER_ADDITION, operands)
        assert check_global_sensitivity(XOR, operands)

    @given(
        st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=20),
        st.sampled_from(standard_functions()),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_evaluation_is_order_independent(self, operands, function):
        forward = function.evaluate(operands)
        backward = function.evaluate(list(reversed(operands)))
        assert forward == backward


class TestMultimediaComputation:
    @pytest.mark.parametrize("method", ["deterministic", "randomized"])
    def test_sum_on_grid(self, medium_grid, method):
        inputs = {node: int(node) for node in medium_grid.nodes()}
        result = compute_global_function(
            medium_grid, INTEGER_ADDITION, inputs, method=method, seed=3
        )
        assert result.value == sum(inputs.values())
        assert result.num_fragments >= 1
        assert result.total_rounds > 0

    @pytest.mark.parametrize("function", [INTEGER_MINIMUM, INTEGER_MAXIMUM, XOR])
    def test_other_functions(self, small_grid, function):
        inputs = {node: int(node) * 3 + 1 for node in small_grid.nodes()}
        result = compute_global_function(
            small_grid, function, inputs, method="randomized", seed=1
        )
        assert result.value == function.evaluate(list(inputs.values()))

    def test_reusing_a_forest_skips_partition_cost(self, small_grid):
        forest = DeterministicPartitioner(small_grid).run().forest
        inputs = {node: 1 for node in small_grid.nodes()}
        reused = compute_global_function(
            small_grid, INTEGER_ADDITION, inputs, method="deterministic",
            forest=forest, seed=1,
        )
        fresh = compute_global_function(
            small_grid, INTEGER_ADDITION, inputs, method="deterministic", seed=1
        )
        assert reused.value == fresh.value == small_grid.num_nodes()
        assert reused.partition_rounds == 0
        assert reused.total_rounds < fresh.total_rounds

    def test_tightened_balance_variant(self, medium_grid):
        inputs = {node: 2 for node in medium_grid.nodes()}
        result = compute_global_function(
            medium_grid, INTEGER_ADDITION, inputs,
            method="deterministic", tightened_balance=True, seed=1,
        )
        assert result.value == 2 * medium_grid.num_nodes()

    def test_unknown_method_rejected(self, small_grid):
        with pytest.raises(ValueError):
            compute_global_function(small_grid, INTEGER_ADDITION, {}, method="magic")

    def test_missing_inputs_rejected(self, small_grid):
        with pytest.raises(ValueError):
            compute_global_function(small_grid, INTEGER_ADDITION, {0: 1})

    def test_phase_breakdown_adds_up(self, small_grid):
        inputs = {node: 1 for node in small_grid.nodes()}
        result = compute_global_function(
            small_grid, INTEGER_ADDITION, inputs, method="randomized", seed=2
        )
        assert (
            result.partition_rounds + result.local_rounds + result.global_slots
            == result.total_rounds
        )


class TestBaselines:
    def test_point_to_point_baseline_value_and_time(self):
        graph = ring_graph(32)
        inputs = {node: 1 for node in graph.nodes()}
        result = compute_on_point_to_point_only(graph, INTEGER_ADDITION, inputs)
        assert result.value == 32
        # Ω(d): the ring has diameter 16, so at least 16 rounds are needed
        assert result.rounds >= 16

    def test_channel_baseline_value_and_time(self):
        graph = ring_graph(20)
        inputs = {node: node for node in graph.nodes()}
        result = compute_on_channel_only(graph, INTEGER_ADDITION, inputs, seed=1)
        assert result.value == sum(inputs.values())
        # Ω(n): every operand needs its own successful slot
        assert result.rounds >= 20

    def test_channel_baseline_deterministic_method(self):
        graph = ring_graph(10)
        inputs = {node: node for node in graph.nodes()}
        result = compute_on_channel_only(
            graph, INTEGER_ADDITION, inputs, method="deterministic"
        )
        assert result.value == sum(inputs.values())

    def test_channel_baseline_unknown_method(self):
        graph = ring_graph(5)
        with pytest.raises(ValueError):
            compute_on_channel_only(graph, INTEGER_ADDITION, {}, method="x")

    def test_multimedia_beats_both_on_large_ring(self):
        graph = assign_distinct_weights(ring_graph(400), seed=1)
        inputs = {node: 1 for node in graph.nodes()}
        multimedia = compute_global_function(
            graph, INTEGER_ADDITION, inputs, method="randomized", seed=3
        )
        p2p = compute_on_point_to_point_only(graph, INTEGER_ADDITION, inputs)
        channel = compute_on_channel_only(graph, INTEGER_ADDITION, inputs, seed=3)
        assert multimedia.value == p2p.value == channel.value == 400
        assert multimedia.total_rounds < p2p.rounds
        assert multimedia.total_rounds < channel.rounds


class TestSeedlessCalls:
    """A call that omits the seed runs on the fixed default, not OS entropy."""

    @pytest.mark.parametrize("method", ("deterministic", "randomized"))
    def test_multimedia_repeats(self, method):
        # the unweighted ring makes the deterministic method draw weights
        graph = ring_graph(64)
        inputs = {node: node for node in graph.nodes()}
        first = compute_global_function(graph, INTEGER_ADDITION, inputs, method=method)
        second = compute_global_function(graph, INTEGER_ADDITION, inputs, method=method)
        assert first == second

    def test_channel_only_repeats(self):
        graph = ring_graph(64)
        inputs = {node: node for node in graph.nodes()}
        first = compute_on_channel_only(graph, INTEGER_ADDITION, inputs)
        second = compute_on_channel_only(graph, INTEGER_ADDITION, inputs)
        assert first == second
