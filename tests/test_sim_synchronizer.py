"""Tests for the channel synchronizer (Section 7.1)."""

import gc

import pytest

from oracles import TreeAggregationProtocol, bfs_maps, children_map, per_node
from repro.experiments.e10_model_variations import _count_nodes
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.sim import synchronizer
from repro.sim.adversity import adversity_state
from repro.sim.errors import AdversityAbort, ProtocolError, SimulationTimeout
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer
from repro.topology.generators import grid_graph, path_graph
from test_sim_multimedia import NeverHalts, Stray


def _sum_inputs(graph, root):
    parents, _ = bfs_maps(graph, build_bfs_forest(graph, root))
    children = children_map(parents)
    return {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": 1,
            "combine": lambda a, b: a + b,
            "redistribute": True,
        }
        for node in graph.nodes()
    }


class TestChannelSynchronizer:
    def test_same_result_as_synchronous_run(self):
        graph = grid_graph(4, 4)
        root = 0
        inputs = _sum_inputs(graph, root)
        sync = MultimediaNetwork(graph).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        report = ChannelSynchronizer(graph, max_link_delay=4, seed=1).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert report.results[root] == sync.results[root] == 16
        assert all(value == 16 for value in report.results.values())

    def test_corollary4_message_overhead_at_most_two(self):
        graph = grid_graph(3, 3)
        inputs = _sum_inputs(graph, 0)
        report = ChannelSynchronizer(graph, max_link_delay=2, seed=3).run(
            per_node(TreeAggregationProtocol, inputs)
        )
        assert report.ack_messages == report.algorithm_messages
        assert report.message_overhead_factor == pytest.approx(2.0)

    def test_invalid_delay_rejected(self):
        with pytest.raises(ValueError):
            ChannelSynchronizer(grid_graph(2, 2), max_link_delay=0, seed=1)

    @pytest.mark.parametrize(
        "delay", (0, -3, 2.5, 3.0, "3", True, False, None), ids=repr
    )
    def test_delay_must_be_a_positive_int(self, delay):
        with pytest.raises(ValueError, match=f"got {delay!r}"):
            ChannelSynchronizer(grid_graph(2, 2), max_link_delay=delay, seed=1)

    def test_run_finishing_on_its_last_pulse_returns(self, monkeypatch):
        graph = grid_graph(4, 4)
        unbounded = ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0))
        budget = unbounded.pulses
        assert budget == 13
        monkeypatch.setattr(synchronizer, "MAX_PULSES", budget)
        on_budget = ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0))
        assert on_budget == unbounded
        monkeypatch.setattr(synchronizer, "MAX_PULSES", budget - 1)
        with pytest.raises(SimulationTimeout) as short:
            ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0))
        assert short.value.rounds == budget - 1 and short.value.pending > 0

    def test_run_finishing_on_its_last_pulse_returns_under_adversity(self, monkeypatch):
        graph = grid_graph(4, 4)

        def run():
            return ChannelSynchronizer(graph, seed=1).run(
                _count_nodes(graph, 0),
                adversity=adversity_state("jam", "budget", 16),
            )

        unbounded = run()
        monkeypatch.setattr(synchronizer, "MAX_PULSES", unbounded.pulses)
        assert run() == unbounded
        monkeypatch.setattr(synchronizer, "MAX_PULSES", unbounded.pulses - 1)
        with pytest.raises(AdversityAbort) as short:
            run()
        assert short.value.rounds == unbounded.pulses - 1
        assert short.value.pending > 0


class TestCollectorPause:
    """The pulse loop holds the cyclic collector and always gives it back."""

    def test_enabled_after_a_normal_return(self):
        graph = grid_graph(3, 3)
        ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0))
        assert gc.isenabled()

    def test_enabled_after_a_busy_tone_deadlock(self):
        graph = grid_graph(3, 3)
        state = adversity_state({"name": "loss", "loss_rate": 1.0}, "gc-deadlock", 9)
        with pytest.raises(AdversityAbort, match="busy-tone deadlock"):
            ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0), adversity=state)
        assert gc.isenabled()

    def test_enabled_after_a_send_over_a_missing_link(self):
        with pytest.raises(ProtocolError, match="non-existent link"):
            ChannelSynchronizer(path_graph(3), seed=1).run(Stray)
        assert gc.isenabled()

    def test_enabled_after_a_timeout(self, monkeypatch):
        monkeypatch.setattr(synchronizer, "MAX_PULSES", 20)
        with pytest.raises(SimulationTimeout):
            ChannelSynchronizer(path_graph(3), seed=1).run(per_node(NeverHalts))
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self):
        graph = grid_graph(3, 3)
        gc.disable()
        try:
            ChannelSynchronizer(graph, seed=1).run(_count_nodes(graph, 0))
            assert not gc.isenabled()
            with pytest.raises(ProtocolError):
                ChannelSynchronizer(path_graph(3), seed=1).run(Stray)
            assert not gc.isenabled()
        finally:
            gc.enable()
