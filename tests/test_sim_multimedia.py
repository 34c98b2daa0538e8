"""Integration tests for the multimedia simulation driver.

The protocols here are per-node (``tests/oracles.py``) and run on the
simulator's one loop through the per-node adapter.
"""

from typing import List

import pytest

from oracles import NodeProtocol, per_node
from repro.experiments.e10_model_variations import _count_nodes
from repro.sim.errors import ProtocolError, SimulationTimeout
from repro.sim.events import ChannelEvent, Message
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import complete_graph, grid_graph, path_graph, ring_graph


class FloodMax(NodeProtocol):
    """Every node learns the maximum node identifier by flooding (no channel)."""

    def __init__(self, ctx):
        super().__init__(ctx)
        self._best = ctx.node_id
        self._rounds = 0

    def on_start(self):
        self.send_to_all_neighbors(self._best)

    def on_round(self, inbox: List[Message], channel: ChannelEvent):
        self._rounds += 1
        improved = False
        for message in inbox:
            if message.payload > self._best:
                self._best = message.payload
                improved = True
        if improved:
            self.send_to_all_neighbors(self._best)
        if self._rounds >= self.ctx.n:
            self.halt(self._best)


class SingleBroadcaster(NodeProtocol):
    """Node 0 broadcasts once on the channel; everybody halts on hearing it."""

    def on_start(self):
        if self.node_id == 0:
            self.channel_write(("announce", self.node_id))

    def on_round(self, inbox, channel):
        if channel.is_success():
            self.halt(channel.payload)


class NeverHalts(NodeProtocol):
    def on_round(self, inbox, channel):
        pass


class ReportsContext(NodeProtocol):
    """Every node halts at once with what its context told it."""

    def on_start(self):
        self.halt((dict(self.ctx.extra), self.ctx.n))

    def on_round(self, inbox, channel):  # pragma: no cover
        raise AssertionError("halts at start")


class DoubleSender(NodeProtocol):
    def on_start(self):
        neighbor = self.neighbors[0]
        self.send(neighbor, "a")
        self.send(neighbor, "b")

    def on_round(self, inbox, channel):
        self.halt()


class TestMultimediaNetwork:
    def test_flood_max_on_ring(self):
        network = MultimediaNetwork(ring_graph(9))
        result = network.run(per_node(FloodMax))
        assert all(value == 8 for value in result.results.values())
        # flooding needs at least diameter rounds
        assert result.rounds >= 4

    def test_channel_broadcast_heard_by_all(self):
        network = MultimediaNetwork(path_graph(6))
        result = network.run(per_node(SingleBroadcaster))
        assert all(value == ("announce", 0) for value in result.results.values())
        assert result.metrics.channel_success == 1
        assert result.metrics.point_to_point_messages == 0

    def test_timeout_raised_for_non_terminating_protocol(self):
        network = MultimediaNetwork(path_graph(3))
        with pytest.raises(SimulationTimeout):
            network.run(per_node(NeverHalts), max_rounds=20)

    def test_run_finishing_on_its_last_round_returns(self):
        graph = grid_graph(4, 4)
        count = _count_nodes(graph, 0)
        unbounded = MultimediaNetwork(graph, seed=1).run(count)
        budget = unbounded.rounds
        assert budget == 13
        on_budget = MultimediaNetwork(graph, seed=1).run(count, max_rounds=budget)
        assert on_budget.rounds == budget
        assert on_budget.results == unbounded.results
        assert on_budget.metrics == unbounded.metrics
        with pytest.raises(SimulationTimeout) as short:
            MultimediaNetwork(graph, seed=1).run(count, max_rounds=budget - 1)
        assert short.value.rounds == budget - 1 and short.value.pending > 0

    def test_two_messages_on_one_link_rejected(self):
        network = MultimediaNetwork(path_graph(2))
        with pytest.raises(ProtocolError):
            network.run(per_node(DoubleSender), max_rounds=5)

    def test_metrics_count_messages_and_rounds(self):
        network = MultimediaNetwork(complete_graph(5))
        result = network.run(per_node(FloodMax))
        assert result.metrics.point_to_point_messages >= 4 * 5
        assert result.metrics.rounds == result.rounds

    def test_contexts_receive_inputs_and_n(self):
        network = MultimediaNetwork(path_graph(4), seed=1)
        seen = network.run(per_node(ReportsContext, {0: {"value": 42}})).results
        assert seen[0] == ({"value": 42}, 4)
        assert seen[2] == ({}, 4)
        assert seen[3][1] == 4

    def test_n_unknown_mode(self):
        network = MultimediaNetwork(path_graph(4), n_known=False)
        seen = network.run(per_node(ReportsContext)).results
        assert all(n is None for _, n in seen.values())

    def test_seeded_runs_are_reproducible(self):
        graph = ring_graph(7)
        first = MultimediaNetwork(graph, seed=5).run(per_node(FloodMax))
        second = MultimediaNetwork(graph, seed=5).run(per_node(FloodMax))
        assert first.results == second.results
        assert first.metrics.point_to_point_messages == second.metrics.point_to_point_messages
