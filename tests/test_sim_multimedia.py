"""Integration tests for the multimedia simulation driver.

The protocols here are per-node (``tests/oracles.py``) and run on the
simulator's one loop through the per-node adapter.
"""

import gc
import inspect
import operator
import sys
from typing import List

import pytest

from oracles import NodeProtocol, per_node
from repro.core.partition.forest import SpanningForest
from repro.experiments.e10_model_variations import _count_nodes
from repro.experiments.harness import make_topology
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.sim import multimedia
from repro.sim.adversity import adversity_state
from repro.sim.errors import AdversityAbort, ProtocolError, SimulationTimeout
from repro.sim.events import ChannelEvent, Message, SlotState
from repro.sim.flyweight import FlyweightProtocol
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
        if channel.state is SlotState.SUCCESS:
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


class Stray(FlyweightProtocol):
    """Node 0 sends to node 2, which is no neighbour of it on a path."""

    def on_start(self, slots):
        if 0 in slots:
            self.send(0, 2, "stray")


def collections_inside(run, call):
    """Call ``call()``; return the generation of every collection fired
    while a frame of ``run`` (unwrapped) was on the stack."""
    code = inspect.unwrap(run).__code__
    fired = []

    def callback(phase, info):
        if phase != "start":
            return
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is code:
                fired.append(info["generation"])
                return
            frame = frame.f_back

    gc.callbacks.append(callback)
    try:
        call()
    finally:
        gc.callbacks.remove(callback)
    return fired


class TestCollectorPause:
    """The run loop holds the cyclic collector and always gives it back."""

    def test_enabled_after_a_normal_return(self):
        assert gc.isenabled()
        MultimediaNetwork(ring_graph(9)).run(per_node(FloodMax))
        assert gc.isenabled()

    def test_enabled_after_a_stall_abort(self):
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.5, "stall_rounds": 4}, "gc-stall", 3
        )
        with pytest.raises(AdversityAbort, match="stalled"):
            MultimediaNetwork(path_graph(3)).run(per_node(NeverHalts), adversity=state)
        assert gc.isenabled()

    def test_enabled_after_a_send_over_a_missing_link(self):
        with pytest.raises(ProtocolError, match="non-existent link"):
            MultimediaNetwork(path_graph(3)).run(Stray)
        assert gc.isenabled()

    def test_enabled_after_a_timeout(self, monkeypatch):
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", 20)
        with pytest.raises(SimulationTimeout):
            MultimediaNetwork(path_graph(3)).run(per_node(NeverHalts))
        assert gc.isenabled()

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, monkeypatch):
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", 20)
        gc.disable()
        try:
            MultimediaNetwork(ring_graph(9)).run(per_node(FloodMax))
            assert not gc.isenabled()
            with pytest.raises(SimulationTimeout):
                MultimediaNetwork(path_graph(3)).run(per_node(NeverHalts))
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_no_collection_inside_a_wide_aggregation(self):
        # a scale-free graph's small diameter packs its 8190 messages into
        # a few wide rounds: with the collector running, they set off
        # young-generation passes inside the loop
        graph = make_topology("scale_free", 4096, seed=11)
        parent, _ = build_bfs_forest(graph, 0)
        factory = TreeAggregationFlyweight.over(
            SpanningForest(parent), list(range(4096)), operator.add, redistribute=True
        )
        results = []
        fired = collections_inside(
            MultimediaNetwork.run,
            lambda: results.append(MultimediaNetwork(graph).run(factory)),
        )
        assert fired == []
        assert set(results[0].results.values()) == {4096 * 4095 // 2}
        assert gc.isenabled()


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

    def test_timeout_raised_for_non_terminating_protocol(self, monkeypatch):
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", 20)
        network = MultimediaNetwork(path_graph(3))
        with pytest.raises(SimulationTimeout):
            network.run(per_node(NeverHalts))

    def test_run_finishing_on_its_last_round_returns(self, monkeypatch):
        graph = grid_graph(4, 4)
        count = _count_nodes(graph, 0)
        unbounded = MultimediaNetwork(graph).run(count)
        budget = unbounded.rounds
        assert budget == 13
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", budget)
        on_budget = MultimediaNetwork(graph).run(count)
        assert on_budget.rounds == budget
        assert on_budget.results == unbounded.results
        assert on_budget.metrics == unbounded.metrics
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", budget - 1)
        with pytest.raises(SimulationTimeout) as short:
            MultimediaNetwork(graph).run(count)
        assert short.value.rounds == budget - 1 and short.value.pending > 0

    def test_two_messages_on_one_link_rejected(self, monkeypatch):
        monkeypatch.setattr(multimedia, "MAX_ROUNDS", 5)
        network = MultimediaNetwork(path_graph(2))
        with pytest.raises(ProtocolError):
            network.run(per_node(DoubleSender))

    def test_metrics_count_messages_and_rounds(self):
        network = MultimediaNetwork(complete_graph(5))
        result = network.run(per_node(FloodMax))
        assert result.metrics.point_to_point_messages >= 4 * 5
        assert result.metrics.rounds == result.rounds

    def test_contexts_receive_inputs_and_n(self):
        network = MultimediaNetwork(path_graph(4))
        seen = network.run(per_node(ReportsContext, {0: {"value": 42}})).results
        assert seen[0] == ({"value": 42}, 4)
        assert seen[2] == ({}, 4)
        assert seen[3][1] == 4

    def test_seeded_runs_are_reproducible(self):
        graph = ring_graph(7)
        first = MultimediaNetwork(graph).run(per_node(FloodMax))
        second = MultimediaNetwork(graph).run(per_node(FloodMax))
        assert first.results == second.results
        assert first.metrics.point_to_point_messages == second.metrics.point_to_point_messages
