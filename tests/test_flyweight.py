"""Flyweight sim layer tests (``repro.sim.flyweight``).

The contract: every library flyweight produces exactly the outputs of its
per-node reference protocol (``tests/oracles.py``) — on the synchronous
simulator and under the channel synchronizer, fault-free and under every
adversity preset — while holding all per-node state in slot-indexed columns
on one shared instance.  Both sides run on the same engine: the oracle
through the per-node adapter (:func:`oracles.per_node`).  Each comparison
covers everything a run exposes: results, rounds, the metrics snapshot, the
channel history (or the synchronizer report), the adversity counters, and on
an abort its rounds, pending count and reason.  The stream-era fingerprints
live in ``tests/test_perf_equivalence.py`` (golden v4).
"""

from __future__ import annotations

import pytest

from oracles import (
    BFSTreeProtocol,
    GreenbergLadnerEstimator,
    RandomizedLeaderElection,
    TreeAggregationProtocol,
    per_node,
)
from repro.experiments.harness import make_topology
from repro.protocols.collision import (
    GreenbergLadnerFlyweight,
    RandomizedLeaderElectionFlyweight,
)
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.protocols.spanning.tree_utils import children_map
from repro.sim.adversity import ADVERSITY_PRESETS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer


def aggregation_inputs(graph, redistribute):
    """Build per-node forest inputs for a BFS tree rooted at the min node.

    The combine is tuple concatenation — associative but not commutative —
    so each aggregate spells out the order the reports arrived in, and a
    change in dispatch or delivery order shows up in the results.
    """
    root = min(graph.nodes())
    parents, _, _ = build_bfs_forest(graph, [root])
    children = children_map(parents)
    return {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": (node,),
            "combine": lambda a, b: a + b,
            "redistribute": redistribute,
        }
        for node in graph.nodes()
    }


def outcome(simulator, factory, inputs=None, adversity=None):
    """Everything observable about one run: its result or its abort."""
    try:
        result = simulator.run(factory, inputs=inputs, adversity=adversity)
    except AdversityAbort as abort:
        result = ("abort", abort.rounds, abort.pending, abort.reason, str(abort))
    counters = adversity.counters() if adversity is not None else None
    return result, counters


def differential(simulator_for, oracle, flyweight, inputs=None, preset="none",
                 key=("flyweight-test",)):
    """Run an oracle and its flyweight under one preset; return both outcomes."""
    outcomes = []
    for factory in (per_node(oracle), flyweight):
        adv = adversity_state(preset, *key, 36, "grid", preset)
        outcomes.append(outcome(simulator_for(), factory, inputs, adv))
    return outcomes


TOPOLOGIES = (("grid", 36), ("ring", 24), ("scale_free", 48))
FAULT_PRESETS = sorted(name for name in ADVERSITY_PRESETS if name != "none")


class TestSynchronousEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("redistribute", (False, True))
    def test_results_and_rounds_match_classic(self, kind, n, redistribute):
        graph = make_topology(kind, n, seed=11)
        inputs = aggregation_inputs(graph, redistribute)
        classic = MultimediaNetwork(graph, seed=3).run(
            per_node(TreeAggregationProtocol), inputs=inputs
        )
        flyweight = MultimediaNetwork(graph, seed=3).run(
            TreeAggregationFlyweight, inputs=inputs
        )
        assert flyweight == classic


CHANNEL_PAIRS = (
    (GreenbergLadnerEstimator, GreenbergLadnerFlyweight),
    (RandomizedLeaderElection, RandomizedLeaderElectionFlyweight),
)


class TestChannelProtocolEquivalence:
    """Channel-feedback protocols, no mail."""

    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("classic,flyweight", CHANNEL_PAIRS)
    def test_results_and_rounds_match_classic(self, kind, n, classic, flyweight):
        graph = make_topology(kind, n, seed=11)
        for seed in (3, 9):
            classic_run = MultimediaNetwork(graph, seed=seed).run(per_node(classic))
            flyweight_run = MultimediaNetwork(graph, seed=seed).run(flyweight)
            assert flyweight_run == classic_run

    @pytest.mark.parametrize("preset", FAULT_PRESETS)
    @pytest.mark.parametrize("classic,flyweight", CHANNEL_PAIRS)
    def test_outcome_matches_classic_under_preset(self, preset, classic, flyweight):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: MultimediaNetwork(graph, seed=3), classic, flyweight,
            preset=preset, key=("flyweight-channel",),
        )
        assert first == second

    @pytest.mark.parametrize("preset", sorted(ADVERSITY_PRESETS))
    @pytest.mark.parametrize("classic,flyweight", CHANNEL_PAIRS)
    def test_synchronizer_outcome_matches_classic(self, preset, classic, flyweight):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: ChannelSynchronizer(graph, max_link_delay=3, seed=3),
            classic, flyweight, preset=preset, key=("flyweight-channel-sync",),
        )
        assert first == second

    @pytest.mark.parametrize("flyweight", [pair[1] for pair in CHANNEL_PAIRS])
    def test_detected_as_flyweight(self, flyweight):
        assert issubclass(flyweight, FlyweightProtocol)


class TestAdversityEquivalence:
    @pytest.mark.parametrize("preset", FAULT_PRESETS)
    def test_outcome_matches_classic_under_preset(self, preset):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: MultimediaNetwork(graph, seed=3),
            TreeAggregationProtocol, TreeAggregationFlyweight,
            inputs=aggregation_inputs(graph, True), preset=preset,
        )
        assert first == second


class TestSynchronizerEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    def test_report_matches_classic(self, kind, n):
        graph = make_topology(kind, n, seed=11)
        inputs = aggregation_inputs(graph, True)
        classic = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            per_node(TreeAggregationProtocol), inputs=inputs
        )
        flyweight = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            TreeAggregationFlyweight, inputs=inputs
        )
        assert flyweight == classic

    @pytest.mark.parametrize("preset", FAULT_PRESETS)
    def test_outcome_matches_classic_under_adversity(self, preset):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: ChannelSynchronizer(graph, max_link_delay=3, seed=3),
            TreeAggregationProtocol, TreeAggregationFlyweight,
            inputs=aggregation_inputs(graph, True), preset=preset,
            key=("flyweight-sync",),
        )
        assert first == second


class TestBFSOracle:
    """Distributed BFS (the oracle) against the sequential reference."""

    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("num_roots,depth_limit", ((1, None), (3, None), (3, 2)))
    def test_matches_build_bfs_forest(self, kind, n, num_roots, depth_limit):
        graph = make_topology(kind, n, seed=11)
        roots = sorted(graph.nodes())[:: n // num_roots][:num_roots]
        inputs = {
            node: {"is_root": node in roots, "depth_limit": depth_limit}
            for node in graph.nodes()
        }
        result = MultimediaNetwork(graph, seed=3).run(
            per_node(BFSTreeProtocol), inputs=inputs
        )
        parents, root_of, labels = build_bfs_forest(graph, roots, depth_limit)
        for node, state in result.results.items():
            assert state["label"] == labels.get(node)
            assert state["root"] == root_of.get(node)
            if node in labels and labels[node] > 0:
                # ties between equal-length parents may break either way;
                # the chosen parent must sit one level up in the same tree
                parent = state["parent"]
                assert labels[parent] == labels[node] - 1
                assert root_of[parent] == root_of[node]


class TestFlyweightState:
    def test_columns_are_slot_indexed(self):
        graph = make_topology("ring", 8, seed=11)
        network = MultimediaNetwork(graph, seed=3)
        env = network._flyweight_environment()
        assert env.num_slots == graph.num_nodes()
        assert sorted(env.slot_of[node] for node in env.nodes) == list(
            range(env.num_slots)
        )

    def test_halt_slot_bookkeeping(self):
        env = FlyweightEnvironment(
            nodes=("a", "b"),
            neighbors=(("b",), ("a",)),
            link_weights=({"b": 1.0}, {"a": 1.0}),
            n=2,
            streams=None,
        )

        class Noop(FlyweightProtocol):
            def on_round(self, slot, inbox, channel):
                pass

        protocol = Noop(env)
        assert protocol.active_count == 2
        protocol.halt_slot(env.slot_of["b"], result=7)
        assert protocol.active_count == 1
        assert protocol.results_by_node() == {"a": None, "b": 7}
