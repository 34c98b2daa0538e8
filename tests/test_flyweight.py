"""Flyweight sim layer tests (``repro.sim.flyweight``).

The contract: every library flyweight produces exactly the outputs of its
per-node reference protocol (``tests/oracles.py``) — on the synchronous
simulator and under the channel synchronizer, fault-free and under every
adversity preset — while holding all per-node state in slot-indexed columns
on one shared instance.  Both sides run on the same engine: the oracle
through the per-node adapter (:func:`oracles.per_node`).  Each comparison
covers everything a run exposes: results, rounds, the metrics snapshot
(with its per-outcome channel counters), the synchronizer report, the
adversity counters, and on an abort its rounds, pending count and reason.  The stream-era fingerprints
live in ``tests/test_perf_equivalence.py`` (golden v4).
"""

from __future__ import annotations

import pytest

from oracles import (
    BFSTreeProtocol,
    TreeAggregationProtocol,
    bfs_maps,
    children_map,
    per_node,
    queue_bfs_forest,
)
from repro.core.partition.forest import SpanningForest
from repro.experiments.harness import make_topology
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.sim.adversity import ADVERSITY_PRESETS, adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.flyweight import FlyweightEnvironment, FlyweightProtocol
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.synchronizer import ChannelSynchronizer
from repro.topology.graph import WeightedGraph


def aggregation_factories(graph, redistribute):
    """Return the (oracle, flyweight) factories aggregating up a BFS tree.

    The tree is rooted at the min node; the oracle gets per-node parent and
    children inputs, the flyweight the same tree as a forest.  The combine
    is tuple concatenation — associative but not commutative — so each
    aggregate spells out the order the reports arrived in, and a change in
    dispatch or delivery order shows up in the results.
    """
    root = min(graph.nodes())
    columns = build_bfs_forest(graph, root)
    parents, _ = bfs_maps(graph, columns)
    children = children_map(parents)

    def concat(a, b):
        return a + b

    extras = {
        node: {
            "parent": parents[node],
            "children": tuple(children[node]),
            "value": (node,),
            "combine": concat,
            "redistribute": redistribute,
        }
        for node in graph.nodes()
    }
    values = {node: (node,) for node in graph.nodes()}
    return (
        per_node(TreeAggregationProtocol, extras),
        TreeAggregationFlyweight.over(
            SpanningForest(columns[0]), values, concat, redistribute
        ),
    )


def outcome(simulator, factory, adversity=None):
    """Everything observable about one run: its result or its abort."""
    try:
        result = simulator.run(factory, adversity=adversity)
    except AdversityAbort as abort:
        result = ("abort", abort.rounds, abort.pending, abort.reason, str(abort))
    counters = adversity.counters() if adversity is not None else None
    return result, counters


def differential(simulator_for, oracle, flyweight, preset="none",
                 key=("flyweight-test",)):
    """Run an oracle factory and its flyweight under one preset; return both outcomes."""
    outcomes = []
    for factory in (oracle, flyweight):
        adv = adversity_state(preset, *key, 36, "grid", preset)
        outcomes.append(outcome(simulator_for(), factory, adv))
    return outcomes


TOPOLOGIES = (("grid", 36), ("ring", 24), ("scale_free", 48))


FAULT_PRESETS = sorted(name for name in ADVERSITY_PRESETS if name != "none")


class TestSynchronousEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    @pytest.mark.parametrize("redistribute", (False, True))
    def test_results_and_rounds_match_classic(self, kind, n, redistribute):
        self.check(make_topology(kind, n, seed=11), redistribute)

    @staticmethod
    def check(graph, redistribute):
        oracle, tree_flyweight = aggregation_factories(graph, redistribute)
        classic = MultimediaNetwork(graph, seed=3).run(oracle)
        flyweight = MultimediaNetwork(graph, seed=3).run(tree_flyweight)
        assert flyweight == classic


class TestAdversityEquivalence:
    @pytest.mark.parametrize("preset", FAULT_PRESETS)
    def test_outcome_matches_classic_under_preset(self, preset):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: MultimediaNetwork(graph, seed=3),
            *aggregation_factories(graph, True), preset=preset,
        )
        assert first == second


class TestSynchronizerEquivalence:
    @pytest.mark.parametrize("kind,n", TOPOLOGIES)
    def test_report_matches_classic(self, kind, n):
        self.check(make_topology(kind, n, seed=11))

    @staticmethod
    def check(graph):
        oracle, tree_flyweight = aggregation_factories(graph, True)
        classic = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(oracle)
        flyweight = ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
            tree_flyweight
        )
        assert flyweight == classic

    @pytest.mark.parametrize("preset", FAULT_PRESETS)
    def test_outcome_matches_classic_under_adversity(self, preset):
        graph = make_topology("grid", 36, seed=11)
        first, second = differential(
            lambda: ChannelSynchronizer(graph, max_link_delay=3, seed=3),
            *aggregation_factories(graph, True), preset=preset,
            key=("flyweight-sync",),
        )
        assert first == second


class TestBFSOracle:
    """Distributed BFS (the oracle) against the sequential reference.

    One unlimited tree is ``build_bfs_forest``'s; several roots or a depth
    limit are held to the node-at-a-time queue that function is pinned to.
    """

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
            per_node(BFSTreeProtocol, inputs)
        )
        if num_roots == 1 and depth_limit is None:
            _, labels = bfs_maps(graph, build_bfs_forest(graph, roots[0]))
            root_of = dict.fromkeys(labels, roots[0])
        else:
            _, root_of, labels = queue_bfs_forest(graph, roots, depth_limit)
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
        env = FlyweightEnvironment(graph.csr(), None)
        assert env.num_slots == graph.num_nodes()
        assert [env.csr.slot(node) for node in graph.nodes()] == list(
            range(env.num_slots)
        )

    def test_halt_slot_bookkeeping(self):
        graph = WeightedGraph.from_edges([(0, 1)])
        env = FlyweightEnvironment(graph.csr(), streams=None)

        class Noop(FlyweightProtocol):
            def on_round(self, slots, inboxes, channel):
                pass

        protocol = Noop(env)
        assert protocol.active_count == 2
        protocol.halt_slot(1, result=7)
        assert protocol.active_count == 1
        assert protocol.results_by_node() == {0: None, 1: 7}


class TestCSREnvironment:
    """A flyweight run reads its forest and rows over the graph's CSR slots."""

    def test_forest_must_span_the_graph(self):
        graph = make_topology("grid", 9, seed=11)
        parent, _ = build_bfs_forest(graph, 0)
        # a forest over the graph's first eight nodes only
        short = SpanningForest(parent[:8])
        factory = TreeAggregationFlyweight.over(
            short, dict.fromkeys(graph.nodes(), 1), lambda a, b: a + b
        )
        with pytest.raises(ValueError, match="spans 8 nodes"):
            MultimediaNetwork(graph, seed=1).run(factory)
        result = MultimediaNetwork(graph, seed=1).run(TreeAggregationFlyweight.over(
            SpanningForest(parent), dict.fromkeys(graph.nodes(), 1), lambda a, b: a + b
        ))
        assert result.results[0] == 9

    def test_fault_free_run_aggregates_on_scale_free(self):
        graph = make_topology("scale_free", 512, seed=7)
        _, tree_flyweight = aggregation_factories(graph, redistribute=True)
        result = MultimediaNetwork(graph, seed=1).run(tree_flyweight)
        report = ChannelSynchronizer(graph, seed=1).run(tree_flyweight)
        root = min(graph.nodes())
        assert sorted(result.results[root]) == graph.nodes()
        assert sorted(report.results[root]) == graph.nodes()
