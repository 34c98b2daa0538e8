"""Pins of whole :class:`~repro.sim.synchronizer.ChannelSynchronizer` runs.

e10's goldens pin the synchronizer at one link delay (3).  These pins cover
the clock at every delay shape the draw loop distinguishes — ``1`` (a draw
is always 0), ``2`` and ``4`` (powers of two: never a redraw) and ``7`` (a
redraw on one draw in eight) — on a grid and on a scale-free graph, and the
abort outcome under the ``loss`` and ``crash`` presets.

Each run is e10's redistributing BFS count.  A fault-free pin is the full
report: pulses, asynchronous time, algorithm and acknowledgement messages,
busy-tone slots, and the results (every node learns ``n``).  An adversity
pin is the report, or the abort's pulses, pending count and reason.  A
count cannot see the order in which mail arrives, so one more pin runs
tuple concatenation — associative, not commutative — up the same tree on
the scale-free graph, whose result spells out that order.  Print the
current values with

    PYTHONPATH=src python tests/test_synchronizer_pin.py
"""

from __future__ import annotations

import hashlib
import operator

import pytest

from repro.core.partition.forest import SpanningForest
from repro.experiments.e10_model_variations import _count_nodes
from repro.protocols.spanning.bfs import build_bfs_forest
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.sim.adversity import adversity_state
from repro.sim.errors import AdversityAbort
from repro.sim.synchronizer import ChannelSynchronizer
from repro.topology.generators import barabasi_albert_graph, grid_graph

GRAPHS = {
    "grid_8x8": lambda: grid_graph(8, 8),
    "ba_200": lambda: barabasi_albert_graph(200, seed=3),
}


def outcome(name: str, delay: int, adversity=None) -> tuple:
    """Run the count on ``GRAPHS[name]`` and return the pinned fields."""
    graph = GRAPHS[name]()
    state = adversity_state(adversity, "pin", name, delay)
    try:
        report = ChannelSynchronizer(graph, max_link_delay=delay, seed=3).run(
            _count_nodes(graph, 0), adversity=state
        )
    except AdversityAbort as abort:
        return ("abort", abort.rounds, abort.pending, abort.reason)
    n = graph.num_nodes()
    # e10's rows print the time with one decimal: it stays a float
    assert type(report.asynchronous_time) is float
    assert list(report.results.items()) == [(node, n) for node in graph.nodes()]
    return (
        report.pulses,
        report.asynchronous_time,
        report.algorithm_messages,
        report.ack_messages,
        report.busy_tone_slots,
    )


def arrival_order(name: str, delay: int) -> str:
    """Concatenate node tuples up the BFS tree; digest the root's result."""
    graph = GRAPHS[name]()
    parent, _ = build_bfs_forest(graph, 0)
    concat = TreeAggregationFlyweight.over(
        SpanningForest(parent),
        {node: (node,) for node in graph.nodes()},
        operator.add,
        redistribute=True,
    )
    report = ChannelSynchronizer(graph, max_link_delay=delay, seed=3).run(concat)
    return hashlib.sha256(repr(report.results[0]).encode()).hexdigest()[:16]


FAULT_FREE = {
    ("grid_8x8", 1): (29, 56.0, 126, 126, 28),
    ("grid_8x8", 2): (29, 99.0, 126, 126, 71),
    ("grid_8x8", 4): (29, 178.0, 126, 126, 150),
    ("grid_8x8", 7): (29, 293.0, 126, 126, 265),
    ("ba_200", 1): (11, 20.0, 398, 398, 10),
    ("ba_200", 2): (11, 40.0, 398, 398, 30),
    ("ba_200", 4): (11, 77.0, 398, 398, 67),
    ("ba_200", 7): (11, 118.0, 398, 398, 108),
}

UNDER_ADVERSITY = {
    ("grid_8x8", "loss"): ("abort", 4, 64, "busy-tone deadlock (lost message)"),
    ("grid_8x8", "crash"): (34, 111.0, 126, 126, 78),
    ("ba_200", "loss"): ("abort", 1, 200, "busy-tone deadlock (lost message)"),
    ("ba_200", "crash"): (22, 56.0, 398, 398, 35),
}


ARRIVAL_ORDER = {
    ("ba_200", 3): "1d63dfe16958ce87",
    ("ba_200", 7): "e3a8342970223058",
}


@pytest.mark.parametrize("name, delay", sorted(FAULT_FREE))
def test_fault_free_report_is_pinned(name, delay):
    assert outcome(name, delay) == FAULT_FREE[name, delay]


@pytest.mark.parametrize("name, kind", sorted(UNDER_ADVERSITY))
def test_adversity_outcome_is_pinned(name, kind):
    assert outcome(name, 2, kind) == UNDER_ADVERSITY[name, kind]


@pytest.mark.parametrize("name, delay", sorted(ARRIVAL_ORDER))
def test_arrival_order_is_pinned(name, delay):
    assert arrival_order(name, delay) == ARRIVAL_ORDER[name, delay]


def test_every_report_meets_corollary_4():
    # one acknowledgement per delivered message: exactly 2x the messages
    for fields in FAULT_FREE.values():
        assert fields[3] == fields[2]


if __name__ == "__main__":
    for name, delay in sorted(FAULT_FREE):
        print(f"    ({name!r}, {delay}): {outcome(name, delay)!r},")
    for name, kind in sorted(UNDER_ADVERSITY):
        print(f"    ({name!r}, {kind!r}): {outcome(name, 2, kind)!r},")
    for name, delay in sorted(ARRIVAL_ORDER):
        print(f"    ({name!r}, {delay}): {arrival_order(name, delay)!r},")
