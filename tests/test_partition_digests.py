"""SHA-256 pins of partitioner outputs the v1/v2 goldens do not cover.

The v1 golden pins the deterministic partition on grids only.  These digests
extend the pin to the inputs whose code paths differ: scale-free and ad-hoc
topologies at n = 4096, and repeated weights — where the GHS scan's
tie-break and F's ``repr``-order 2-cycle break decide the result
(``repr(10) < repr(9)``, so ``repr`` order is not numeric order).  One
randomized (Monte Carlo) run pins the Section 4 partitioner on scale-free
n = 4096.

Each digest covers the forest parent map (in forest order), the cores, the
per-phase records, the busy rounds and the metrics snapshot.  Print the
current digests with

    PYTHONPATH=src python tests/test_partition_digests.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest

from oracles import parent_map
from repro.core.partition.deterministic import DeterministicPartitioner
from repro.core.partition.randomized import RandomizedPartitioner
from repro.experiments.harness import make_topology
from repro.topology.graph import WeightedGraph


def _repeated_weight_graph() -> WeightedGraph:
    """A connected 48-node random graph with weights drawn from {1, 2, 3}."""
    rng = random.Random(27)
    n = 48
    edges = []
    for node in range(1, n):
        edges.append((node, rng.randrange(node), float(rng.randint(1, 3))))
    present = {frozenset((u, v)) for u, v, _ in edges}
    for _ in range(2 * n):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v, float(rng.randint(1, 3))))
    return WeightedGraph.from_edges(edges, n=n)


DETERMINISTIC_INPUTS = {
    "scale_free_4096": lambda: make_topology("scale_free", 4096, seed=3),
    "ad_hoc_4096": lambda: make_topology("ad_hoc", 4096, seed=3),
    "repeated_weights_int": _repeated_weight_graph,
}


def _digest(result, extra) -> str:
    forest = result.forest
    payload = {
        "parents": [[repr(node), repr(parent)] for node, parent in parent_map(forest).items()],
        "cores": [repr(core) for core in forest.cores],
        "records": extra,
        "metrics": dataclasses.asdict(result.metrics),
    }
    encoded = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def deterministic_digest(name: str) -> str:
    result = DeterministicPartitioner(DETERMINISTIC_INPUTS[name]()).run()
    records = {
        "phases": [dataclasses.asdict(record) for record in result.phases],
        "busy_rounds": result.busy_rounds,
        "target_size": result.target_size,
    }
    return _digest(result, records)


def randomized_digest() -> str:
    graph = make_topology("scale_free", 4096, seed=3)
    result = RandomizedPartitioner(graph, seed=5).run()
    records = {
        "iterations": [dataclasses.asdict(record) for record in result.iterations],
        "restarts": result.restarts,
        "verified": result.verified,
    }
    return _digest(result, records)


EXPECTED_DETERMINISTIC = {
    'ad_hoc_4096': '5e6864380e873f6b9cfff40a1af19156010209cc376ba797372d8a730976c131',
    'repeated_weights_int': 'db0167efb817e32cd434ca3d76d0fb65f9db13293acaa23e951800c0ee25051b',
    'scale_free_4096': 'f5e844aba588a9cdbd9745cf93550f5e050c952dff03c573461bfe44884a32f7',
}

EXPECTED_RANDOMIZED = 'd6879f8bbfc55cf3743b2d078c2d248804c168f23dea1b8607363e394deec001'


@pytest.mark.parametrize("name", sorted(DETERMINISTIC_INPUTS))
def test_deterministic_partition_digest(name):
    assert deterministic_digest(name) == EXPECTED_DETERMINISTIC[name]


def test_randomized_partition_digest():
    assert randomized_digest() == EXPECTED_RANDOMIZED


if __name__ == "__main__":
    for key in sorted(DETERMINISTIC_INPUTS):
        print(f"    {key!r}: {deterministic_digest(key)!r},")
    print(f"EXPECTED_RANDOMIZED = {randomized_digest()!r}")
