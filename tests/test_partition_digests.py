"""SHA-256 pins of partitioner outputs the v1/v2 goldens do not cover.

The v1 golden pins the deterministic partition on grids only.  These digests
extend the pin to the inputs whose code paths differ: scale-free and ad-hoc
topologies at n = 4096, and repeated weights — where the GHS scan's
tie-break and F's ``repr``-order 2-cycle break decide the result
(``repr(10) < repr(9)``, so ``repr`` order is not numeric order).  The
randomized partitioner is pinned by one Monte Carlo run on scale-free
n = 4096, one on a graph built from a shuffled edge stream with reversed
endpoints (its CSR rows follow no canonical order, so the pin holds the
claim that no output depends on row order), one Las Vegas run on a grid,
and two runs that take a second iteration (the only path through the
link removal), one of them with damped coins so that its later
iterations' BFS waves meet equal labels left by earlier ones.

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
from unittest import mock

import pytest

from oracles import chorded_path, damped_escalation, parent_map
from repro.core.partition import randomized
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


def _shuffled_stream_graph() -> WeightedGraph:
    """The ad-hoc n = 2048 topology rebuilt from a shuffled edge stream.

    About half the edges are written high endpoint first, so neither the
    stream nor any CSR row is in canonical order.
    """
    rng = random.Random(41)
    edges = [
        (edge.v, edge.u) if rng.random() < 0.5 else (edge.u, edge.v)
        for edge in make_topology("ad_hoc", 2048, seed=7).edges()
    ]
    rng.shuffle(edges)
    return WeightedGraph.from_edges(edges, n=2048)


# name -> (graph builder, seed, Las Vegas?, coin factor); both Las Vegas
# runs restart (three times and once), so the pins cover the restart path's
# streams too.  Seed 42 takes the chorded path to a second iteration; with
# the coins damped (see oracles.damped_escalation) its run takes several,
# whose BFS waves meet nodes labelled in earlier iterations
RANDOMIZED_INPUTS = {
    "scale_free_4096": (lambda: make_topology("scale_free", 4096, seed=3), 5, False, None),
    "shuffled_stream_2048_las_vegas": (_shuffled_stream_graph, 7, True, None),
    "grid_4096_las_vegas": (lambda: make_topology("grid", 4096, seed=3), 4, True, None),
    "chorded_path_4096_two_iterations": (chorded_path, 42, False, None),
    "chorded_path_4096_damped_coins": (chorded_path, 3, False, 0.15),
}


def randomized_digest(name: str = "scale_free_4096") -> str:
    build, seed, las_vegas, coin_factor = RANDOMIZED_INPUTS[name]
    partitioner = RandomizedPartitioner(build(), seed=seed, las_vegas=las_vegas)
    if coin_factor is None:
        result = partitioner.run()
    else:
        with mock.patch.object(
            randomized, "escalation_sequence", damped_escalation(coin_factor)
        ):
            result = partitioner.run()
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

EXPECTED_RANDOMIZED_MORE = {
    'chorded_path_4096_damped_coins': '79d37992049d2b69181c47465229f70f78e916d4b2161492b7a134fe14e4f4a4',
    'chorded_path_4096_two_iterations': '451e23962f424c092ced17d0ba9bcd77178065c06985cae149902df4adf3ef3f',
    'grid_4096_las_vegas': '190007b8fbd8afee208dc6add6ff6bb7d3b5c9a681d6a1c6d397ef262240b835',
    'shuffled_stream_2048_las_vegas': 'b8b271f4dd94ea392f2fc00530660465f12cc76ca38379f5ecb8ddbbb8150da0',
}


@pytest.mark.parametrize("name", sorted(DETERMINISTIC_INPUTS))
def test_deterministic_partition_digest(name):
    assert deterministic_digest(name) == EXPECTED_DETERMINISTIC[name]


def test_randomized_partition_digest():
    assert randomized_digest() == EXPECTED_RANDOMIZED


@pytest.mark.parametrize("name", sorted(EXPECTED_RANDOMIZED_MORE))
def test_randomized_partition_digest_more_inputs(name):
    assert randomized_digest(name) == EXPECTED_RANDOMIZED_MORE[name]


if __name__ == "__main__":
    for key in sorted(DETERMINISTIC_INPUTS):
        print(f"    {key!r}: {deterministic_digest(key)!r},")
    print(f"EXPECTED_RANDOMIZED = {randomized_digest()!r}")
    for key in sorted(RANDOMIZED_INPUTS):
        if key != "scale_free_4096":
            print(f"    {key!r}: {randomized_digest(key)!r},")
