"""SHA-256 pins of topology generator outputs the goldens do not cover.

Goldens v1–v5 build every topology through ``make_topology``, so the
generators it never calls are unpinned there.  Each digest here covers the
node order, every node's row (neighbours in row order, with weights),
``edges()`` and the left-to-right sum of the weights in ``edges()`` order.
Print the current digests with

    PYTHONPATH=src python tests/test_generator_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from oracles import edge_weight_sum, neighbors
from repro.topology.generators import (
    ad_hoc_affectance_graph,
    complete_graph,
    erdos_renyi_graph,
    hypercube_graph,
    random_geometric_graph,
    random_tree,
    ray_graph,
    torus_graph,
)


INPUTS = {
    "complete_9": lambda: complete_graph(9),
    "hypercube_5": lambda: hypercube_graph(5),
    "random_tree_200": lambda: random_tree(200, seed=4),
    "erdos_renyi_60": lambda: erdos_renyi_graph(60, 0.05, seed=2),
    "erdos_renyi_60_loose": lambda: erdos_renyi_graph(
        60, 0.05, seed=2, ensure_connected=False
    ),
    "geometric_300": lambda: random_geometric_graph(300, radius=0.05, seed=4),
    "ad_hoc_400_stitched": lambda: ad_hoc_affectance_graph(400, seed=3, base_range=0.03),
    "torus_5x7": lambda: torus_graph(5, 7),
    "ray_6x5": lambda: ray_graph(6, 5),
}


def graph_digest(graph) -> str:
    payload = {
        "nodes": [repr(node) for node in graph.nodes()],
        "rows": [
            [[repr(v), graph.weight(u, v)] for v in neighbors(graph.csr(), u)]
            for u in graph.nodes()
        ],
        "edges": [[repr(e.u), repr(e.v), e.weight] for e in graph.edges()],
        "total_weight": edge_weight_sum(graph),
    }
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def current_digests():
    return {name: graph_digest(build()) for name, build in INPUTS.items()}


EXPECTED = {
    'ad_hoc_400_stitched': 'f68781af0fb8eb7409676e2a6b312944e5cb506d403ed3f8ae337e3ce5f36149',
    'complete_9': '1ea76114a9599f49b6ca7cab845079eb67f5d266a91ba67cc38684e1a1b44723',
    'erdos_renyi_60': 'b6f855a8c743481948c47528772daede6faf4243fc9a325ca0ed99f2295e30b5',
    'erdos_renyi_60_loose': '517cc99b1f1917204a5f487927b03dfeec58767acfd89f77c0320d27089808a3',
    'geometric_300': '84eb246ffcae4e5f114fe18e498a1db1871199e915f1f81f90ab9913857e1e86',
    'hypercube_5': 'f4b54cd1bd1be0ba5cdfb2f0658836ce76b9f34e2493a476be65c1bf2e79a662',
    'random_tree_200': '264e90fbfc274354c494e9bb0390f6c284fc8e12354b063afef41b68f3266e8f',
    'ray_6x5': '31295744f6d61d9b8e2f303fb957b7970b1a3e2269ccb7d7ba572adea83cc284',
    'torus_5x7': 'c10307c692c4dce0b872948f492f95fc306ee89ccb21f5542f01a7264154563b',
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_generator_digest(name):
    assert graph_digest(INPUTS[name]()) == EXPECTED[name]


if __name__ == "__main__":
    for key, value in sorted(current_digests().items()):
        print(f"    {key!r}: {value!r},")
