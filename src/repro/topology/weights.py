"""Link-weight assignment helpers.

Sections 3 and 6 of the paper assume, w.l.o.g., that link weights are
distinct (the standard GHS assumption; ties can always be broken by the
endpoint identifiers).  :func:`assign_distinct_weights` assigns a random
permutation of ``1..m`` so that the MST of a generated topology is unique,
which makes the "each fragment is a subtree of the MST" invariant
checkable.
"""

from __future__ import annotations

import random
from array import array

from repro.topology.graph import WeightedGraph


def assign_distinct_weights(graph: WeightedGraph, seed: int) -> WeightedGraph:
    """Return a copy of ``graph`` with distinct positive integer weights.

    A random permutation of ``1..m`` is assigned to the edges, so the MST is
    unique and every weight fits in O(log m) bits — matching the paper's
    assumption that a message carries O(log n) bits plus one data element.
    """
    rng = random.Random(seed)
    csr = graph.csr()
    edge_u, edge_v = csr.canonical_endpoints()
    weights = list(range(1, len(edge_u) + 1))
    rng.shuffle(weights)
    # assign in canonical edge order; array('d') conversion is exactly
    # float(weight).  Each row of the copy lists the edges to lower slots
    # first (by slot), then the rest in the source's row order
    return WeightedGraph._from_csr_edges(csr.n, edge_u, edge_v, array("d", weights))
