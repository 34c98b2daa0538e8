"""Link-weight assignment helpers.

Sections 3 and 6 of the paper assume, w.l.o.g., that link weights are
distinct (the standard GHS assumption; ties can always be broken by the
endpoint identifiers).  These helpers assign random weights and enforce
distinctness deterministically so that the MST of a generated topology is
unique, which makes the "each fragment is a subtree of the MST" invariant
checkable.
"""

from __future__ import annotations

import random
from array import array
from typing import Optional

from repro.topology.graph import WeightedGraph


def assign_random_weights(
    graph: WeightedGraph,
    low: float = 1.0,
    high: float = 100.0,
    seed: Optional[int] = None,
) -> WeightedGraph:
    """Return a copy of ``graph`` with i.i.d. uniform random edge weights.

    The weights drawn are *not* guaranteed distinct; combine with
    :func:`ensure_distinct_weights` or use :func:`assign_distinct_weights`.
    """
    if low > high:
        raise ValueError("low must not exceed high")
    rng = random.Random(seed)
    csr = graph.csr()
    edge_u, edge_v, _ = csr.canonical_edges()
    # draw in canonical edge order, then build the copy from the reweighted
    # canonical edge stream
    uniform = rng.uniform
    drawn = array("d", (uniform(low, high) for _ in range(len(edge_u))))
    return _weighted_copy(csr, edge_u, edge_v, drawn)


def assign_distinct_weights(
    graph: WeightedGraph,
    seed: Optional[int] = None,
) -> WeightedGraph:
    """Return a copy of ``graph`` with distinct positive integer weights.

    A random permutation of ``1..m`` is assigned to the edges, so the MST is
    unique and every weight fits in O(log m) bits — matching the paper's
    assumption that a message carries O(log n) bits plus one data element.
    """
    rng = random.Random(seed)
    csr = graph.csr()
    edge_u, edge_v, _ = csr.canonical_edges()
    weights = list(range(1, len(edge_u) + 1))
    rng.shuffle(weights)
    # assign in canonical edge order; array('d') conversion is exactly
    # float(weight)
    return _weighted_copy(csr, edge_u, edge_v, array("d", weights))


def _weighted_copy(csr, edge_u, edge_v, weights) -> WeightedGraph:
    """Build the reweighted copy of a graph from its canonical edge stream.

    ``csr`` is the source graph's columns; ``weights`` pairs with its
    canonical edge columns, so each row of the copy lists the edges to lower
    slots first (by slot), then the rest in the source's row order.  Node
    labels (and the label→slot dict, when the enumeration is not the
    identity) are shared with the source — both are immutable.
    """
    if csr.identity:
        return WeightedGraph._from_csr_edges(csr.n, edge_u, edge_v, weights)
    return WeightedGraph._from_csr_edges(
        csr.n, edge_u, edge_v, weights, nodes=csr.nodes, index_of=csr.index_of
    )


def ensure_distinct_weights(graph: WeightedGraph) -> WeightedGraph:
    """Return a copy of ``graph`` whose weights are perturbed to be distinct.

    Ties are broken lexicographically by the canonical edge key, exactly the
    tie-breaking rule Gallager, Humblet and Spira suggest: the effective
    weight becomes the tuple ``(weight, min endpoint, max endpoint)`` encoded
    as a float by adding a rank-scaled epsilon.  The relative order of
    originally-distinct weights is preserved.  The copy is built from the
    canonical edge stream, like every reweighting here, so its
    :meth:`~repro.topology.graph.WeightedGraph.total_weight` is the
    left-to-right sum over its ``edges()``.
    """
    edges = graph.edges()
    if not edges:
        return graph
    order = sorted(
        range(len(edges)),
        key=lambda j: (edges[j].weight, repr(edges[j].key()[0]), repr(edges[j].key()[1])),
    )
    max_weight = max(abs(edge.weight) for edge in edges)
    epsilon = (max_weight + 1.0) * 1e-9
    perturbed = array("d", bytes(8 * len(edges)))
    for rank, j in enumerate(order):
        perturbed[j] = edges[j].weight + rank * epsilon
    csr = graph.csr()
    edge_u, edge_v, _ = csr.canonical_edges()
    return _weighted_copy(csr, edge_u, edge_v, perturbed)


def weight_bits(graph: WeightedGraph) -> int:
    """Return the number of bits needed to represent the largest edge weight.

    Used to check the model assumption that a data element fits in a single
    channel slot alongside the O(log n)-bit header.
    """
    max_weight = 0
    for edge in graph.edges():
        max_weight = max(max_weight, int(abs(edge.weight)))
    return max(1, max_weight).bit_length()
