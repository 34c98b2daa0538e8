"""Graph-theoretic properties needed by the algorithms and the experiments.

All helpers operate on :class:`~repro.topology.graph.WeightedGraph` and treat
edges as unit length (hop distance), which is what the paper's time
complexities are stated in — the diameter ``d`` of Theorem 2 is the hop
diameter of the point-to-point network.
"""

from __future__ import annotations

from repro.topology.graph import WeightedGraph


def diameter(graph: WeightedGraph) -> int:
    """Return the hop diameter of a connected ``graph``.

    Exact, by eccentricity bounds (Takes & Kosters, *Determining the
    diameter of small world networks*, CIKM 2011).  A BFS from ``v`` bounds
    every node ``w`` at distance ``d`` by
    ``max(d, ecc(v) − d) ≤ ecc(w) ≤ ecc(v) + d``; a node whose upper bound
    cannot beat the largest eccentricity bound found so far cannot be the
    diameter's endpoint and is dropped.  Sources alternate between the
    largest upper bound and the smallest lower bound, and the search stops
    when no candidate is left, or when the largest eccentricity found meets
    ``2·ecc(v)`` for some source ``v``.  On the §5.2 ray graphs and the
    geometric and ad-hoc kinds a few dozen BFS passes at most settle it;
    scale-free graphs, whose eccentricities crowd into two or three
    values, need about a third of their nodes as sources at n = 1024.

    On a vertex-transitive graph (ring, torus, hypercube) every node has
    the same eccentricity, so no bound prunes and every node is a source;
    the experiments never send those here (``harness.topology_diameter``
    has closed forms for ring and grid).

    Raises:
        ValueError: if the graph is empty or disconnected.
    """
    n = graph.num_nodes()
    if n == 0:
        raise ValueError("the diameter of an empty graph is undefined")
    csr = graph.csr()
    lower = [0] * n
    upper = [n] * n
    candidates = list(range(n))
    best = 0  # the largest eccentricity lower bound: best <= diameter
    ceiling = n  # min 2·ecc(v) over the sources: diameter <= ceiling
    from_top = True
    while candidates:
        if from_top:
            source = max(candidates, key=upper.__getitem__)
        else:
            source = min(candidates, key=lower.__getitem__)
        from_top = not from_top
        distance, _, order = csr.bfs(source)
        if len(order) != n:
            raise ValueError("eccentricity is undefined on a disconnected graph")
        ecc = distance[order[-1]]
        if ecc > best:
            best = ecc
        if 2 * ecc < ceiling:
            ceiling = 2 * ecc
        if best == ceiling:
            return best
        for w in candidates:
            d = distance[w]
            low = ecc - d if ecc - d > d else d
            if low > lower[w]:
                lower[w] = low
                if low > best:
                    best = low
            if ecc + d < upper[w]:
                upper[w] = ecc + d
        candidates = [w for w in candidates if upper[w] > best]
    return best


def approximate_diameter(graph: WeightedGraph) -> int:
    """Return a double-sweep lower bound on the hop diameter.

    Runs one BFS from the graph's first node, then a second BFS from a node
    the first sweep found farthest away; the larger eccentricity is a lower
    bound on the diameter that is exact on trees and empirically tight on the
    small-world topologies the large-``n`` sweeps use.  Deterministic (no
    randomness, ties broken by BFS visit order), and two BFS passes instead
    of the ``n`` passes :func:`diameter` needs.

    Raises:
        ValueError: if the graph is empty or disconnected.
    """
    n = graph.num_nodes()
    if n == 0:
        raise ValueError("the diameter of an empty graph is undefined")
    csr = graph.csr()
    distance, _, order = csr.bfs(0)
    if len(order) != n:
        raise ValueError("the diameter of a disconnected graph is undefined")
    first_ecc = distance[order[-1]]
    # the far end is the first slot the sweep visited at its deepest level,
    # which the visit order lists last, all together
    farthest = order[n - distance.count(first_ecc)]
    return max(first_ecc, max(csr.bfs(farthest)[0]))
