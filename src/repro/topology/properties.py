"""Graph-theoretic properties needed by the algorithms and the experiments.

All helpers operate on :class:`~repro.topology.graph.WeightedGraph` and treat
edges as unit length (hop distance), which is what the paper's time
complexities are stated in — the diameter ``d`` of Theorem 2 is the hop
diameter of the point-to-point network.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.graph import WeightedGraph


def breadth_first_levels(graph: WeightedGraph, source: int) -> Dict[int, int]:
    """Return a mapping ``node -> hop distance from source``.

    Nodes unreachable from ``source`` do not appear in the result.

    Raises:
        KeyError: if ``source`` is not a node of ``graph``.
    """
    if not graph.has_node(source):
        raise KeyError(f"{source!r} is not a node of the graph")
    csr = graph.csr()
    offsets = csr.offsets
    targets = csr.targets
    # frontier-at-a-time sweep over the CSR rows: same visit order as the
    # node-at-a-time deque (FIFO within each level, neighbours in row
    # order), with byte-flag visit marks instead of per-neighbour hashing
    seen = bytearray(csr.n)
    seen[source] = 1
    levels: Dict[int, int] = {source: 0}
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for slot in frontier:
            for target in targets[offsets[slot]:offsets[slot + 1]]:
                if not seen[target]:
                    seen[target] = 1
                    levels[target] = depth
                    next_frontier.append(target)
        frontier = next_frontier
    return levels


def connected_components(graph: WeightedGraph) -> List[List[int]]:
    """Return the connected components of ``graph`` as lists of nodes."""
    seen = set()
    components: List[List[int]] = []
    for start in graph.nodes():
        if start in seen:
            continue
        levels = breadth_first_levels(graph, start)
        component = list(levels)
        seen.update(component)
        components.append(component)
    return components


def is_connected(graph: WeightedGraph) -> bool:
    """Return ``True`` when ``graph`` is connected (the empty graph counts).

    Answered by the graph's CSR view and cached there, so it costs one sweep
    per graph however many stages ask.
    """
    return graph.csr().is_connected()


def _slot_rows(graph: WeightedGraph) -> List[List[int]]:
    """Return per-slot neighbour lists (Python ints) from the CSR view.

    One O(m) materialisation shared by all of :func:`diameter`'s BFS passes:
    list rows make the inner BFS loop iterate existing int objects instead
    of allocating an ``array`` slice (and boxing its entries) per visited
    node, which is what dominates when many nodes are BFS sources.
    """
    csr = graph.csr()
    targets = list(csr.targets)
    offsets = csr.offsets
    return [targets[offsets[i]:offsets[i + 1]] for i in range(csr.n)]


def _slot_distances(rows: List[List[int]], n: int, start: int) -> Tuple[List[int], int]:
    """Return every slot's hop distance from ``start``, and ``start``'s eccentricity.

    Raises:
        ValueError: if the sweep does not reach all ``n`` slots.
    """
    distance = [-1] * n
    distance[start] = 0
    visited = 1
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        next_frontier: List[int] = []
        for slot in frontier:
            for target in rows[slot]:
                if distance[target] < 0:
                    distance[target] = depth
                    next_frontier.append(target)
        visited += len(next_frontier)
        frontier = next_frontier
    if visited != n:
        raise ValueError("eccentricity is undefined on a disconnected graph")
    return distance, depth - 1


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
    rows = _slot_rows(graph)
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
        distance, ecc = _slot_distances(rows, n, source)
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
    if graph.num_nodes() == 0:
        raise ValueError("the diameter of an empty graph is undefined")
    first = graph.nodes()[0]
    levels = breadth_first_levels(graph, first)
    if len(levels) != graph.num_nodes():
        raise ValueError("the diameter of a disconnected graph is undefined")
    first_ecc = 0
    farthest = first
    for node, level in levels.items():
        if level > first_ecc:
            first_ecc = level
            farthest = node
    second_levels = breadth_first_levels(graph, farthest)
    return max(first_ecc, max(second_levels.values()))
