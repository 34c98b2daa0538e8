"""Topology generators for the point-to-point side of a multimedia network.

All generators return :class:`~repro.topology.graph.WeightedGraph` instances
with integer node identifiers ``0..n-1`` and unit edge weights, except the
ad-hoc generator, whose weights are the links' affectances; distinct
weights, when needed (MST experiments), are assigned afterwards with
:func:`repro.topology.weights.assign_distinct_weights`.

The generator set covers the topologies exercised by the paper and its
experiments:

* low-diameter topologies (complete graphs, hypercubes, random graphs) where a
  pure point-to-point algorithm is already fast;
* high-diameter topologies (paths, rings, grids, random geometric graphs)
  where the paper's Ω(d) point-to-point lower bound bites and the multimedia
  combination wins;
* **ray graphs** — the adversarial topology of Section 5.2 used in the
  Ω(min{d, √n}) multimedia lower bound: a centre vertex from which
  ``2(n-1)/d`` vertex-disjoint paths of length ``d/2`` emanate;
* **scale-free graphs** (Barabási–Albert preferential attachment) and
  **ad-hoc affectance graphs** (heterogeneous-range wireless placements) —
  the dissemination-style workloads of arXiv:0908.0976 and arXiv:1703.01704,
  built with near-linear constructions so sweeps at ``n ≥ 10^4`` stay cheap.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from array import array
from bisect import bisect_right
from typing import List, Optional, Tuple

from repro.topology.graph import WeightedGraph


def path_graph(n: int) -> WeightedGraph:
    """Return a simple path on ``n`` nodes (diameter ``n - 1``).

    Raises:
        ValueError: if ``n < 1``.
    """
    if n < 1:
        raise ValueError("a path needs at least one node")
    return WeightedGraph._from_csr_edges(
        n, array("q", range(n - 1)), array("q", range(1, n))
    )


def ring_graph(n: int) -> WeightedGraph:
    """Return a cycle on ``n`` nodes (diameter ``⌊n/2⌋``).

    Raises:
        ValueError: if ``n < 3``.
    """
    if n < 3:
        raise ValueError("a ring needs at least three nodes")
    edge_u = array("q", range(n - 1))
    edge_u.append(n - 1)
    edge_v = array("q", range(1, n))
    edge_v.append(0)
    return WeightedGraph._from_csr_edges(n, edge_u, edge_v)


def complete_graph(n: int) -> WeightedGraph:
    """Return the complete graph on ``n`` nodes (diameter 1)."""
    if n < 1:
        raise ValueError("a complete graph needs at least one node")
    return WeightedGraph.from_edges(itertools.combinations(range(n), 2), n=n)


def grid_graph(rows: int, cols: int) -> WeightedGraph:
    """Return a ``rows × cols`` 2-D grid (diameter ``rows + cols - 2``)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    return WeightedGraph._from_csr_edges(rows * cols, *_grid_columns(rows, cols))


def _grid_columns(rows: int, cols: int) -> Tuple[array, array]:
    """Return the grid's edge columns, row-major, right edge before down edge."""
    edge_u = array("q")
    edge_v = array("q")
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edge_u.append(node)
                edge_v.append(node + 1)
            if r + 1 < rows:
                edge_u.append(node)
                edge_v.append(node + cols)
    return edge_u, edge_v


def torus_graph(rows: int, cols: int) -> WeightedGraph:
    """Return a 2-D torus (grid with wrap-around edges)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3")
    edge_u, edge_v = _grid_columns(rows, cols)
    for r in range(rows):
        edge_u.append(r * cols)
        edge_v.append(r * cols + cols - 1)
    for c in range(cols):
        edge_u.append(c)
        edge_v.append((rows - 1) * cols + c)
    return WeightedGraph._from_csr_edges(rows * cols, edge_u, edge_v)


def hypercube_graph(dimension: int) -> WeightedGraph:
    """Return the ``dimension``-dimensional hypercube on ``2**dimension`` nodes."""
    if dimension < 0:
        raise ValueError("dimension must be non-negative")
    n = 1 << dimension
    return WeightedGraph.from_edges(
        (
            (node, node ^ (1 << bit))
            for node in range(n)
            for bit in range(dimension)
            if node ^ (1 << bit) > node
        ),
        n=n,
    )


def random_tree(n: int, seed: int) -> WeightedGraph:
    """Return a uniformly random labelled tree on ``n`` nodes.

    The tree is generated by decoding a random Prüfer sequence, so every
    labelled tree is equally likely given a uniform random source.
    """
    if n < 1:
        raise ValueError("a tree needs at least one node")
    return WeightedGraph.from_edges(_random_tree_pairs(n, seed), n=n)


def _random_tree_pairs(n: int, seed: int) -> List[Tuple[int, int]]:
    """Return the edges of :func:`random_tree` in Prüfer-decoding order."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for node in sequence:
        degree[node] += 1
    leaves = [node for node in range(n) if degree[node] == 1]
    heapq.heapify(leaves)
    pairs = []
    for node in sequence:
        pairs.append((heapq.heappop(leaves), node))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(leaves, node)
    # exactly two leaves remain after the Prüfer sequence is consumed
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    pairs.append((u, v))
    return pairs


def erdos_renyi_graph(
    n: int,
    probability: float,
    seed: int,
    ensure_connected: bool = True,
) -> WeightedGraph:
    """Return a G(n, p) random graph.

    When ``ensure_connected`` is set (the default, because the paper's model
    assumes a connected network) a random spanning tree is added first and
    the remaining pairs are sampled independently with probability ``p``.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if not 0.0 <= probability <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    rng = random.Random(seed)
    if ensure_connected and n > 1:
        pairs = _random_tree_pairs(n, seed=rng.randrange(2**31))
    else:
        pairs = []
    present = {(u, v) if u < v else (v, u) for u, v in pairs}
    for pair in itertools.combinations(range(n), 2):
        if pair in present:
            continue
        if rng.random() < probability:
            pairs.append(pair)
    return WeightedGraph.from_edges(pairs, n=n)


def random_geometric_graph(
    n: int,
    radius: Optional[float] = None,
    *,
    seed: int,
) -> WeightedGraph:
    """Return a connected random geometric graph on the unit square.

    Nodes are placed uniformly at random; two nodes are adjacent when their
    Euclidean distance is below ``radius``.  The default radius
    ``sqrt(2 ln n / n)`` is slightly above the connectivity threshold.  Any
    remaining components are stitched together by connecting each
    component's closest pair of nodes, which keeps the geometric flavour of
    the topology.

    Raises:
        ValueError: if ``n < 1`` or ``radius`` is negative or NaN.
    """
    return _stitch_components(n, *_geometric_links(n, radius, seed))


def _geometric_links(
    n: int, radius: Optional[float], seed: int
) -> Tuple[array, array, List[float], List[float]]:
    """Return :func:`random_geometric_graph`'s links before any stitching.

    Returns ``(edge_u, edge_v, xs, ys)``: the in-radius pairs ``u < v`` in
    ascending ``(u, v)`` order, and each node's drawn coordinates.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if radius is None:
        radius = math.sqrt(2.0 * math.log(max(n, 2)) / n)
    elif not radius >= 0:  # NaN fails every comparison
        raise ValueError(f"radius must be a non-negative number, not {radius!r}")
    rng = random.Random(seed)
    draws = [rng.random() for _ in range(2 * n)]  # x then y, node by node
    xs, ys = draws[0::2], draws[1::2]
    # bucket the nodes into square cells of side at least the radius, so
    # every pair within reach lies in the 3×3 cell neighbourhood of either
    # endpoint; each node then tests only the higher-numbered nodes of its
    # neighbourhood, in increasing order, so the pairs come out in the
    # all-pairs scan's ascending (u, v) order
    limit = radius * radius
    buckets = _cell_buckets(xs, ys, 1.0 / _cells_per_side(radius, n))
    cell_of = [None] * n
    for key, members in buckets.items():
        for node in members:
            cell_of[node] = key
    edge_u = array("q")
    edge_v = array("q")
    for u in range(n):
        cx, cy = cell_of[u]
        candidates = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                members = buckets.get((cx + dx, cy + dy))
                if members:
                    candidates.extend(members[bisect_right(members, u):])
        candidates.sort()
        ux = xs[u]
        uy = ys[u]
        for v in candidates:
            du = ux - xs[v]
            dv = uy - ys[v]
            if du * du + dv * dv <= limit:
                edge_u.append(u)
                edge_v.append(v)
    return edge_u, edge_v, xs, ys


def _cell_buckets(xs: List[float], ys: List[float], width: float) -> dict:
    """Return the nodes bucketed by square cell.

    Maps each cell ``(int(x / width), int(y / width))`` to its nodes in
    node order (node ``i`` sits at ``(xs[i], ys[i])``); cells are keyed in
    order of first occupancy.
    """
    buckets: dict = {}
    for node, (x, y) in enumerate(zip(xs, ys)):
        buckets.setdefault((int(x / width), int(y / width)), []).append(node)
    return buckets


def _cells_per_side(reach: float, n: int) -> int:
    """Return how many grid cells per side of the unit square to bucket by.

    Cells are wider than ``reach`` by a margin that absorbs the rounding of
    the cell index (:func:`_cell_buckets`), so two points within ``reach``
    of each other never land more than one cell apart; at most about ``√n``
    cells per side.  A zero reach, or one above about a third, is one cell:
    the all-pairs scan.
    """
    if not reach > 0:
        return 1
    return max(1, int(min(1.0 / reach, math.isqrt(n) + 1)) - 1)


def _stitch_components(
    n: int, edge_u: array, edge_v: array, xs: List[float], ys: List[float],
    edge_w: Optional[array] = None, ranges: Optional[List[float]] = None,
) -> WeightedGraph:
    """Build the graph, bridging its components via nearest pairs.

    While the edge stream is disconnected, the closest pair between the
    first component and any other is added to it, one bridge at a time; the
    components are read off a throwaway graph over the current stream (one
    BFS from each smallest unseen slot, members in visit order), and each
    bridge makes new columns rather than growing the ones that graph holds.
    The connected stream is built into the returned graph, whose rows are
    left unfilled.  Without ``edge_w`` the graph has unit weights; with it
    (the links' affectance column, see :func:`ad_hoc_affectance_graph`)
    each bridge gets its affectance from ``ranges`` too.
    """
    while not _stream_connected(n, edge_u, edge_v):
        csr = WeightedGraph._from_csr_edges(n, edge_u, edge_v).csr()
        seen = bytearray(n)
        components = []
        for start in range(n):
            if not seen[start]:
                component = csr.bfs(start)[2]
                for slot in component:
                    seen[slot] = 1
                components.append(component)
        base = components[0]
        best = None
        for other in components[1:]:
            for u in base:
                for v in other:
                    du = xs[u] - xs[v]
                    dv = ys[u] - ys[v]
                    dist = du * du + dv * dv
                    if best is None or dist < best[0]:
                        best = (dist, u, v)
        assert best is not None
        dist, u, v = best
        edge_u = edge_u + array("q", (u,))
        edge_v = edge_v + array("q", (v,))
        if edge_w is not None:
            reach = ranges[v] if ranges[v] < ranges[u] else ranges[u]
            alpha = math.sqrt(dist) / reach
            edge_w = edge_w + array("d", (1e-9 if 1e-9 > alpha else alpha,))
    return WeightedGraph._from_csr_edges(n, edge_u, edge_v, edge_w)


def barabasi_albert_graph(
    n: int,
    attachment: int = 2,
    *,
    seed: int,
) -> WeightedGraph:
    """Return a scale-free graph grown by preferential attachment.

    The Barabási–Albert process (the model underlying the scale-free
    broadcast/dissemination studies, e.g. arXiv:0908.0976): start from
    ``attachment`` isolated seed nodes, then attach every further node to
    ``attachment`` distinct existing nodes chosen with probability
    proportional to their current degree.  The degree distribution follows a
    power law (a few hubs of very high degree, many low-degree leaves) and
    the diameter is O(log n / log log n).

    Preferential selection uses the repeated-endpoints list (each edge
    contributes both endpoints, so uniform sampling from the list *is*
    degree-proportional), which keeps construction O(n · attachment) — cheap
    enough for ``n ≥ 10^4`` sweeps.  The graph is connected by construction:
    every node after the first attaches to earlier nodes.

    Raises:
        ValueError: if ``n < 1`` or ``attachment < 1``.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if attachment < 1:
        raise ValueError("every new node must attach to at least one node")
    if n <= attachment + 1:
        # too small for the process to bite; the complete graph is the limit
        return complete_graph(n)
    rng = random.Random(seed)
    # the first arriving node connects to every seed node, so the seed stage
    # is connected before sampling starts
    edge_u = array("q")
    edge_v = array("q")
    repeated: list = []
    targets = list(range(attachment))
    for source in range(attachment, n):
        for target in targets:
            edge_u.append(source)
            edge_v.append(target)
        repeated.extend(targets)
        repeated.extend([source] * attachment)
        if source + 1 == n:
            break
        chosen: set = set()
        while len(chosen) < attachment:
            chosen.add(repeated[rng.randrange(len(repeated))])
        targets = sorted(chosen)
    return WeightedGraph._from_csr_edges(n, edge_u, edge_v)


def flower_size(u: int, v: int, generations: int) -> int:
    """Return the node count of the ``(u, v)``-flower after ``generations``.

    Generation 0 is a cycle of ``u + v`` nodes; every generation replaces
    each edge by two parallel paths, adding ``u + v - 2`` nodes per edge.

    Raises:
        ValueError: on invalid flower parameters (see :func:`flower_graph`).
    """
    if u < 1 or v < u:
        raise ValueError("flower parameters need 1 <= u <= v")
    if u + v < 3:
        raise ValueError("the initial cycle needs at least three nodes")
    if generations < 0:
        raise ValueError("generations must be non-negative")
    w = u + v
    nodes, edges = w, w
    for _ in range(generations):
        nodes += (w - 2) * edges
        edges *= w
    return nodes


def flower_generations_for(u: int, v: int, n: int) -> int:
    """Return the largest generation whose ``(u, v)``-flower has ≤ ``n`` nodes.

    Flowers only exist at the discrete sizes :func:`flower_size` enumerates,
    so sweeps specify a target ``n`` and build the largest flower that fits
    (never smaller than generation 0, the initial cycle).
    """
    g = 0
    while flower_size(u, v, g + 1) <= n:
        g += 1
    return g


def flower_graph(u: int, v: int, generations: int) -> WeightedGraph:
    """Return the deterministic ``(u, v)``-flower after ``generations``.

    The recursive scale-free family of the MFPT literature
    (arXiv:0908.0976): start from a cycle of ``u + v`` nodes, then in every
    generation replace each existing edge ``{a, b}`` by two parallel paths —
    one of ``u`` edges and one of ``v`` edges — between ``a`` and ``b``.
    All ``(u, v)``-flowers with the same ``u + v`` and the same generation
    have **identical degree sequences** (every replacement doubles the
    degree of the surviving endpoints and adds the same path-interior
    degree-2 nodes), yet their large-scale structure differs sharply:
    ``u = 1`` keeps every replaced edge as a shortcut, giving a small-world
    (non-fractal) web, while ``u ≥ 2`` stretches distances by a factor
    ``u`` per generation, giving a fractal web of polynomial diameter.
    That same-degree-sequence / distinct-structure pair is exactly what the
    mean-first-passage-time experiment (e12) contrasts.

    Nodes are numbered deterministically: the initial cycle is ``0..u+v-1``
    and path-interior nodes are appended in edge-replacement order, so two
    calls always return the identical graph.

    Raises:
        ValueError: if ``u < 1``, ``v < u``, ``u + v < 3`` or
            ``generations < 0``.
    """
    expected = flower_size(u, v, generations)  # validates the parameters
    w = u + v
    edges = [(i, (i + 1) % w) for i in range(w)]
    next_id = w
    for _ in range(generations):
        new_edges = []
        for a, b in edges:
            for length in (u, v):
                prev = a
                for _ in range(length - 1):
                    new_edges.append((prev, next_id))
                    prev = next_id
                    next_id += 1
                new_edges.append((prev, b))
        edges = new_edges
    assert next_id == expected
    edge_u = array("q", (a for a, _ in edges))
    edge_v = array("q", (b for _, b in edges))
    return WeightedGraph._from_csr_edges(next_id, edge_u, edge_v)


def _stream_connected(n: int, edge_u: array, edge_v: array) -> bool:
    """True when the edge columns describe one connected graph on ``n`` slots.

    Union–find with path halving straight over the columns: no rows are
    built, and the scan stops at the edge that joins the last two
    components.
    """
    if n <= 1:
        return True
    parent = list(range(n))
    components = n
    for u, v in zip(edge_u, edge_v):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
            if components == 1:
                return True
    return False


def degree_preserving_rewire(
    graph: WeightedGraph,
    swaps: Optional[int] = None,
    *,
    seed: int,
) -> WeightedGraph:
    """Return a randomized copy of ``graph`` with the exact same degree sequence.

    Performs seeded double-edge swaps directly over the CSR edge columns:
    pick two edges ``{a, b}`` and ``{c, d}``, replace them by ``{a, d}`` and
    ``{c, b}`` (with a coin flip on the second edge's orientation), rejecting
    any swap that would create a self-loop or a parallel edge.  Every
    accepted swap preserves all four endpoint degrees, so the degree
    sequence of the result is *exactly* that of the input — the
    randomization used by the same-degree-sequence MFPT comparison
    (arXiv:0908.0976, experiment e12).

    When the input is connected, swaps are committed in windows: after each
    window a union–find pass over the edge columns checks connectivity,
    rolling the whole window back (and halving the window) if the swaps
    disconnected the graph — a per-swap check would cost O(m·(n+m)) and is
    unaffordable at ``n ≥ 10^5``, while windowed checks
    amortise to O((n+m)·log) for the common all-connected case.  A
    disconnected input skips the checks and is simply rewired.

    The result carries unit edge weights (rewiring replaces links, so input
    weights are meaningless); assign fresh weights afterwards if needed.

    Args:
        graph: the graph to randomize (left untouched).
        swaps: number of swap *attempts* (default ``2 · m``; acceptance is
            typically well above half, so each edge is swapped a few times).
        seed: seed of the private :class:`random.Random` driving the swaps.

    Raises:
        ValueError: if ``swaps`` is negative.
    """
    if swaps is not None and swaps < 0:
        raise ValueError("swaps must be non-negative")
    csr = graph.csr()
    n = csr.n
    base_u, base_v, _ = csr.canonical_edges()
    edge_u = array("q", base_u)
    edge_v = array("q", base_v)
    m = len(edge_u)
    if m < 2:
        return WeightedGraph._from_csr_edges(n, edge_u, edge_v)
    rng = random.Random(seed)
    attempts = 2 * m if swaps is None else swaps
    present = set()
    for j in range(m):
        a, b = edge_u[j], edge_v[j]
        present.add((a, b) if a < b else (b, a))
    checking = _stream_connected(n, edge_u, edge_v)
    undo: list = []
    window = 64

    def rollback() -> None:
        """Undo the current window's swaps, newest first."""
        for j, k, old1, old2, new1, new2 in reversed(undo):
            present.discard(new1)
            present.discard(new2)
            present.add(old1)
            present.add(old2)
            edge_u[j], edge_v[j] = old1
            edge_u[k], edge_v[k] = old2

    for _ in range(attempts):
        j = rng.randrange(m)
        k = rng.randrange(m)
        if j == k:
            continue
        a, b = edge_u[j], edge_v[j]
        c, d = edge_u[k], edge_v[k]
        if rng.random() < 0.5:
            c, d = d, c
        if a == d or c == b:
            continue
        new1 = (a, d) if a < d else (d, a)
        new2 = (c, b) if c < b else (b, c)
        if new1 == new2 or new1 in present or new2 in present:
            continue
        old1 = (a, b)
        ou, ov = edge_u[k], edge_v[k]
        old2 = (ou, ov)
        present.discard(old1)
        present.discard(old2)
        present.add(new1)
        present.add(new2)
        edge_u[j], edge_v[j] = new1
        edge_u[k], edge_v[k] = new2
        if checking:
            undo.append((j, k, old1, old2, new1, new2))
            if len(undo) >= window:
                if _stream_connected(n, edge_u, edge_v):
                    undo.clear()
                    window = min(window * 2, 65536)
                else:
                    rollback()
                    undo.clear()
                    window = max(1, window // 2)
    if checking and undo:
        if not _stream_connected(n, edge_u, edge_v):
            rollback()
        undo.clear()
    return WeightedGraph._from_csr_edges(n, edge_u, edge_v)


def ad_hoc_affectance_graph(
    n: int,
    seed: int,
    base_range: Optional[float] = None,
    power_spread: float = 2.0,
) -> WeightedGraph:
    """Return an ad-hoc wireless network whose link weights are affectances.

    Models the dissemination-style ad-hoc networks of the affectance/SINR
    literature (arXiv:1703.01704): ``n`` stations are placed uniformly at
    random on the unit square, each station draws a transmission range
    between ``base_range`` and ``power_spread · base_range`` (heterogeneous
    power assignment), and a *bidirectional* link exists when the stations
    are within both ranges — i.e. their distance is at most the smaller of
    the two ranges, the standard symmetric-link abstraction of ad-hoc MAC
    layers.

    The default ``base_range`` is ``sqrt(1.5 ln n / (π n))``, chosen so the
    *effective* link radius (the expected min of two heterogeneous ranges)
    sits just above the random-geometric connectivity threshold
    ``sqrt(ln n / (π n))`` — expected degree Θ(log n), the sparse regime the
    ad-hoc dissemination literature studies, rather than the ~6× denser
    graphs the plain geometric default produces.  Candidate pairs are found
    with a uniform grid
    spatial hash (cell side = the maximum range), so construction is
    near-linear in ``n`` instead of the all-pairs scan the plain geometric
    generator performs — the difference between minutes and milliseconds at
    ``n = 10^4``.  Leftover components are stitched via their closest pairs
    (the model assumes a connected network).

    Each link's weight is its affectance
    ``α(u, v) = max(dist(u, v) / min(range_u, range_v), 1e-9)`` — the
    normalized interference weight the selective-family dissemination
    protocol (:func:`repro.protocols.dissemination.disseminate`,
    experiment e13) schedules by; the floor keeps coincident stations from
    making an infinitely strong link.  In-range links have affectance in
    ``(0, 1]``; stitching bridges (out-of-range by construction) exceed 1,
    marking them as the weakest links.  Callers that need other weights
    replace them (:func:`repro.topology.weights.assign_distinct_weights`).

    Raises:
        ValueError: if ``n < 1`` or ``power_spread < 1``.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if power_spread < 1.0:
        raise ValueError("power_spread must be at least 1 (max/min range ratio)")
    rng = random.Random(seed)
    if base_range is None:
        base_range = math.sqrt(1.5 * math.log(max(n, 2)) / (math.pi * n))
    draws = [rng.random() for _ in range(3 * n)]  # per node: x, y, range fraction
    xs, ys = draws[0::3], draws[1::3]
    spread = power_spread - 1.0
    ranges = [base_range * (1.0 + spread * fraction) for fraction in draws[2::3]]
    # spatial hash: with cells as wide as the maximum range, every link lies
    # within the 3×3 cell neighbourhood of either endpoint; each unordered
    # node pair is reached through exactly one cell pair (a cell and itself
    # or one of its four forward neighbours), so no edge repeats
    buckets = _cell_buckets(xs, ys, base_range * power_spread)
    edge_u = array("q")
    edge_v = array("q")
    edge_w = array("d")
    for (cx, cy), members in buckets.items():
        for dx, dy in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
            same = dx == 0 and dy == 0
            others = members if same else buckets.get((cx + dx, cy + dy))
            if others is None:
                continue
            for i, u in enumerate(members):
                ux = xs[u]
                uy = ys[u]
                reach_u = ranges[u]
                # a cell lists its nodes ascending, so within it the later
                # members are exactly the higher-numbered ones
                for v in others[i + 1:] if same else others:
                    dxp = ux - xs[v]
                    dyp = uy - ys[v]
                    reach = ranges[v]
                    if reach_u <= reach:
                        reach = reach_u
                    squared = dxp * dxp + dyp * dyp
                    if squared <= reach * reach:
                        if u < v:
                            edge_u.append(u)
                            edge_v.append(v)
                        else:
                            edge_u.append(v)
                            edge_v.append(u)
                        alpha = math.sqrt(squared) / reach
                        edge_w.append(1e-9 if 1e-9 > alpha else alpha)
    return _stitch_components(n, edge_u, edge_v, xs, ys, edge_w, ranges)


def ray_graph(num_rays: int, ray_length: int) -> WeightedGraph:
    """Return the *ray graph* used in the paper's multimedia lower bound.

    A ray graph consists of one distinguished **centre** vertex (node ``0``)
    from which ``num_rays`` vertex-disjoint simple paths ("rays"), each of
    ``ray_length`` vertices, emanate.  Its diameter is ``2 * ray_length`` and
    it has ``num_rays * ray_length + 1`` nodes.  Section 5.2 uses a ray graph
    of diameter ``d`` with ``2(n-1)/d`` rays of length ``d/2`` to prove the
    Ω(min{d, √n}) lower bound for computing global sensitive functions in a
    multimedia network.

    Raises:
        ValueError: if ``num_rays < 1`` or ``ray_length < 1``.
    """
    if num_rays < 1:
        raise ValueError("need at least one ray")
    if ray_length < 1:
        raise ValueError("rays must contain at least one vertex")
    # ray r's k-th vertex is 1 + r·ray_length + k, linked to its predecessor
    # (the centre for k = 0)
    n = num_rays * ray_length + 1
    return WeightedGraph.from_edges(
        ((node - 1 if (node - 1) % ray_length else 0, node) for node in range(1, n)), n=n
    )


def ray_graph_for(n: int, diameter: int) -> WeightedGraph:
    """Return a ray graph with roughly ``n`` nodes and the given ``diameter``.

    This mirrors the construction in Section 5.2: ``2(n-1)/d`` rays of length
    ``d/2``.  The returned graph has between ``n - d`` and ``n`` nodes (exact
    matching is impossible for all parameter combinations).

    Raises:
        ValueError: if ``diameter < 2`` or ``diameter`` exceeds what ``n``
            nodes can realise.
    """
    if diameter < 2:
        raise ValueError("diameter must be at least 2")
    ray_length = max(1, diameter // 2)
    num_rays = max(2, (n - 1) // ray_length)
    return ray_graph(num_rays, ray_length)
