"""Maximal independent set containing all roots, from a 3-colouring.

Steps 4 and 5 of the deterministic partitioning algorithm (Section 3) turn a
legal 3-colouring of the fragment forest F into a maximal independent set
(MIS) that contains the root of every tree of F.  With the colours named
red, green and blue, the recolouring proceeds as follows (all reads use the
colours of the *previous* step, so each step is one communication round):

* **Step 4 (shift-down with red roots).**  Every vertex other than a root or
  a root's child adopts its parent's colour.  If a root is red, each of its
  children picks a colour different from red and from its own; otherwise the
  root's children adopt the root's colour and the root becomes red.
* **Step 5 (greedy completion).**  Every blue vertex with no red neighbour
  becomes red; then every green vertex with no red neighbour becomes red.

The red vertices then form an MIS of F that includes every root, so any path
in F between two red vertices has length at most three — the fact Step 6 of
the partitioning algorithm uses to cut every tree of F into subtrees of
constant radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Set

from repro.protocols.symmetry.cole_vishkin import forest_columns

NodeId = Hashable

RED = 0
GREEN = 1
BLUE = 2

#: Number of parent→child communication rounds Steps 4 and 5 need: one for the
#: shift-down, one for the blue pass and one for the green pass.
MIS_COMMUNICATION_ROUNDS = 3


@dataclass
class MISResult:
    """The MIS produced by Steps 4–5 and the recoloured forest.

    Attributes:
        independent_set: the red vertices (contains every root of the forest).
        colors: the final colouring (red vertices are exactly the MIS).
        communication_rounds: rounds of parent↔child communication used.
    """

    independent_set: Set[NodeId]
    colors: Dict[NodeId, int]
    communication_rounds: int


def mis_from_three_coloring(
    parents: Dict[NodeId, Optional[NodeId]],
    colors: Dict[NodeId, int],
) -> MISResult:
    """Run Steps 4 and 5 of the partitioning algorithm on forest ``parents``.

    A dict adapter over :func:`mis_columns`: the vertices are enumerated in
    ``parents`` order, the kernel runs on the columns, and the colours are
    mapped back.

    Args:
        parents: rooted forest (roots map to ``None``).
        colors: a legal 3-colouring with colours in ``{0, 1, 2}`` (0 = red).

    Returns:
        The :class:`MISResult`; the red set is a maximal independent set of
        the forest and contains every root.

    Raises:
        ValueError: if a parent is not a key of ``parents``, or the
            colouring is illegal or uses colours outside ``{0, 1, 2}``.
    """
    vertices, parent = forest_columns(parents)
    final = mis_columns(parent, [colors[vertex] for vertex in vertices])
    return MISResult(
        independent_set={
            vertex for vertex, color in zip(vertices, final) if color == RED
        },
        colors=dict(zip(vertices, final)),
        communication_rounds=MIS_COMMUNICATION_ROUNDS,
    )


def mis_columns(parent: Sequence[int], colors: Sequence[int]) -> List[int]:
    """Run Steps 4 and 5 on a forest held in columns; return the final colours.

    The one implementation of Steps 4–5: the forest's vertices are
    ``0..k-1``, ``parent[v]`` is ``v``'s parent (``-1`` for a root) and
    ``colors[v]`` a legal 3-colouring.  The red (``RED``) vertices of the
    returned column are a maximal independent set containing every root.
    A vertex's neighbours are its parent and its children, so "no red
    neighbour" reads the parent's colour and one ``red_child`` flag per
    vertex — no children lists are built.

    Raises:
        ValueError: if the colouring is illegal or uses colours outside
            ``{0, 1, 2}``.
    """
    for vertex, up in enumerate(parent):
        if colors[vertex] not in (RED, GREEN, BLUE):
            raise ValueError(f"vertex {vertex} has a colour outside {{0,1,2}}")
        if up >= 0 and colors[vertex] == colors[up]:
            raise ValueError("the supplied colouring is not legal")
    k = len(parent)

    # ------------------------------------------------------------------
    # Step 4: shift-down that leaves every root red.  A root's child
    # adopts the root's colour, unless the root is already red, in which
    # case it picks a colour other than red and its own.
    # ------------------------------------------------------------------
    step4 = [RED] * k
    for vertex, up in enumerate(parent):
        if up < 0:
            continue
        shifted = colors[up]
        if shifted == RED and parent[up] < 0:
            shifted = _color_other_than(RED, colors[vertex])
        step4[vertex] = shifted

    # ------------------------------------------------------------------
    # Step 5: promote blue then green vertices with no red neighbour; each
    # pass reads only the previous step's colours.
    # ------------------------------------------------------------------
    final = step4
    for promoted in (BLUE, GREEN):
        red_child = bytearray(k)
        for vertex, up in enumerate(parent):
            if up >= 0 and final[vertex] == RED:
                red_child[up] = 1
        previous = final
        final = list(previous)
        for vertex, up in enumerate(parent):
            if (
                previous[vertex] == promoted
                and not red_child[vertex]
                and (up < 0 or previous[up] != RED)
            ):
                final[vertex] = RED
    return final


def _color_other_than(first: int, second: int) -> int:
    for candidate in (GREEN, BLUE, RED):
        if candidate != first and candidate != second:
            return candidate
    raise AssertionError("two excluded colours always leave one of three available")


def is_independent_set(
    parents: Dict[NodeId, Optional[NodeId]],
    vertices: Set[NodeId],
) -> bool:
    """Return ``True`` when no two vertices of ``vertices`` are adjacent in the forest."""
    for node, parent in parents.items():
        if parent is not None and node in vertices and parent in vertices:
            return False
    return True


def is_maximal_independent_set(
    parents: Dict[NodeId, Optional[NodeId]],
    vertices: Set[NodeId],
) -> bool:
    """Return ``True`` when ``vertices`` is independent and cannot be extended."""
    if not is_independent_set(parents, vertices):
        return False
    # a vertex outside the set must have a neighbour (parent or child) in it
    covered = set(vertices)
    for node, parent in parents.items():
        if parent is None:
            continue
        if parent in vertices:
            covered.add(node)
        if node in vertices:
            covered.add(parent)
    return all(node in covered for node in parents)
