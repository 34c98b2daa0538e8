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

from typing import List, Sequence

RED = 0
GREEN = 1
BLUE = 2

#: Number of parent→child communication rounds Steps 4 and 5 need: one for the
#: shift-down, one for the blue pass and one for the green pass.
MIS_COMMUNICATION_ROUNDS = 3


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
    k = len(parent)
    if k and not RED <= min(colors) <= max(colors) <= BLUE:
        for vertex in range(k):
            if colors[vertex] not in (RED, GREEN, BLUE):
                raise ValueError(f"vertex {vertex} has a colour outside {{0,1,2}}")

    # ------------------------------------------------------------------
    # Step 4: shift-down that leaves every root red.  A root's child
    # adopts the root's colour, unless the root is already red, in which
    # case it picks a colour other than red and its own.  The same pass
    # checks that the colouring is legal.
    # ------------------------------------------------------------------
    step4 = [RED] * k
    for vertex, up in enumerate(parent):
        if up < 0:
            continue
        shifted = colors[up]
        if shifted == colors[vertex]:
            raise ValueError("the supplied colouring is not legal")
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
