"""Goldberg–Plotkin–Shannon 3-colouring of a rooted forest (1987).

Step 3 of the deterministic partitioning algorithm 3-colours the fragment
forest F.  The GPS algorithm does this in ``O(log* n)`` parent→child
communication rounds:

1. start from the (distinct) vertex identifiers as colours;
2. apply Cole–Vishkin deterministic coin-tossing steps until at most six
   colours remain (``log* n + O(1)`` steps);
3. eliminate colours 5, 4 and 3 one at a time with a *shift-down + recolour*
   step: every non-root vertex adopts its parent's colour (so all siblings
   agree), the root picks a colour in ``{0,1,2}`` different from its own, and
   every vertex currently holding the colour being eliminated picks the
   smallest colour in ``{0,1,2}`` used by neither its parent nor its
   (now unanimous) children.

Every step reads only a vertex's own state and its parent's colour, so each
step costs one round of communication from parents to children; the result
records the number of such rounds for the caller's complexity accounting.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.protocols.symmetry.cole_vishkin import (
    cole_vishkin_columns,
    colors_after_step,
)


def three_color_columns(
    parent: Sequence[int],
    identifiers: Sequence[int],
) -> Tuple[List[int], int]:
    """3-colour a forest held in columns with the GPS algorithm.

    The one implementation of Step 3: the forest's vertices are ``0..k-1``,
    ``parent[v]`` is ``v``'s parent (``-1`` for a root) and
    ``identifiers[v]`` its distinct initial colour.  The deterministic
    partitioner runs it on the fragment forest F directly.

    Returns:
        ``(colors, communication_rounds)`` with ``colors[v]`` in ``{0, 1, 2}``.

    Raises:
        ValueError: if a parent is not a vertex, identifiers repeat, or the
            structure contains a cycle.
    """
    _validate_forest_columns(parent)
    k = len(parent)
    if len(set(identifiers)) != k:
        raise ValueError("initial identifiers must be distinct")
    if not k:
        return [], 0
    colors = list(identifiers)
    num_colors = max(colors) + 1
    rounds = 0

    # Phase 1: Cole–Vishkin until at most six colours remain
    while num_colors > 6:
        colors = cole_vishkin_columns(colors, parent, num_colors)
        next_bound = colors_after_step(num_colors)
        rounds += 1
        if next_bound >= num_colors:
            break
        num_colors = next_bound

    # Phase 2: eliminate colours 5, 4, 3 via shift-down + recolour.  The
    # shift-down and recolour passes are fused into one pass per eliminated
    # colour: a vertex's shifted colour is its parent's old colour (roots
    # recolour against their own old colour), and after the shift all of a
    # vertex's children agree on the vertex's *old* colour — so the recolour
    # step never needs the materialized shifted column, only O(1) lookups
    # (parent's shifted colour = grandparent's old colour) plus whether the
    # vertex has children at all.
    has_children = bytearray(k)
    for up in parent:
        if up >= 0:
            has_children[up] = 1
    for eliminated in (5, 4, 3):
        recolored = [0] * k
        for vertex, up in enumerate(parent):
            if up < 0:
                # a root takes the smallest colour other than its own
                shifted = 1 if colors[vertex] == 0 else 0
            else:
                shifted = colors[up]
            if shifted != eliminated:
                recolored[vertex] = shifted
                continue
            forbidden = set()
            if up >= 0:
                grandparent = parent[up]
                if grandparent < 0:
                    forbidden.add(1 if colors[up] == 0 else 0)
                else:
                    forbidden.add(colors[grandparent])
            if has_children[vertex]:
                forbidden.add(colors[vertex])
            recolored[vertex] = _smallest_excluding(forbidden)
        colors = recolored
        rounds += 1

    for vertex, up in enumerate(parent):
        if up >= 0 and colors[vertex] == colors[up]:
            raise AssertionError("GPS colouring produced an illegal colouring")
    if max(colors) > 2:
        raise AssertionError("GPS colouring did not reach three colours")
    return colors, rounds


def _smallest_excluding(forbidden) -> int:
    for candidate in (0, 1, 2, 3):
        if candidate not in forbidden:
            return candidate
    raise AssertionError("three forbidden colours cannot exclude all of {0,1,2,3}")


def _validate_forest_columns(parent: Sequence[int]) -> None:
    """Check that ``parent`` describes a rooted forest over ``0..k-1``.

    Raises:
        ValueError: if a parent is not a vertex or the structure has a cycle.
    """
    k = len(parent)
    if k and (max(parent) >= k or min(parent) < -1):
        for vertex, up in enumerate(parent):
            if up >= k or up < -1:
                raise ValueError(f"the parent of vertex {vertex} is not a vertex")
    # cycle detection by walking each vertex towards its root; vertices
    # already proven safe (state 2) are never re-walked, keeping the check
    # linear, and meeting a vertex of the current walk (state 1) is a cycle
    state = bytearray(k)
    for start in range(k):
        if state[start]:
            continue
        walk = []
        current = start
        while current >= 0 and not state[current]:
            state[current] = 1
            walk.append(current)
            current = parent[current]
        if current >= 0 and state[current] == 1:
            raise ValueError("the parent map contains a cycle")
        for vertex in walk:
            state[vertex] = 2
