"""Cole–Vishkin deterministic coin tossing (1986).

One *deterministic coin tossing* step takes a legal colouring of a rooted
forest with colours drawn from ``{0, …, K−1}`` and produces a legal colouring
with O(log K) colours: every non-root vertex finds the least significant bit
position at which its colour differs from its parent's and encodes
``(position, own bit value)`` as its new colour; the root pretends its parent
differs at position 0.  Iterating the step reduces ``n`` initial colours (the
node identifiers) to a constant number of colours in ``log* n + O(1)`` steps,
which is where the ubiquitous ``log* n`` factors in the paper's complexity
bounds come from.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

NodeId = Hashable


def log_star(n: float) -> int:
    """Return ``log* n``: the number of times ``log2`` must be applied to reach ≤ 1.

    The paper defines log* n as the minimum integer ``i`` such that applying
    ``log`` ``i`` times to ``n`` yields a value ≤ 1 (all logarithms base 2).

    Raises:
        ValueError: if ``n`` is not positive.
    """
    import math

    if n <= 0:
        raise ValueError("log* is only defined for positive arguments")
    count = 0
    value = float(n)
    while value > 1.0:
        value = math.log2(value)
        count += 1
    return count


def color_bit_length(num_colors: int) -> int:
    """Return the number of bits needed to write colours in ``{0..num_colors−1}``."""
    if num_colors < 1:
        raise ValueError("need at least one colour")
    return max(1, (num_colors - 1).bit_length())


def forest_columns(
    parents: Dict[NodeId, Optional[NodeId]],
) -> Tuple[List[NodeId], List[int]]:
    """Enumerate a dict forest for the column kernels.

    Returns ``(vertices, parent)``: the vertices in ``parents`` order, and
    each one's parent as a position in that list (``-1`` for a root).  The
    dict adapters of this package all enumerate their input this way.

    Raises:
        ValueError: if a parent is not itself a key of ``parents``.
    """
    vertices = list(parents)
    index = {vertex: position for position, vertex in enumerate(vertices)}
    parent = []
    for vertex, up in parents.items():
        if up is None:
            parent.append(-1)
            continue
        position = index.get(up)
        if position is None:
            raise ValueError(f"parent {up!r} of {vertex!r} is not a vertex")
        parent.append(position)
    return vertices, parent


def cole_vishkin_columns(
    colors: Sequence[int],
    parent: Sequence[int],
    num_colors: int,
) -> List[int]:
    """Apply one deterministic coin-tossing step to a forest held in columns.

    The forest's vertices are ``0..k-1``; ``parent[v]`` is ``v``'s parent
    (``-1`` for a root) and ``colors[v]`` its current colour.  This is the
    one implementation of the step: :func:`cole_vishkin_step` and the GPS
    iteration both run it.

    Returns:
        The new colour column, in ``{0, …, 2·⌈log2 num_colors⌉ − 1}``.

    Raises:
        ValueError: if a vertex shares its parent's colour, or either colour
            lies outside the declared palette.
    """
    bits = color_bit_length(num_colors)
    new_colors = [0] * len(parent)
    for vertex, up in enumerate(parent):
        own = colors[vertex]
        if up < 0:
            # the root behaves as if its parent differed at bit position 0
            new_colors[vertex] = own & 1
            continue
        # least significant differing bit; position >= bits means equal
        # colours or colours outside the declared palette, both of which
        # the contract forbids
        diff = own ^ colors[up]
        position = bits if diff == 0 else (diff & -diff).bit_length() - 1
        if position >= bits:
            raise ValueError(
                f"illegal colouring: vertex {vertex} and its parent share colour {own}"
            )
        new_colors[vertex] = 2 * position + ((own >> position) & 1)
    return new_colors


def cole_vishkin_step(
    colors: Dict[NodeId, int],
    parents: Dict[NodeId, Optional[NodeId]],
    num_colors: int,
    out: Optional[Dict[NodeId, int]] = None,
) -> Dict[NodeId, int]:
    """Apply one deterministic coin-tossing step to a legal forest colouring.

    A dict adapter over :func:`cole_vishkin_columns`: the vertices are
    enumerated in ``parents`` order, the step runs on the columns, and the
    result is mapped back.

    Args:
        colors: current legal colouring (child colour ≠ parent colour).
        parents: rooted-forest structure; roots map to ``None``.
        num_colors: an upper bound on the current number of colours (the new
            colours lie in ``{0, …, 2·⌈log2 num_colors⌉ − 1}``).
        out: optional dictionary to write the new colouring into (cleared
            first; must not be ``colors`` itself).

    Returns:
        The new colouring (``out`` when given, else a fresh dictionary), in
        ``parents`` order.

    Raises:
        ValueError: if the input colouring is not legal, a parent is not a
            key of ``parents``, or ``out`` aliases ``colors``.
    """
    if out is colors:
        raise ValueError("out must not alias the input colouring")
    vertices, parent = forest_columns(parents)
    new_colors = cole_vishkin_columns(
        [colors[vertex] for vertex in vertices], parent, num_colors
    )
    result: Dict[NodeId, int] = {} if out is None else out
    result.clear()
    result.update(zip(vertices, new_colors))
    return result


def colors_after_step(num_colors: int) -> int:
    """Return the colour-count bound after one Cole–Vishkin step."""
    return 2 * color_bit_length(num_colors)


def steps_to_constant(num_colors: int, target: int = 6) -> int:
    """Return how many CV steps reduce ``num_colors`` colours to at most ``target``.

    Used by the complexity accounting: the deterministic partition charges one
    parent→child communication round per step.
    """
    if target < 6:
        raise ValueError("the CV iteration cannot go below six colours by itself")
    steps = 0
    current = num_colors
    while current > target:
        nxt = colors_after_step(current)
        steps += 1
        if nxt >= current:
            break
        current = nxt
    return steps
