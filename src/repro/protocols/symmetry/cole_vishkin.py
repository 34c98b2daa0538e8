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

from typing import List, Sequence


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


def cole_vishkin_columns(
    colors: Sequence[int],
    parent: Sequence[int],
    num_colors: int,
) -> List[int]:
    """Apply one deterministic coin-tossing step to a forest held in columns.

    The forest's vertices are ``0..k-1``; ``parent[v]`` is ``v``'s parent
    (``-1`` for a root) and ``colors[v]`` its current colour.  The GPS
    iteration (:func:`~repro.protocols.symmetry.three_coloring.three_color_columns`)
    runs it.

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


def colors_after_step(num_colors: int) -> int:
    """Return the colour-count bound after one Cole–Vishkin step."""
    return 2 * color_bit_length(num_colors)
