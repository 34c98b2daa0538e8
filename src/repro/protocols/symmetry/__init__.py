"""Deterministic symmetry breaking on rooted forests.

The deterministic partitioning algorithm (Section 3) caps the radius of the
fragments it builds by 3-colouring the "fragment forest" F with the parallel
algorithm of Goldberg, Plotkin and Shannon (1987) — itself based on the
deterministic coin tossing of Cole and Vishkin (1986) — and then extracting a
maximal independent set that contains every root (Steps 4 and 5 of the paper).
These routines are formulated vertex-locally: a vertex's new colour depends
only on its own state and its parent's colour, so each step corresponds to
one round of parent→child communication, which the caller charges at the
fragment level (O(2^i) time per round in phase ``i``).

Each routine has one implementation, a *column kernel* over a forest whose
vertices are ``0..k-1`` and whose parents are an int column (``-1`` for a
root): :func:`~repro.protocols.symmetry.cole_vishkin.cole_vishkin_columns`,
:func:`~repro.protocols.symmetry.three_coloring.three_color_columns` and
:func:`~repro.protocols.symmetry.mis.mis_columns`.  The deterministic
partitioner runs the kernels on the fragment forest F directly.
"""

from repro.protocols.symmetry.cole_vishkin import (
    cole_vishkin_columns,
    color_bit_length,
    log_star,
)
from repro.protocols.symmetry.three_coloring import three_color_columns
from repro.protocols.symmetry.mis import mis_columns

__all__ = [
    "cole_vishkin_columns",
    "color_bit_length",
    "log_star",
    "three_color_columns",
    "mis_columns",
]
