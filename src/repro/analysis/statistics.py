"""The summary statistic the experiment sweeps aggregate seeds with.

The randomized experiment sweeps (e3/e4/e6) run each instance across several
seeds and report per-size means.  Kept dependency-free (no numpy) so the
core library stays pure-stdlib — a constraint the repository holds
everywhere (see ROADMAP.md) — and the tests cross-check the result against
numpy where it happens to be available.

:func:`mean` rejects empty input with :class:`ValueError` rather than
returning a quiet ``nan``: an empty sample reaching an experiment aggregate
means a sweep produced no rows, which should fail loudly.
"""

from __future__ import annotations

from typing import Sequence


def mean(values: Sequence[float]) -> float:
    """Return the arithmetic mean of ``values``.

    Args:
        values: a non-empty sample.

    Raises:
        ValueError: if ``values`` is empty.
    """
    if not values:
        raise ValueError("cannot average zero values")
    return sum(values) / len(values)
