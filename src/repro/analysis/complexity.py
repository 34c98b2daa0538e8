"""The paper's complexity bound formulas, used as reference curves.

Each function evaluates one of the paper's asymptotic claims at a concrete
instance size — e.g. :func:`det_partition_time_bound` is the Section 3
``O(√n log* n)`` running-time bound — dropping the hidden constant (every
bound is reported with an implicit constant of 1).  The experiment sweeps
divide their *measured* round and message counts by these curves and report
the ratio as a table column (``rounds/bound``, ``messages/bound``): a claim
"the algorithm runs in O(f(n))" is reproduced when the ratios stay within a
constant band as ``n`` grows — they may oscillate, but must not trend
upward.

The iterated-logarithm helpers come from the modules that own them
(:func:`~repro.protocols.symmetry.cole_vishkin.log_star` for base-2,
:func:`~repro.core.partition.randomized.ln_star` for base-e) and are
re-exported here so analysis code has one import surface.

All bounds guard their domains: sub-logarithmic expressions are clamped at
small ``n`` (where ``log log n`` would vanish or go negative) so sweeps that
include tiny smoke sizes never divide by zero.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from repro.protocols.symmetry.cole_vishkin import log_star
from repro.core.partition.randomized import ln_star

__all__ = [
    "log_star",
    "ln_star",
    "det_partition_time_bound",
    "det_partition_message_bound",
    "rand_partition_time_bound",
    "rand_partition_message_bound",
    "global_det_time_bound",
    "global_rand_time_bound",
    "mst_time_bound",
    "mst_message_bound",
    "PowerLawFit",
    "fit_power_law",
]


def det_partition_time_bound(n: int) -> float:
    """O(√n · log* n) — deterministic partition running time (Section 3).

    Args:
        n: number of network nodes.

    Raises:
        ValueError: when ``n`` is not positive.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return math.sqrt(n) * max(1, log_star(max(2, n)))


def det_partition_message_bound(n: int, m: int) -> float:
    """O(m + n · log n · log* n) — deterministic partition messages (Section 3).

    Args:
        n: number of network nodes.
        m: number of point-to-point links.

    Raises:
        ValueError: when ``n`` is not positive or ``m`` is negative.
    """
    if n < 1 or m < 0:
        raise ValueError("invalid n or m")
    return m + n * max(1.0, math.log2(max(2, n))) * max(1, log_star(max(2, n)))


def rand_partition_time_bound(n: int) -> float:
    """O(√n · log* n) — randomized partition running time (Section 4).

    Identical in form to :func:`det_partition_time_bound`; kept as its own
    name so the e3/e4 tables state which claim they divide by.
    """
    return det_partition_time_bound(n)


def rand_partition_message_bound(n: int, m: int) -> float:
    """O(m + n · log* n) — randomized partition messages (Section 4).

    A ``log n`` factor cheaper than the deterministic bound: a message over
    a link either attaches the link to a BFS tree or removes it forever.

    Args:
        n: number of network nodes.
        m: number of point-to-point links.

    Raises:
        ValueError: when ``n`` is not positive or ``m`` is negative.
    """
    if n < 1 or m < 0:
        raise ValueError("invalid n or m")
    return m + n * max(1, log_star(max(2, n)))


def global_det_time_bound(n: int) -> float:
    """O(√(n log n log* n)) — deterministic global function time (Section 5.1).

    The balanced form: Section 5.1 re-runs the partition to target size
    ``√(n / (log n log* n))`` so the tree and channel stages cost the same.
    Returns 1.0 below ``n = 2`` (smoke sizes) to keep ratios finite.
    """
    if n < 2:
        return 1.0
    return math.sqrt(n * math.log2(n) * max(1, log_star(n)))


def global_rand_time_bound(n: int) -> float:
    """O(√n log* n) — randomized global function expected time (Section 5.1).

    Returns 1.0 below ``n = 2`` (smoke sizes) to keep ratios finite.
    """
    if n < 2:
        return 1.0
    return math.sqrt(n) * max(1, log_star(n))


def mst_time_bound(n: int) -> float:
    """O(√n · log n) — multimedia MST running time (Section 6).

    Returns 1.0 below ``n = 2`` (smoke sizes) to keep ratios finite.
    """
    if n < 2:
        return 1.0
    return math.sqrt(n) * math.log2(n)


def mst_message_bound(n: int, m: int) -> float:
    """O(m + n log n log* n) — multimedia MST messages (Section 6).

    Identical in form to :func:`det_partition_message_bound` (the MST's
    message cost is dominated by its partition stage); kept as its own name
    so the e9 table states which claim it divides by.
    """
    return det_partition_message_bound(n, m)


class PowerLawFit(NamedTuple):
    """A least-squares power law ``value ≈ coefficient · n^exponent``.

    Attributes:
        exponent: the fitted scaling exponent (the slope in log–log space).
        coefficient: the fitted prefactor.
        residual: root-mean-square residual of ``log(value)`` around the
            fit — small residuals mean the data really does follow a power
            law over the fitted range.
    """

    exponent: float
    coefficient: float
    residual: float


def fit_power_law(
    sizes: Sequence[float], values: Sequence[float]
) -> PowerLawFit:
    """Fit ``value ≈ c · n^θ`` by least squares in log–log space.

    The fit the scaling experiments report: a measured quantity (e.g. the
    mean first-passage time of e12) follows a power law when the log–log
    points fall on a line, and the slope of that line *is* the scaling
    exponent the claim is about.  Two data sets sharing sizes but yielding
    distinct exponents (beyond the residuals) scale differently — the
    "distinct scalings, same degree sequence" effect of arXiv:0908.0976.

    Args:
        sizes: instance sizes, all positive, at least two distinct.
        values: measured quantities, parallel to ``sizes``, all positive.

    Raises:
        ValueError: on mismatched lengths, fewer than two points,
            non-positive entries, or all-equal sizes.
    """
    if len(sizes) != len(values):
        raise ValueError("sizes and values must have the same length")
    if len(sizes) < 2:
        raise ValueError("a power-law fit needs at least two points")
    if any(s <= 0 for s in sizes) or any(v <= 0 for v in values):
        raise ValueError("power-law fits need positive sizes and values")
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    count = len(xs)
    mean_x = sum(xs) / count
    mean_y = sum(ys) / count
    sxx = sum((x - mean_x) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("a power-law fit needs at least two distinct sizes")
    slope = sum(
        (x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)
    ) / sxx
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(
        sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
        / count
    )
    return PowerLawFit(
        exponent=slope, coefficient=math.exp(intercept), residual=residual
    )
