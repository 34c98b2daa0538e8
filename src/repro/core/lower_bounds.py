"""Lower bounds on computing global sensitive functions (Section 5.2).

Theorem 2:

* Ω(d) time on a point-to-point network of diameter ``d`` — information from
  the farthest node must reach every node;
* Ω(n) time on a broadcast channel — formally, at least ⌊n/2⌋ slots
  (Claim 3's induction removes two operands per slot);
* Ω(min{d, √n}) time on a multimedia network — proven on the *ray graph*:
  a centre with ``2(n−1)/d`` rays of length ``d/2``; Claim 4's adversary
  keeps the function ``k_t``-sensitive on a set of inputs indistinguishable
  to the centre after ``t`` steps, with
  ``k_t = n − 1 − 2(n−1)t/d − Σ_{j≤t}(4j − 2)``, which stays positive for
  ``t ≤ min{d, √n}/4``.

These are *proofs*, not measurements; what the reproduction provides is
(1) the exact bound formulas, used as reference curves by the experiments,
and (2) the adversary bookkeeping of Claim 4, so the tests can verify the
induction's arithmetic (``k_t > 0`` up to the claimed horizon) on concrete
ray-graph parameters, and the experiments can plot measured algorithm times
against the matching lower-bound curves (experiment E8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List


def point_to_point_lower_bound(d: int) -> int:
    """Return the Ω(d) bound: at least ``d`` rounds on a diameter-``d`` network."""
    if d < 0:
        raise ValueError("the diameter cannot be negative")
    return d


def broadcast_lower_bound(n: int) -> int:
    """Return the Ω(n) bound of Claim 3: at least ⌊n/2⌋ slots on a channel."""
    if n < 0:
        raise ValueError("n cannot be negative")
    return n // 2


def multimedia_lower_bound(n: int, d: int) -> int:
    """Return the Ω(min{d, √n}) bound: at least ⌊min{d, √n}/4⌋ rounds."""
    if n < 0 or d < 0:
        raise ValueError("n and d cannot be negative")
    return int(min(d, math.sqrt(n)) // 4)


@dataclass
class AdversaryTrace:
    """The sensitivity bookkeeping of Claim 4 on a concrete ray graph.

    Attributes:
        n: number of nodes in the ray graph.
        d: its diameter.
        steps: for each step ``t`` (starting at 1), the guaranteed remaining
            sensitivity ``k_t`` of the function on an input set
            indistinguishable to the centre.
        horizon: the largest ``t`` with ``k_t > 0`` — the algorithm cannot
            have terminated before this step.
    """

    n: int
    d: int
    steps: List[int]
    horizon: int


def claim4_sensitivity_trace(n: int, d: int, max_steps: int | None = None) -> AdversaryTrace:
    """Reproduce the arithmetic of Claim 4's induction.

    Starting from ``k_0 = n − 1`` (the centre's input is fixed), each step
    can fix at most ``2(n−1)/d`` ray inputs at distance ``t`` from the
    centre plus, in the worst case of Claim 4's Case B, ``4t − 2`` inputs in
    the (t−1)-neighbourhoods of the two colliding processors.  The trace
    stops when the remaining sensitivity reaches zero.
    """
    if n < 3 or d < 2:
        raise ValueError("the ray-graph construction needs n ≥ 3 and d ≥ 2")
    per_step_ray_inputs = 2 * (n - 1) / d
    remaining = float(n - 1)
    steps: List[int] = []
    limit = max_steps if max_steps is not None else n
    t = 0
    while remaining > 0 and t < limit:
        t += 1
        remaining -= per_step_ray_inputs
        remaining -= max(0, 4 * t - 2)
        steps.append(max(0, math.floor(remaining)))
    horizon = 0
    for index, value in enumerate(steps, start=1):
        if value > 0:
            horizon = index
    return AdversaryTrace(n=n, d=d, steps=steps, horizon=horizon)
