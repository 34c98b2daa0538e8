"""Columnar random-walk engine: batched first-passage walks over the CSR core.

The mean-first-passage-time experiment (e12, after arXiv:0908.0976) measures
how long an unbiased random walk takes to first hit a distinguished *hub*
node, as a function of instance size, on scale-free families sharing one
degree sequence.  This module supplies the two pieces that workload needs:

* :func:`hub_node` — the canonical trap: the maximum-degree slot (ties break
  to the smallest slot, so the choice is deterministic);
* :func:`mean_first_passage_time` — the Monte-Carlo engine: walkers
  stepped one at a time to absorption over the
  :class:`~repro.topology.graph.CSRView` columns (``targets[offsets[u] + r]``
  per step, ``r`` the draw ``rng.randrange(degree)`` makes — no adjacency
  dicts, no per-step allocation), each walker driven by its own hash-derived
  substream (:func:`~repro.sim.substreams.substream_seed`, scope
  ``"sim.walks"``) so the result is independent of walker order, process
  and executor.

The statistical tests calibrate the engine on small graphs against the
exact absorbing-chain solve kept with the test oracles
(``tests/oracles.py:exact_mfpt``).

Walks are unbiased (uniform over neighbours) and ignore edge weights; the
graphs the experiment walks carry unit weights anyway.

The per-walker streams were introduced after golden eras v1–v4 were frozen
and touch none of the streams those eras pin; their own fixed-seed
fingerprints live in era v5 (``tests/test_perf_equivalence.py``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.sim.substreams import substream_seed
from repro.topology.graph import WeightedGraph

#: substream scope of the per-walker generators (one layer, one scope —
#: see :mod:`repro.sim.substreams`)
WALK_SCOPE = "sim.walks"


def hub_node(graph: WeightedGraph) -> int:
    """Return the slot index of the maximum-degree node.

    Ties break to the smallest slot, so the hub of a given graph is a pure
    function of its structure — every consumer (the walk engine's default
    target, e12's rows, the exact solve the tests compare with) agrees on
    it.

    Raises:
        ValueError: on an empty graph.
    """
    csr = graph.csr()
    if csr.n == 0:
        raise ValueError("an empty graph has no hub")
    offsets = csr.offsets
    best = 0
    best_degree = -1
    for i in range(csr.n):
        degree = offsets[i + 1] - offsets[i]
        if degree > best_degree:
            best = i
            best_degree = degree
    return best


@dataclass(frozen=True)
class WalkSummary:
    """Aggregate outcome of one batch of first-passage walks.

    Attributes:
        walkers: number of walkers in the batch.
        target: the absorbing slot every walker runs to.
        steps: per-walker first-passage step counts, in walker order (a
            capped walker contributes ``max_steps``).
        mean_steps: arithmetic mean of ``steps`` — the MFPT estimate.
        max_steps: the step cap each walker ran under.
        capped: walkers that hit the cap without reaching the target (their
            contribution biases ``mean_steps`` low; a non-zero count flags
            the estimate).
    """

    walkers: int
    target: int
    steps: Tuple[int, ...]
    mean_steps: float
    max_steps: int
    capped: int


def mean_first_passage_time(
    graph: WeightedGraph,
    target: Optional[int] = None,
    walkers: int = 32,
    seed: object = 0,
    max_steps: Optional[int] = None,
) -> WalkSummary:
    """Estimate the MFPT to ``target`` over uniformly random start nodes.

    Walker ``i`` derives its private generator from
    ``substream_seed(seed, "sim.walks", i)``, draws a uniform start slot
    distinct from the target, and performs an unbiased walk over the CSR
    columns until it hits the target (or the step cap).  Walkers run one
    at a time, each to absorption; since every walker owns its stream the
    step counts are identical to stepping them together in any order — and
    to running them in any other process.

    Args:
        graph: the (connected) graph to walk.
        target: absorbing slot; ``None`` means :func:`hub_node`.
        walkers: batch size (more walkers, tighter estimate).
        seed: master seed of the walker substream family — any repr-stable
            value (experiments pass a tuple keying the sweep point).
        max_steps: per-walker step cap; ``None`` means ``500 · n``, far
            above the MFPT of every family e12 sweeps, so fault-free runs
            cap only on pathological inputs.

    Raises:
        ValueError: on a graph with fewer than two nodes, a walker count
            below one, a target outside the slot range, or an isolated node
            (a walker standing on it could never move).
    """
    csr = graph.csr()
    n = csr.n
    if n < 2:
        raise ValueError("first-passage walks need at least two nodes")
    if walkers < 1:
        raise ValueError("need at least one walker")
    if target is None:
        target = hub_node(graph)
    elif not 0 <= target < n:
        raise ValueError(f"target slot {target} outside 0..{n - 1}")
    if max_steps is None:
        max_steps = 500 * n
    offsets = csr.offsets
    neighbours = csr.targets
    steps: List[int] = []
    capped = 0
    for i in range(walkers):
        rng = random.Random(substream_seed(seed, WALK_SCOPE, i))
        u = rng.randrange(n)
        while u == target:
            u = rng.randrange(n)
        # every later position is some slot's neighbour, so only the start
        # can be isolated
        if offsets[u + 1] == offsets[u]:
            raise ValueError(f"walker stranded on isolated slot {u}")
        getrandbits = rng.getrandbits
        step = 0
        while step < max_steps:
            step += 1
            lo = offsets[u]
            degree = offsets[u + 1] - lo
            # rng.randrange(degree) inlined, draw for draw: CPython 3.10–3.12
            # draw getrandbits(degree.bit_length()) until it falls below
            # degree (tests/test_walks.py holds the two equal)
            bits = degree.bit_length()
            r = getrandbits(bits)
            while r >= degree:
                r = getrandbits(bits)
            u = neighbours[lo + r]
            if u == target:
                break
        else:
            capped += 1
        steps.append(step)
    return WalkSummary(
        walkers=walkers,
        target=target,
        steps=tuple(steps),
        mean_steps=sum(steps) / walkers,
        max_steps=max_steps,
        capped=capped,
    )
