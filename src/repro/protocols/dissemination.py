"""Affectance-selective families for layer dissemination in ad-hoc networks.

Implements the workload of arXiv:1703.01704 (Kowalski–Kudaravalli–Mosteiro)
on the :func:`~repro.topology.generators.ad_hoc_affectance_graph` topology:
one source holds a message, and in synchronous rounds sets of informed
stations transmit until every station is informed.  Reception is governed by
*affectance* — the normalized interference a transmission imposes on a link.

Physical layer (shared by every scheduler)
------------------------------------------
Each link's weight is its affectance ``α(u, v)`` (distance over the smaller
of the two stations' ranges; see the generator), and a transmission's signal
strength on the link is ``s(u, v) = 1 / α(u, v)`` — short, well-covered
links are strong, stitched fringe links are weak.  In a round where the set
``T`` transmits, an uninformed station ``v`` decodes neighbour ``u ∈ T``
iff ``u``'s signal strictly exceeds the summed signal of every other
transmitting neighbour::

    s(u, v)  >  Σ_{w ∈ T ∩ N(v), w ≠ u} s(w, v)

With a single transmitting neighbour this always holds (collision-free
delivery); with several equally strong ones it never does (a collision).
Interference is graph-local: only linked stations affect each other, the
abstraction under which the selective-family result is stated.

Schedulers (all run under the identical physical layer)
-------------------------------------------------------
* ``selective`` — the affectance-selective family: a deterministic greedy
  packing that walks candidate (frontier → uninformed) links in decreasing
  signal order and admits a transmitter whenever every already-planned
  reception in the family survives the added interference.  This is the
  protocol under test: it *uses* the affectance values to pack many
  compatible transmissions per round.
* ``decay`` — the classic randomized Decay backoff (Bar-Yehuda–Goldreich–
  Itai): every frontier station transmits with probability ``2^-(r mod K)``,
  ``K = ⌈log₂ Δ⌉ + 1``.  Affectance-blind; the randomized collision-layer
  baseline.
* ``round_robin`` — exactly one frontier station transmits per round, in
  rotation.  Trivially collision-free and affectance-blind; the
  deterministic collision-layer baseline (its round count is the price of
  never packing).

Adversity
---------
An optional :class:`~repro.sim.adversity.AdversityState` folds the standard
fault axis in: ``jam`` kills all receptions of a jammed round, ``loss`` and
``churn`` drop individual receptions, ``crash`` windows silence stations
entirely (no transmitting, no receiving).  Runs that stop progressing are
cut off by the schedule's round budget and raise
:class:`~repro.sim.errors.AdversityAbort` — bounded degradation, never a
hang.  Fault-free runs of ``selective`` and ``round_robin`` provably inform
at least one new station per round, so they terminate within ``n`` rounds;
a fault-free overrun (only ``decay`` could, with astronomically bad luck)
raises :class:`~repro.sim.errors.SimulationTimeout`.

All randomness is hash-derived (:func:`~repro.sim.substreams.substream_seed`,
scope ``"protocols.dissemination"``), so a run is a pure function of
``(graph, source, scheduler, seed, adversity)``, link weights included —
pinned by golden era v5.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.sim.adversity import AdversityState
from repro.sim.errors import AdversityAbort, SimulationTimeout
from repro.sim.substreams import substream_seed
from repro.topology.graph import WeightedGraph

#: the scheduler names :func:`disseminate` accepts
SCHEDULERS: Tuple[str, ...] = ("selective", "decay", "round_robin")

#: substream scope of the scheduler randomness
DISSEMINATION_SCOPE = "protocols.dissemination"


@dataclass(frozen=True)
class DisseminationResult:
    """Outcome of one dissemination run.

    Attributes:
        scheduler: the scheduler that produced the run.
        n: station count of the network.
        rounds: rounds until the last station decoded the message.
        informed: stations informed at the end (``n`` for a completed run).
        transmissions: total transmissions across all rounds.
        receptions: successful decodes (``n - 1`` for a completed fault-free
            run; faults can force re-deliveries, so it may exceed that under
            adversity).
    """

    scheduler: str
    n: int
    rounds: int
    informed: int
    transmissions: int
    receptions: int


def disseminate(
    graph: WeightedGraph,
    source: int = 0,
    scheduler: str = "selective",
    seed: object = 0,
    adversity: Optional[AdversityState] = None,
) -> DisseminationResult:
    """Run one layer-dissemination protocol to completion and report it.

    Args:
        graph: the ad-hoc network, each link weighted by its affectance
            (the generator's output); it should be connected (an
            unreachable station runs the round budget out).
        source: the initially informed node.
        scheduler: one of :data:`SCHEDULERS`.
        seed: master seed of the scheduler substream (only ``decay`` draws).
        adversity: optional fault schedule; its round budget bounds the
            run, which is ``16·n + 512`` rounds fault-free.

    Raises:
        ValueError: on an unknown scheduler or a source outside the node
            range.
        AdversityAbort: when a run under adversity exhausts its round
            budget (bounded degradation instead of a hang).
        SimulationTimeout: when a fault-free run exhausts its budget.
    """
    if scheduler not in SCHEDULERS:
        raise ValueError(
            f"unknown scheduler {scheduler!r} (known: {', '.join(SCHEDULERS)})"
        )
    csr = graph.csr()
    n = csr.n
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside 0..{n - 1}")
    offsets = csr.offsets
    neighbours = csr.targets
    # per-adjacency-entry signal column: signal[k] is the strength of a
    # transmission crossing the link behind csr.targets[k], the inverse of
    # that link's weight (its affectance), floored at 1e-9
    signal = [1.0 / (1e-9 if 1e-9 > alpha else alpha) for alpha in csr.weights]
    if adversity is not None:
        adversity.bind_topology(graph)
        adv_rng = adversity.spawn_rng()
        budget = adversity.round_budget(n)
    else:
        adv_rng = None
        budget = 16 * n + 512
    # frontier bookkeeping: uninformed-neighbour counts let membership decay
    # lazily instead of rescanning the whole graph every round; only the
    # source starts informed, so only its neighbours count one fewer
    uninformed_neighbours = [offsets[u + 1] - offsets[u] for u in range(n)]
    max_degree = max(uninformed_neighbours, default=0)
    for k in range(offsets[source], offsets[source + 1]):
        uninformed_neighbours[neighbours[k]] -= 1
    decay_phase = max(1, int(math.ceil(math.log2(max(2, max_degree)))) + 1)
    rng = random.Random(
        substream_seed(seed, DISSEMINATION_SCOPE, scheduler, source)
    )
    informed = bytearray(n)
    informed[source] = 1
    informed_count = 1
    frontier = {source: None} if uninformed_neighbours[source] else {}
    rounds = 0
    transmissions = 0
    receptions = 0
    rotation = 0
    while informed_count < n:
        if rounds >= budget:
            if adversity is not None:
                raise AdversityAbort(rounds, n - informed_count)
            raise SimulationTimeout(rounds, n - informed_count)
        round_index = rounds
        rounds += 1
        # stations eligible to transmit: informed, uncrashed, with at least
        # one uninformed neighbour (sorted for deterministic draw order)
        stale = [u for u in frontier if uninformed_neighbours[u] == 0]
        for u in stale:
            del frontier[u]
        candidates = sorted(frontier)
        if adversity is not None:
            candidates = [
                u for u in candidates
                if not adversity.node_crashed(u, round_index)
            ]
        if scheduler == "selective":
            transmitters = _selective_family(
                candidates, informed, offsets, neighbours, signal,
                adversity, round_index,
            )
        elif scheduler == "decay":
            p = 2.0 ** -(round_index % decay_phase)
            transmitters = [u for u in candidates if rng.random() < p]
        else:  # round_robin
            if candidates:
                transmitters = [candidates[rotation % len(candidates)]]
                rotation += 1
            else:
                transmitters = []
        transmissions += len(transmitters)
        received: List[int] = []
        if transmitters:
            jammed = (
                adversity is not None and adversity.jam_slot(adv_rng)
            )
            if not jammed:
                received = _receptions(
                    transmitters, informed, offsets, neighbours, signal,
                    adversity, adv_rng, round_index,
                )
        for v in received:
            informed[v] = 1
            informed_count += 1
            receptions += 1
            for k in range(offsets[v], offsets[v + 1]):
                u = neighbours[k]
                uninformed_neighbours[u] -= 1
            if uninformed_neighbours[v]:
                frontier[v] = None
    return DisseminationResult(
        scheduler=scheduler,
        n=n,
        rounds=rounds,
        informed=informed_count,
        transmissions=transmissions,
        receptions=receptions,
    )


def _selective_family(
    candidates: List[int],
    informed: bytearray,
    offsets,
    neighbours,
    signal: List[float],
    adversity: Optional[AdversityState],
    round_index: int,
) -> List[int]:
    """Greedily pack one affectance-selective family of transmitters.

    Walks every (candidate transmitter → uninformed receiver) link in
    decreasing signal order and admits the transmitter when every reception
    already planned for the family — including the new one — still clears
    the interference threshold.  The strongest candidate link is always
    admitted, so a fault-free round with a non-empty frontier informs at
    least one station.
    """
    links: List[Tuple[float, int, int]] = []
    for u in candidates:
        for k in range(offsets[u], offsets[u + 1]):
            v = neighbours[k]
            if informed[v]:
                continue
            if adversity is not None and adversity.node_crashed(
                v, round_index
            ):
                continue
            links.append((-signal[k], u, v))
    links.sort()
    chosen: Dict[int, None] = {}
    planned: Dict[int, float] = {}  # receiver → its planned signal
    interference: Dict[int, float] = {}  # receiver → Σ signal from chosen
    receivable = {v for _, _, v in links}
    for negative, u, v in links:
        s = -negative
        if v in planned:
            continue
        if u in chosen:
            # already transmitting; serving v costs nothing extra (the
            # interference total already includes u's own signal on v)
            if 2.0 * s > interference.get(v, 0.0):
                planned[v] = s
            continue
        # admitting u adds its signal to every receivable neighbour; check
        # the planned receptions it would touch, then the new one
        additions: List[Tuple[int, float]] = []
        feasible = True
        for k in range(offsets[u], offsets[u + 1]):
            x = neighbours[k]
            if x not in receivable:
                continue
            sx = signal[k]
            additions.append((x, sx))
            planned_signal = planned.get(x)
            if planned_signal is not None and x != v:
                if 2.0 * planned_signal <= interference.get(x, 0.0) + sx:
                    feasible = False
                    break
        if not feasible:
            continue
        new_interference = interference.get(v, 0.0) + s
        if 2.0 * s <= new_interference:
            continue
        chosen[u] = None
        for x, sx in additions:
            interference[x] = interference.get(x, 0.0) + sx
        planned[v] = s
    return list(chosen)


def _receptions(
    transmitters: List[int],
    informed: bytearray,
    offsets,
    neighbours,
    signal: List[float],
    adversity: Optional[AdversityState],
    adv_rng: Optional[random.Random],
    round_index: int,
) -> List[int]:
    """Evaluate the physical layer for one round's transmitter set.

    Returns the uninformed stations that decode the message, ascending —
    each from its strongest transmitting neighbour, iff that signal strictly
    dominates the sum of the others; loss/churn faults then drop individual
    decodes (drawn in ascending receiver order, so the fault stream is
    deterministic).
    """
    totals: Dict[int, float] = {}
    best: Dict[int, Tuple[float, int]] = {}
    for u in transmitters:
        for k in range(offsets[u], offsets[u + 1]):
            v = neighbours[k]
            if informed[v]:
                continue
            s = signal[k]
            totals[v] = totals.get(v, 0.0) + s
            incumbent = best.get(v)
            if incumbent is None or s > incumbent[0]:
                best[v] = (s, u)
    received: List[int] = []
    for v in sorted(best):
        s, u = best[v]
        if 2.0 * s <= totals[v]:
            continue  # collision: no strictly dominant signal
        if adversity is not None:
            if adversity.node_crashed(v, round_index):
                continue
            if adversity.drop_message(adv_rng, u, v, round_index):
                continue
        received.append(v)
    return received
