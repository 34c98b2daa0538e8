"""Deterministic adversity schedules: crashes, loss, jamming and churn.

The paper's model (Section 2) — like the rest of this library until now — is
fault-free: links never drop messages, nodes never crash, and the multiaccess
channel resolves every slot truthfully.  This module adds the missing axis.
An :class:`AdversitySpec` declares a *schedule of faults* and an
:class:`AdversityState` executes it deterministically against the simulator:

* **node crashes** — a sampled set of crash-prone nodes goes down in periodic
  windows (``crash_length`` rounds out of every ``crash_period``); a crashed
  node takes no steps and every message addressed to it is lost, and it
  resumes from its existing local state when the window closes (crash with
  recovery, not fail-stop);
* **message loss / delay** — each delivered point-to-point message is
  independently dropped with ``loss_rate`` or deferred one round with
  ``delay_rate``;
* **channel jamming** — each resolved slot is independently forced to read
  COLLISION with ``jam_rate``, regardless of how many nodes actually wrote
  (the classic jamming adversary of the ad-hoc-channel literature);
* **topology churn** — a sampled set of churn-prone links goes down in
  periodic windows; messages crossing a down link are lost (the ad-hoc model
  of PAPERS.md made executable).

Faults reach protocols **only** through their normal interfaces: an inbox
that stays empty, a slot that reads COLLISION.  No protocol is handed an
oracle, so every algorithm in the library runs unmodified under adversity.

Determinism
-----------

All fault draws come from one ``random.Random`` seeded per sweep point via
:func:`adversity_stream_seed` — a stable hash of ``(point key…, "adversity")``
— so a row is bit-identical no matter which executor (serial, sharded,
resumed, distributed) computes it.  The state's substreams (layout, per-network
loss, per-channel jam) are spawned in construction order, which the
single-threaded simulation makes deterministic.

The **zero spec is a strict no-op**: :func:`resolve_adversity` maps it to
``None`` and every injection site keeps its exact fault-free code path, so
all pre-adversity goldens stay pinned.

Abort semantics
---------------

Protocols in this library terminate in fault-free runs but may *correctly*
fail to terminate under faults (a lost tree message stalls an aggregation
forever).  Runs under adversity therefore carry a round budget
(``round_budget`` or ``budget_factor · n + 512``) plus a stall detector
(:meth:`AdversityState.stall_patience` quiet rounds with no deliveries, no
actions and an un-jammed idle slot), and raise
:class:`~repro.sim.errors.AdversityAbort` instead of spinning — experiments
convert the abort into a bounded ``"abort"`` row.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.topology.graph import WeightedGraph, edge_key

#: Cell value experiments write into columns whose run aborted under faults.
ABORTED = "abort"

#: The adversity preset names, in canonical order.
ADVERSITY_KINDS: Tuple[str, ...] = ("none", "crash", "loss", "jam", "churn")


@dataclass(frozen=True)
class AdversitySpec:
    """A declarative, named schedule of faults.

    All rates are independent per-event probabilities in ``[0, 1]``; window
    parameters are in rounds.  ``crash_nodes`` force-marks specific node ids
    as crash-prone (on top of ``crash_rate`` sampling) so tests can script a
    targeted crash instead of fishing for one.

    Attributes:
        name: preset name, or ``"custom"`` for hand-built specs.
        crash_rate: probability that a node is crash-prone.
        crash_length / crash_period: a crash-prone node is down for
            ``crash_length`` rounds out of every ``crash_period`` (phase
            drawn per node).  ``crash_length >= crash_period`` means the node
            never recovers (fail-stop).
        crash_nodes: node ids that are crash-prone regardless of sampling.
        loss_rate: per-message delivery drop probability.
        delay_rate: per-message probability of being deferred one round
            (re-drawn each round, so delays are geometric).
        jam_rate: per-slot probability the channel reads COLLISION.
        churn_rate: probability that a link is churn-prone.
        churn_length / churn_period: a churn-prone link is down for
            ``churn_length`` rounds out of every ``churn_period``.
        round_budget: absolute round/slot budget for one simulation under
            this schedule; ``None`` derives ``budget_factor * n + 512``.
        budget_factor: multiplier for the derived budget.
        stall_rounds: minimum number of consecutive quiet rounds before a
            run is declared stalled and aborted.
    """

    name: str = "custom"
    crash_rate: float = 0.0
    crash_length: int = 8
    crash_period: int = 64
    crash_nodes: Tuple[int, ...] = ()
    loss_rate: float = 0.0
    delay_rate: float = 0.0
    jam_rate: float = 0.0
    churn_rate: float = 0.0
    churn_length: int = 8
    churn_period: int = 32
    round_budget: Optional[int] = None
    budget_factor: int = 8
    stall_rounds: int = 256

    def __post_init__(self) -> None:
        """Validate the rate fields (all must be probabilities)."""
        for rate_field in ("crash_rate", "loss_rate", "delay_rate", "jam_rate", "churn_rate"):
            value = getattr(self, rate_field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"adversity {rate_field} must be a number, got {value!r}")
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"adversity {rate_field} must lie in [0, 1], got {value!r}"
                )
        for window_field in ("crash_length", "churn_length"):
            value = getattr(self, window_field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValueError(
                    f"adversity {window_field} must be a non-negative integer, got {value!r}"
                )
        for period_field in ("crash_period", "churn_period"):
            value = getattr(self, period_field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"adversity {period_field} must be a positive integer, got {value!r}"
                )
        for count_field in ("budget_factor", "stall_rounds"):
            value = getattr(self, count_field)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValueError(
                    f"adversity {count_field} must be a positive integer, got {value!r}"
                )
        if self.round_budget is not None and (
            not isinstance(self.round_budget, int)
            or isinstance(self.round_budget, bool)
            or self.round_budget < 1
        ):
            raise ValueError(
                f"adversity round_budget must be a positive integer or None, "
                f"got {self.round_budget!r}"
            )
        if not isinstance(self.crash_nodes, tuple):
            object.__setattr__(self, "crash_nodes", tuple(self.crash_nodes))

    @property
    def is_zero(self) -> bool:
        """Return ``True`` when this spec injects no faults at all."""
        return (
            self.crash_rate == 0.0
            and not self.crash_nodes
            and self.loss_rate == 0.0
            and self.delay_rate == 0.0
            and self.jam_rate == 0.0
            and self.churn_rate == 0.0
        )

    def to_dict(self) -> Dict[str, object]:
        """Return the spec as a canonical JSON-able dictionary.

        Field order is the dataclass declaration order, so two equal specs
        serialise identically (digests depend on this).
        """
        out: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if isinstance(value, tuple):
                value = list(value)
            out[spec_field.name] = value
        return out


def _preset(name: str, **overrides: object) -> AdversitySpec:
    return AdversitySpec(name=name, **overrides)  # type: ignore[arg-type]


#: The shipped adversity presets, keyed by name.
ADVERSITY_PRESETS: Dict[str, AdversitySpec] = {
    "none": _preset("none"),
    "crash": _preset("crash", crash_rate=0.2, crash_length=8, crash_period=64),
    "loss": _preset("loss", loss_rate=0.05, delay_rate=0.05),
    "jam": _preset("jam", jam_rate=0.2),
    "churn": _preset("churn", churn_rate=0.3, churn_length=8, churn_period=32),
}

AdversityLike = Union[None, str, Mapping[str, object], AdversitySpec]

_FIELD_NAMES = tuple(spec_field.name for spec_field in fields(AdversitySpec))


def adversity_spec(value: AdversityLike) -> AdversitySpec:
    """Build an :class:`AdversitySpec` from a name, mapping or spec.

    A mapping names a base preset via its ``"name"`` key (default
    ``"none"``) and overrides individual fields on top of it — exactly the
    shape the CLI's ``--adversity``/``--set adversity.*`` flags produce.

    Raises:
        ValueError: on an unknown preset name, unknown field, or
            out-of-range field value.
    """
    if isinstance(value, AdversitySpec):
        return value
    if value is None:
        return ADVERSITY_PRESETS["none"]
    if isinstance(value, str):
        try:
            return ADVERSITY_PRESETS[value]
        except KeyError:
            known = ", ".join(sorted(ADVERSITY_PRESETS))
            raise ValueError(
                f"unknown adversity preset {value!r} (known: {known})"
            ) from None
    if isinstance(value, Mapping):
        data = dict(value)
        name = data.pop("name", "none")
        base = adversity_spec(name if isinstance(name, str) else str(name))
        unknown = [key for key in data if key not in _FIELD_NAMES]
        if unknown:
            known = ", ".join(field for field in _FIELD_NAMES if field != "name")
            raise ValueError(
                f"unknown adversity field(s) {', '.join(map(repr, sorted(unknown)))} "
                f"(known: {known})"
            )
        if "crash_nodes" in data:
            data["crash_nodes"] = tuple(data["crash_nodes"])  # type: ignore[arg-type]
        return replace(base, **data)  # type: ignore[arg-type]
    raise ValueError(f"cannot interpret {value!r} as an adversity spec")


def canonical_adversity(
    value: AdversityLike,
    allowed: Optional[Tuple[str, ...]] = None,
) -> Dict[str, object]:
    """Validate ``value`` and return its canonical dictionary form.

    This is what :meth:`~repro.experiments.registry.ExperimentSpec.params_for`
    stores in the resolved parameter dictionary: fully expanded, so the sweep
    digest covers every field, not just the overridden ones.

    Args:
        value: preset name, field mapping, or spec.
        allowed: when given, the base preset name must be one of these (an
            experiment's declared ``adversities`` tuple).

    Raises:
        ValueError: if the spec is invalid or its preset is not allowed.
    """
    spec = adversity_spec(value)
    if allowed is not None and spec.name not in allowed and spec.name != "custom":
        raise ValueError(
            f"adversity preset {spec.name!r} is not supported by this experiment "
            f"(supported: {', '.join(allowed)})"
        )
    return spec.to_dict()


def resolve_adversity(value: AdversityLike) -> Optional[AdversitySpec]:
    """Resolve ``value`` to a spec, mapping the zero spec to ``None``.

    ``None`` is the contract for "no adversity": every injection site checks
    ``adversity is None`` and keeps its exact fault-free code path, which is
    what pins the pre-adversity goldens.
    """
    if value is None:
        return None
    spec = adversity_spec(value)
    return None if spec.is_zero else spec


def adversity_stream_seed(*key: object) -> int:
    """Derive the dedicated adversity substream seed for one sweep point.

    The seed is a stable 63-bit hash of ``(*key, "adversity")`` — typically
    ``(experiment id, point parameters…)`` — independent of process, executor
    and Python hash randomisation, so fault draws are bit-identical across
    serial, sharded/resumed and distributed execution.
    """
    payload = json.dumps([repr(part) for part in key] + ["adversity"])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def adversity_state(value: AdversityLike, *point_key: object) -> Optional["AdversityState"]:
    """Build the per-point :class:`AdversityState`, or ``None`` for no faults.

    Convenience wrapper experiments call once per algorithm invocation:
    resolves the spec (zero → ``None``) and seeds the state from the point
    key via :func:`adversity_stream_seed`.
    """
    spec = resolve_adversity(value)
    if spec is None:
        return None
    return AdversityState(spec, seed=adversity_stream_seed(*point_key))


class AdversityState:
    """The runtime side of a schedule: substreams, windows and fault counters.

    One state drives one algorithm invocation (possibly spanning several
    internal simulations — stages draw from the same substreams in execution
    order).  The first topology the state sees via :meth:`bind_topology`
    fixes the crash-prone nodes and churn-prone links; later binds are
    no-ops, so every stage of one algorithm faces the same adversary.
    """

    def __init__(self, spec: AdversitySpec, seed: int) -> None:
        """Derive the layout and per-stream sources from one schedule seed."""
        self.spec = spec
        self._spawn = random.Random(seed)
        self._layout_rng = self.spawn_rng()
        self._bound = False
        self._crash_offsets: Dict[int, int] = {}
        # window offset -> its crash-prone nodes, in node order
        self._crash_buckets: List[List[int]] = []
        self._churn_offsets: Dict[Tuple[int, int], int] = {}
        self.messages_dropped = 0
        self.messages_delayed = 0
        self.slots_jammed = 0
        self.crash_node_rounds = 0

    # ------------------------------------------------------------------
    # substreams
    # ------------------------------------------------------------------
    def spawn_rng(self) -> random.Random:
        """Spawn a child random source (deterministic in spawn order)."""
        return random.Random(self._spawn.randrange(2**63))

    # ------------------------------------------------------------------
    # schedule layout
    # ------------------------------------------------------------------
    def bind_topology(self, graph: WeightedGraph) -> None:
        """Sample the crash-prone nodes and churn-prone links (idempotent)."""
        if self._bound:
            return
        self._bound = True
        spec = self.spec
        rng = self._layout_rng
        forced = set(spec.crash_nodes)
        if spec.crash_rate > 0.0 or forced:
            for node in graph.nodes():
                if node in forced or (
                    spec.crash_rate > 0.0 and rng.random() < spec.crash_rate
                ):
                    self._crash_offsets[node] = rng.randrange(spec.crash_period)
        if self._crash_offsets:
            self._crash_buckets = [[] for _ in range(spec.crash_period)]
            for node, offset in self._crash_offsets.items():
                self._crash_buckets[offset].append(node)
        if spec.churn_rate > 0.0:
            for edge in graph.edges():
                if rng.random() < spec.churn_rate:
                    self._churn_offsets[edge_key(edge.u, edge.v)] = rng.randrange(
                        spec.churn_period
                    )

    # ------------------------------------------------------------------
    # fault predicates (called by the injection sites)
    # ------------------------------------------------------------------
    @property
    def has_crash_windows(self) -> bool:
        """Return ``True`` when some node of the bound topology is crash-prone."""
        return bool(self._crash_offsets)

    def crashed_nodes(self, round_index: int) -> Set[int]:
        """Return the nodes inside a crash window in ``round_index``.

        The same answer as :meth:`node_crashed` for every node.  A node is
        down when its offset is one of the window's last ``crash_length``
        round residues, so the set is the union of those offsets' buckets:
        its cost is the number of crashed nodes, not of crash-prone ones.
        """
        buckets = self._crash_buckets
        if not buckets:
            return set()
        period = self.spec.crash_period
        crashed: Set[int] = set()
        for back in range(min(self.spec.crash_length, period)):
            crashed.update(buckets[(round_index - back) % period])
        return crashed

    def crash_round(self, round_index: int, halted: bytearray) -> Set[int]:
        """Return :meth:`crashed_nodes` and charge the round to the live ones.

        Each crashed node that has not halted (``halted[node]`` is 0) spends
        ``round_index`` crashed: one add to ``crash_node_rounds``.  A
        simulator calls this once per round, before the round's dispatch.
        """
        crashed = self.crashed_nodes(round_index)
        self.crash_node_rounds += len(crashed) - sum(map(halted.__getitem__, crashed))
        return crashed

    def node_crashed(self, node: int, round_index: int) -> bool:
        """Return ``True`` when ``node`` is inside a crash window."""
        offsets = self._crash_offsets
        if not offsets:
            return False
        offset = offsets.get(node)
        if offset is None:
            return False
        spec = self.spec
        return (round_index - offset) % spec.crash_period < spec.crash_length

    def link_down(self, u: int, v: int, round_index: int) -> bool:
        """Return ``True`` when the ``{u, v}`` link is inside a churn window."""
        offsets = self._churn_offsets
        if not offsets:
            return False
        offset = offsets.get(edge_key(u, v))
        if offset is None:
            return False
        spec = self.spec
        return (round_index - offset) % spec.churn_period < spec.churn_length

    def drop_message(
        self,
        rng: random.Random,
        sender: int,
        receiver: int,
        round_index: int,
    ) -> bool:
        """Decide (and count) whether one delivered message is lost.

        Applies the churn window first (no randomness consumed), then the
        loss draw.  Used by the synchronizer, whose delivery path has no
        per-round batching, and by the dissemination layer's receptions
        (:mod:`repro.protocols.dissemination`); the synchronous network
        inlines the same checks.
        """
        if self.link_down(sender, receiver, round_index):
            self.messages_dropped += 1
            return True
        if self.spec.loss_rate > 0.0 and rng.random() < self.spec.loss_rate:
            self.messages_dropped += 1
            return True
        return False

    def jam_slot(self, rng: random.Random) -> bool:
        """Decide (and count) whether the next resolved slot is jammed."""
        if rng.random() < self.spec.jam_rate:
            self.slots_jammed += 1
            return True
        return False

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count_drop(self) -> None:
        """Charge one dropped message."""
        self.messages_dropped += 1

    def count_delay(self) -> None:
        """Charge one delayed message."""
        self.messages_delayed += 1

    @property
    def faults_injected(self) -> int:
        """Total discrete faults delivered: drops + delays + jammed slots."""
        return self.messages_dropped + self.messages_delayed + self.slots_jammed

    def counters(self) -> Dict[str, int]:
        """Return the fault counters as a plain dictionary (for reports)."""
        return {
            "messages_dropped": self.messages_dropped,
            "messages_delayed": self.messages_delayed,
            "slots_jammed": self.slots_jammed,
            "crash_node_rounds": self.crash_node_rounds,
        }

    # ------------------------------------------------------------------
    # budgets and channel wiring
    # ------------------------------------------------------------------
    def channel_adversity(self) -> Optional["AdversityState"]:
        """Return the state to attach to a channel, or ``None`` without jam.

        Only jamming touches the channel; returning ``None`` for jam-free
        specs keeps the channel on its fault-free fast path (including the
        geometric skip-ahead, which must be disabled only under jamming).
        """
        return self if self.spec.jam_rate > 0.0 else None

    def round_budget(self, n: int) -> int:
        """Return the round/slot budget for one simulation over ``n`` nodes."""
        if self.spec.round_budget is not None:
            return self.spec.round_budget
        return self.spec.budget_factor * max(1, n) + 512

    def stall_patience(self) -> int:
        """Return how many quiet rounds to tolerate before declaring a stall.

        A crash schedule parks nodes for whole windows, during which a run
        can be legitimately quiet; the patience therefore covers several full
        crash periods so recovery always gets a chance to happen first.
        """
        patience = self.spec.stall_rounds
        if self._crash_offsets or self.spec.crash_rate > 0.0 or self.spec.crash_nodes:
            patience = max(
                patience, 4 * (self.spec.crash_period + self.spec.crash_length)
            )
        return patience
