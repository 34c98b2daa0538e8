"""Tests for the deterministic adversity layer (``repro.sim.adversity``).

The contract under test (see ``docs/architecture.md``, "Adversity model"):
schedules are validated declaratively and derived deterministically from the
``(spec, point key)`` pair, a zero schedule is a strict no-op (bit-identical
rows to a run without the layer), faults reach protocols only through the
normal message/slot interfaces (crash recovery works for protocols that
retransmit), jammed slots are accounted exactly, runs the adversary wedges
abort with a bounded :class:`AdversityAbort` instead of hanging, and the CLI
rejects bad adversity input through its usage-error path.
"""

from __future__ import annotations

import functools
import random

import pytest

from oracles import neighbors
from repro.cli import main as cli_main
from repro.core.partition.forest import SpanningForest
from repro.experiments.harness import make_topology
from repro.experiments.registry import get_experiment
from repro.experiments.runner import run_experiment
from repro.sim.adversity import (
    ADVERSITY_KINDS,
    ADVERSITY_PRESETS,
    AdversitySpec,
    AdversityState,
    adversity_spec,
    adversity_state,
    adversity_stream_seed,
    canonical_adversity,
    resolve_adversity,
)
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.sim.channel import SlottedChannel
from repro.sim.errors import AdversityAbort, ProtocolError, SimulationTimeout
from repro.sim.metrics import MetricsRecorder
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.flyweight import FlyweightProtocol
from repro.sim.synchronizer import ChannelSynchronizer
from repro.protocols.spanning.broadcast_convergecast import TreeAggregationFlyweight
from repro.protocols.spanning.bfs import build_bfs_forest


# ----------------------------------------------------------------------
# spec construction and validation
# ----------------------------------------------------------------------
class TestSpecValidation:
    def test_presets_cover_the_declared_kinds(self):
        assert set(ADVERSITY_KINDS) <= set(ADVERSITY_PRESETS)
        for name, spec in ADVERSITY_PRESETS.items():
            assert spec.name == name

    def test_zero_spec_resolves_to_none(self):
        assert resolve_adversity(None) is None
        assert resolve_adversity("none") is None
        assert resolve_adversity({"name": "none"}) is None
        assert adversity_state(None, "k") is None
        assert ADVERSITY_PRESETS["none"].is_zero

    def test_nonzero_presets_are_not_zero(self):
        for name in ("crash", "loss", "jam", "churn"):
            assert not ADVERSITY_PRESETS[name].is_zero

    @pytest.mark.parametrize(
        "field", ["crash_rate", "loss_rate", "delay_rate", "jam_rate", "churn_rate"]
    )
    def test_out_of_range_rate_rejected(self, field):
        with pytest.raises(ValueError, match="must lie in"):
            AdversitySpec(**{field: 1.5})
        with pytest.raises(ValueError, match="must lie in"):
            AdversitySpec(**{field: -0.1})

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(ValueError, match="unknown adversity preset"):
            adversity_spec("meteor")

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            adversity_spec({"name": "loss", "severity": 3})

    def test_mapping_overrides_preset_base(self):
        spec = adversity_spec({"name": "loss", "loss_rate": 0.5})
        assert spec.name == "loss"
        assert spec.loss_rate == 0.5
        assert spec.delay_rate == ADVERSITY_PRESETS["loss"].delay_rate

    def test_canonical_form_is_complete_and_round_trips(self):
        canonical = canonical_adversity("jam")
        assert canonical["name"] == "jam"
        assert set(canonical) == set(AdversitySpec().to_dict())
        assert adversity_spec(canonical) == ADVERSITY_PRESETS["jam"]

    def test_canonical_respects_allowed_list(self):
        with pytest.raises(ValueError):
            canonical_adversity("jam", allowed=("none", "loss"))

    def test_registry_rejects_adversity_on_undeclared_experiment(self):
        spec = get_experiment("e1")
        with pytest.raises(ValueError, match="does not accept"):
            spec.params_for("quick", {"adversity": "loss"})


# ----------------------------------------------------------------------
# schedule determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_stream_seed_is_a_pure_function_of_the_point_key(self):
        assert adversity_stream_seed("e7", 64, "ring") == adversity_stream_seed(
            "e7", 64, "ring"
        )
        assert adversity_stream_seed("e7", 64, "ring") != adversity_stream_seed(
            "e7", 64, "grid"
        )

    def test_same_point_key_same_schedule(self):
        graph = make_topology("grid", 36, seed=11)

        def draws():
            state = adversity_state("loss", "det", 36)
            state.bind_topology(graph)
            rng = state.spawn_rng()
            return [
                state.drop_message(rng, 0, 1, r) for r in range(200)
            ], state.counters()

        assert draws() == draws()

    def test_different_substream_tags_differ(self):
        graph = make_topology("grid", 36, seed=11)
        outcomes = []
        for tag in ("multimedia", "p2p"):
            state = adversity_state("loss", "det", 36, tag)
            state.bind_topology(graph)
            rng = state.spawn_rng()
            outcomes.append([state.drop_message(rng, 0, 1, r) for r in range(200)])
        assert outcomes[0] != outcomes[1]

    def test_crash_windows_are_periodic(self):
        spec = adversity_spec(
            {"name": "crash", "crash_nodes": (3,), "crash_length": 2,
             "crash_period": 10, "crash_rate": 0.0}
        )
        state = AdversityState(spec, seed=1)
        state.bind_topology(make_topology("ring", 8, seed=11))
        pattern = [state.node_crashed(3, r) for r in range(30)]
        assert pattern[:10] == pattern[10:20] == pattern[20:30]
        assert sum(pattern[:10]) == 2

    def test_zero_adversity_rows_bit_identical(self):
        clean = run_experiment("e5", preset="quick")
        with_none = run_experiment(
            "e5", preset="quick", overrides={"adversity": "none"}
        )
        assert with_none.rows == clean.rows


# ----------------------------------------------------------------------
# crash-during-broadcast recovery
# ----------------------------------------------------------------------
class _RetransmittingFlood(FlyweightProtocol):
    """Root floods a token; holders re-send every round (crash-tolerant).

    The flood never ends by itself, so the protocol stops the run: once
    every slot holds the token, every slot halts with ``True``.  A node
    crashed from round 0 has not started yet and holds no token.
    """

    def __init__(self, env, root):
        super().__init__(env)
        self.root = root
        self.has_token = bytearray(env.num_slots)
        self.holders = 0

    def _take_token(self, slot):
        if not self.has_token[slot]:
            self.has_token[slot] = 1
            self.holders += 1
            if self.holders == self.env.num_slots:
                for each in range(self.env.num_slots):
                    self.halt_slot(each, True)
                return
        for neighbor in neighbors(self.env.csr, slot):
            self.send(slot, neighbor, "tok")

    def on_start(self, slots):
        for slot in slots:
            if not self.halted[slot] and slot == self.root:
                self._take_token(slot)

    def on_round(self, slots, inboxes, channel):
        for slot in slots:
            if not self.halted[slot] and (slot in inboxes or self.has_token[slot]):
                self._take_token(slot)


class TestCrashRecovery:
    def test_flood_survives_a_mid_broadcast_crash(self):
        graph = make_topology("ring", 12, seed=11)
        nodes = sorted(graph.nodes())
        root, victim = nodes[0], nodes[len(nodes) // 2]
        # period 8 guarantees the sampled window intersects the flood (which
        # needs >= 6 rounds to reach the antipodal victim on a 12-ring)
        state = adversity_state(
            {"name": "crash", "crash_rate": 0.0, "crash_nodes": (victim,),
             "crash_length": 3, "crash_period": 8},
            "crash-test", 12,
        )
        result = MultimediaNetwork(graph, seed=3).run(
            functools.partial(_RetransmittingFlood, root=root),
            adversity=state,
        )
        assert all(result.results.values())
        # the victim actually lost rounds to its crash window
        assert state.crash_node_rounds > 0

    @pytest.mark.parametrize("preset", ["crash", "loss"])
    def test_crashed_nodes_match_the_per_node_predicate(self, preset):
        graph = make_topology("grid", 64, seed=11)
        state = adversity_state(preset, "crashed-set", 64)
        state.bind_topology(graph)
        assert state.has_crash_windows is (preset == "crash")
        for round_index in range(200):
            assert state.crashed_nodes(round_index) == {
                node for node in graph.nodes() if state.node_crashed(node, round_index)
            }

    def test_crashed_from_round_zero_gets_deferred_start(self):
        graph = make_topology("ring", 8, seed=11)
        nodes = sorted(graph.nodes())
        root, victim = nodes[0], nodes[3]
        # the victim is down for rounds 0..3 (offset forced by crash_nodes)
        state = adversity_state(
            {"name": "crash", "crash_rate": 0.0, "crash_nodes": (victim,),
             "crash_length": 4, "crash_period": 64},
            "late-start", 8,
        )
        result = MultimediaNetwork(graph, seed=3).run(
            functools.partial(_RetransmittingFlood, root=root),
            adversity=state,
        )
        assert result.results[victim] is True


# ----------------------------------------------------------------------
# jam accounting
# ----------------------------------------------------------------------
class TestJamAccounting:
    def test_certain_jam_forces_every_slot_to_collide(self):
        state = AdversityState(adversity_spec({"name": "jam", "jam_rate": 1.0}),
                               seed=9)
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder, adversity=state)
        for slot in range(20):
            event = channel.resolve_slot(slot, [(0, "x")] if slot % 2 else [])
            assert event.is_collision()
        assert recorder.channel_jammed == 20
        assert recorder.channel_collision == 20
        assert state.slots_jammed == 20

    def test_jammed_slots_counted_exactly(self):
        state = AdversityState(adversity_spec("jam"), seed=17)
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder, adversity=state)
        rng = random.Random(4)
        for slot in range(300):
            writers = [(i, i) for i in range(rng.randrange(3))]
            channel.resolve_slot(slot, writers)
        assert recorder.channel_jammed == state.slots_jammed
        assert 0 < recorder.channel_jammed < 300
        # a jam can only ever add collisions, never hide a write
        assert recorder.channel_jammed <= recorder.channel_collision

    def test_no_adversity_leaves_jam_counter_zero(self):
        recorder = MetricsRecorder()
        channel = SlottedChannel(metrics=recorder)
        channel.resolve_slot(0, [(0, "a"), (1, "b")])
        assert recorder.channel_collision == 1
        assert recorder.channel_jammed == 0


# ----------------------------------------------------------------------
# one channel stage per call: run_contention owns the channel and budget
# ----------------------------------------------------------------------
def _capetanakis(ids, universe=64):
    return [CapetanakisContender(i, universe, payload=i) for i in ids]


class TestChannelStage:
    def test_jammed_budget_exhaustion_aborts(self):
        state = AdversityState(
            adversity_spec({"name": "jam", "jam_rate": 1.0, "round_budget": 40}), seed=3
        )
        recorder = MetricsRecorder()
        with pytest.raises(AdversityAbort) as caught:
            run_contention(_capetanakis([1, 5, 9]), metrics=recorder, adversity=state)
        assert caught.value.rounds == 40 and caught.value.pending == 3
        assert recorder.rounds == recorder.channel_jammed == state.slots_jammed == 40

    def test_unjammed_budget_exhaustion_is_a_protocol_error(self):
        # a schedule without jamming that runs out of its budget is a
        # protocol failure, not the adversary's doing
        state = AdversityState(adversity_spec({"name": "loss", "round_budget": 3}), seed=3)
        recorder = MetricsRecorder()
        with pytest.raises(ProtocolError):
            run_contention(
                _capetanakis([1, 2, 3, 4, 5, 6]), metrics=recorder, adversity=state
            )
        assert recorder.rounds == 3 and recorder.channel_jammed == 0

    def test_budget_is_sized_for_the_network(self):
        # the budget is the schedule's round budget, budget_factor · n + 512,
        # for network_size nodes (the contenders when it is not given)
        spec = adversity_spec({"name": "jam", "jam_rate": 1.0, "budget_factor": 1})
        for network_size, budget in ((64, 576), (None, 515)):
            with pytest.raises(AdversityAbort) as caught:
                run_contention(
                    _capetanakis([1, 5, 9]),
                    adversity=AdversityState(spec, seed=5),
                    network_size=network_size,
                )
            assert caught.value.rounds == budget

    def test_jammed_slots_counted_like_a_hand_built_channel(self):
        # the reference: today's per-slot loop over a channel built by hand
        # from the same state, in the same substream order
        spec = adversity_spec("jam")
        ids = [3, 7, 11, 20, 21, 30, 41, 50]
        recorder = MetricsRecorder()
        state = AdversityState(spec, seed=12)
        outcome = run_contention(_capetanakis(ids), metrics=recorder, adversity=state)

        reference = MetricsRecorder()
        hand_state = AdversityState(spec, seed=12)
        channel = SlottedChannel(metrics=reference, adversity=hand_state.channel_adversity())
        pending = _capetanakis(ids)
        order = []
        slot = 0
        while pending:
            flags = [contender.wants_to_transmit(slot) for contender in pending]
            event = channel.resolve_slot(slot, [
                (contender.identity, contender.payload)
                for contender, transmitted in zip(pending, flags) if transmitted
            ])
            if event.is_success():
                order.append(event.writer)
            for contender, transmitted in zip(pending, flags):
                contender.observe(event, transmitted)
            pending = [contender for contender in pending if not contender.resolved]
            slot += 1
        reference.record_round(slot)

        assert state.slots_jammed == hand_state.slots_jammed > 0
        assert outcome.order == order and outcome.slots_used == slot
        assert recorder.snapshot() == reference.snapshot()


# ----------------------------------------------------------------------
# bounded aborts: the adversary can wedge a run, never hang it
# ----------------------------------------------------------------------
def _aggregation(graph, root):
    parent, _ = build_bfs_forest(graph, root)
    return TreeAggregationFlyweight.over(
        SpanningForest(parent),
        dict.fromkeys(graph.nodes(), 1),
        lambda a, b: a + b,
    )


class TestBoundedAbort:
    def test_heavy_loss_aborts_within_budget(self):
        graph = make_topology("grid", 36, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.6, "delay_rate": 0.0},
            "abort-test", 36,
        )
        with pytest.raises(AdversityAbort) as excinfo:
            MultimediaNetwork(graph, seed=3).run(
                _aggregation(graph, root),
                adversity=state,
            )
        abort = excinfo.value
        assert abort.rounds <= state.round_budget(36)
        assert abort.pending > 0
        assert isinstance(abort, SimulationTimeout)  # safety nets still catch it

    def test_round_budget_override_is_honoured(self):
        graph = make_topology("grid", 36, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.6, "delay_rate": 0.0,
             "round_budget": 40, "stall_rounds": 10_000},
            "budget-test", 36,
        )
        with pytest.raises(AdversityAbort) as excinfo:
            MultimediaNetwork(graph, seed=3).run(
                _aggregation(graph, root),
                adversity=state,
            )
        assert excinfo.value.rounds == 40

    def test_synchronizer_lost_message_deadlock_aborts(self):
        graph = make_topology("grid", 25, seed=11)
        root = min(graph.nodes())
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.7, "delay_rate": 0.0},
            "sync-abort", 25,
        )
        with pytest.raises(AdversityAbort):
            ChannelSynchronizer(graph, max_link_delay=3, seed=3).run(
                _aggregation(graph, root),
                adversity=state,
            )

    def test_experiment_rows_report_abort_instead_of_raising(self):
        result = run_experiment(
            "e7", preset="quick",
            overrides={"adversity": {"name": "loss", "loss_rate": 0.6}},
        )
        cells = {row["t_multimedia"] for row in result.rows}
        assert "abort" in cells  # bounded, structured — not a traceback


# ----------------------------------------------------------------------
# CLI validation paths
# ----------------------------------------------------------------------
class TestCliValidation:
    def test_unknown_adversity_name_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--adversity", "meteor"])
        assert code == 2
        assert "unknown adversity preset" in capsys.readouterr().err

    def test_out_of_range_rate_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--adversity", "loss",
                         "--set", "adversity.loss_rate=1.5"])
        assert code == 2
        assert "must lie in" in capsys.readouterr().err

    def test_unknown_adversity_field_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--set", "adversity.meteor_rate=0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_dotted_field_is_a_usage_error(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick",
                         "--set", "adversity.=0.5"])
        assert code == 2
        assert "adversity.FIELD" in capsys.readouterr().err

    def test_experiment_without_axis_rejects_flag(self, capsys):
        code = cli_main(["run", "e1", "--preset", "quick",
                         "--adversity", "loss"])
        assert code == 2
        assert "does not accept" in capsys.readouterr().err

    def test_named_preset_with_dotted_refinement_runs(self, capsys):
        code = cli_main(["run", "e7", "--preset", "quick", "--quiet",
                         "--adversity", "loss",
                         "--set", "adversity.loss_rate=0.01",
                         "--set", "adversity.delay_rate=0.0"])
        assert code == 0
