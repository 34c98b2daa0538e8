"""Tests for the channel conflict-resolution protocols."""

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    BitByBitLeaderElection,
    GreenbergLadnerEstimator,
    RandomizedLeaderElection,
    SlotByCapetanakis,
    SlotByMetcalfeBoggs,
    deterministic_schedule_bound,
    estimate_error_factor,
    expected_slots_per_success,
    heard_success_slots,
    per_node,
    per_slot_contention,
    universe_bits,
)
from repro.protocols.collision import metcalfe_boggs
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import Capetanakis
from repro.protocols.collision.greenberg_ladner import estimate_multiplicity
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggs
from repro.sim.adversity import AdversityState, adversity_spec
from repro.sim.errors import AdversityAbort, ProtocolError
from repro.sim.metrics import MetricsRecorder
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import complete_graph, ring_graph


class TestCapetanakis:
    def test_all_contenders_scheduled_exactly_once(self):
        ids = [3, 7, 11, 20, 21, 30]
        outcome = run_contention(
            Capetanakis(32), ids, [f"msg{i}" for i in ids], MetricsRecorder()
        )
        assert sorted(outcome.order) == sorted(ids)
        assert sorted(outcome.broadcasts) == sorted(f"msg{i}" for i in ids)

    def test_slots_within_deterministic_bound(self):
        ids = list(range(0, 64, 3))
        outcome = run_contention(Capetanakis(64), ids, ids, MetricsRecorder())
        assert outcome.slots_used <= deterministic_schedule_bound(len(ids), 64)

    def test_single_contender_single_slot(self):
        outcome = run_contention(Capetanakis(8), [5], ["only"], MetricsRecorder())
        assert outcome.slots_used == 1
        assert outcome.broadcasts == ["only"]

    def test_identity_outside_universe_rejected(self):
        for identity in (9, 8, -1):
            with pytest.raises(ValueError):
                run_contention(Capetanakis(8), [1, identity], [1, 2], MetricsRecorder())

    def test_universe_bits(self):
        assert universe_bits(1) == 1
        assert universe_bits(2) == 1
        assert universe_bits(8) == 3
        assert universe_bits(9) == 4

    @given(st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_property_every_id_set_resolves(self, ids):
        ids = sorted(ids)
        outcome = run_contention(Capetanakis(256), ids, ids, MetricsRecorder())
        assert sorted(outcome.order) == sorted(ids)
        assert outcome.slots_used <= deterministic_schedule_bound(len(ids), 256)


def _observe(run, ids, jam_rate, budget, seed):
    """Run one stage, ``run(payloads, metrics=..., **budget)``; return everything
    it makes observable: its outcome (or error), the metrics, each identity's
    success slot and the jammed-slot count."""
    state = None
    kwargs = {"max_slots": budget}
    if jam_rate is not None:
        state = AdversityState(
            adversity_spec({"name": "jam", "jam_rate": jam_rate, "round_budget": budget}),
            seed=seed,
        )
        kwargs = {"adversity": state}
    recorder = MetricsRecorder()
    with pytest.MonkeyPatch.context() as patch:
        heard = heard_success_slots(patch)
        try:
            outcome = run([("payload", i) for i in ids], metrics=recorder, **kwargs)
        except AdversityAbort as abort:
            outcome = ("AdversityAbort", abort.rounds, abort.pending)
        except ProtocolError as error:
            outcome = ("ProtocolError", str(error))
    return (
        outcome,
        recorder.snapshot(),
        [heard.get(i) for i in ids],
        None if state is None else state.slots_jammed,
    )


class TestTreeWalkMatchesPerSlot:
    """``run_contention``'s walk of one shared stack against the per-slot
    loop over per-contender stacks (``oracles.SlotByCapetanakis``)."""

    @pytest.mark.parametrize("universe", [1, 2, 7, 8, 64, 100, 256, 1000])
    @pytest.mark.parametrize("jam_rate", [None, 0.0, 0.3, 1.0])
    def test_same_stage_on_random_id_sets(self, universe, jam_rate):
        rng = random.Random(universe * 10 + int(10 * (jam_rate or 0)))
        seen = set()
        for trial in range(12):
            ids = rng.sample(range(universe), rng.randint(1, min(universe, 40)))
            bound = deterministic_schedule_bound(len(ids), universe)
            # every other trial gets a budget the schedule may not fit: k
            # contenders need at least 2k − 1 slots (a leaf per success and
            # a collision per split)
            if jam_rate == 1.0:
                budget = rng.randrange(1, 200)
            elif trial % 2:
                budget = rng.randrange(1, 3 * len(ids) + 1)
            else:
                budget = 6 * bound
            seed = rng.randrange(2**32)

            def walk(payloads, **kwargs):
                return run_contention(Capetanakis(universe), ids, payloads, **kwargs)

            def reference_walk(payloads, **kwargs):
                return per_slot_contention([
                    SlotByCapetanakis(i, universe, payload)
                    for i, payload in zip(ids, payloads)
                ], **kwargs)

            walked = _observe(walk, ids, jam_rate, budget, seed)
            reference = _observe(reference_walk, ids, jam_rate, budget, seed)
            assert walked == reference, (ids, universe, jam_rate, budget)
            outcome = walked[0]
            seen.add(outcome[0] if isinstance(outcome, tuple) else "resolved")
        # the trials reach the paths they are meant to compare (a universe
        # of one or two identities leaves a tight budget little to miss)
        if jam_rate == 1.0:
            assert seen == {"AdversityAbort"}
        elif universe > 2:
            exhausted = "AdversityAbort" if jam_rate else "ProtocolError"
            assert seen == {"resolved", exhausted}

    def test_input_order_does_not_matter(self):
        ids = [41, 3, 30, 7, 21, 11, 20, 50]
        runs = [
            run_contention(Capetanakis(64), order, order, MetricsRecorder())
            for order in (ids, sorted(ids), ids[::-1])
        ]
        assert runs[0] == runs[1] == runs[2]


def _mb_observe(columns, k, estimate, jam_rate, budget, seed):
    """Run one Metcalfe–Boggs stage, by the library's column loop or by the
    per-contender reference; return what ``_observe`` does, plus the master
    stream's state and every contender generator's state afterwards."""
    ids = random.Random(seed).sample(range(4 * k), k)
    master = random.Random(seed + 1)
    generators = []
    with pytest.MonkeyPatch.context() as patch:
        if columns:
            class Recorded(random.Random):
                def __init__(self, seed):
                    super().__init__(seed)
                    generators.append(self)

            patch.setattr(metcalfe_boggs, "random", SimpleNamespace(Random=Recorded))
            patch.setattr(metcalfe_boggs, "SKIP_AHEAD", False)

            def run(payloads, **kwargs):
                return run_contention(MetcalfeBoggs(estimate, master), ids, payloads,
                                      **kwargs)
        else:
            def run(payloads, **kwargs):
                contenders = [
                    SlotByMetcalfeBoggs(i, estimate, payload,
                                        seed=master.randrange(2**63))
                    for i, payload in zip(ids, payloads)
                ]
                generators.extend(contender.rng for contender in contenders)
                return per_slot_contention(contenders, **kwargs)

        observed = _observe(run, ids, jam_rate, budget, seed)
    return (*observed, master.getstate(), [rng.getstate() for rng in generators])


class TestColumnLoopMatchesPerSlot:
    """A Metcalfe–Boggs stage's per-slot loop over columns against the loop
    over per-contender state machines (``oracles.SlotByMetcalfeBoggs``)."""

    @pytest.mark.parametrize("jam_rate", [None, 0.0, 0.3, 1.0])
    def test_same_stage_on_seeded_batches(self, jam_rate):
        rng = random.Random(int(10 * (jam_rate if jam_rate is not None else -1)))
        seen = set()
        for trial in range(24):
            k = rng.randint(1, 24)
            # below k (the rate reaches 1 with contenders left), k and above
            estimate = max(1, (k // 2, k, 3 * k)[trial % 3])
            # every other trial gets a budget the schedule may not fit
            budget = rng.randrange(1, 3 * k + 2) if trial % 2 else 20 * k + 40
            seed = rng.randrange(2**32)
            columns = _mb_observe(True, k, estimate, jam_rate, budget, seed)
            reference = _mb_observe(False, k, estimate, jam_rate, budget, seed)
            assert columns == reference, (k, estimate, jam_rate, budget)
            outcome = columns[0]
            seen.add(outcome[0] if isinstance(outcome, tuple) else "resolved")
        if jam_rate == 1.0:
            assert seen == {"AdversityAbort"}
        else:
            exhausted = "AdversityAbort" if jam_rate else "ProtocolError"
            assert seen == {"resolved", exhausted}

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_skip_ahead_draws_one_seed_per_contender(self, k, monkeypatch):
        # the caller's master stream advances as the per-slot loop's does
        taken = []
        skip_ahead = metcalfe_boggs.run_geometric_contention

        def spy(identities, *args):
            taken.append(len(identities))
            return skip_ahead(identities, *args)

        monkeypatch.setattr(metcalfe_boggs, "run_geometric_contention", spy)
        master, reference = random.Random(k), random.Random(k)
        ids = list(range(k))
        run_contention(MetcalfeBoggs(k, master), ids, ids, MetricsRecorder())
        for _ in ids:
            reference.randrange(2**63)
        assert taken == [k]
        assert master.getstate() == reference.getstate()


class TestMetcalfeBoggs:
    def test_all_contenders_eventually_scheduled(self):
        ids = list(range(10))
        outcome = run_contention(
            MetcalfeBoggs(10, random.Random(1)), ids, ids, MetricsRecorder()
        )
        assert sorted(outcome.order) == list(range(10))

    def test_expected_slots_close_to_linear(self):
        rng = random.Random(2)
        k = 30
        totals = []
        ids = list(range(k))
        for trial in range(5):
            outcome = run_contention(MetcalfeBoggs(k, rng), ids, ids, MetricsRecorder())
            totals.append(outcome.slots_used)
        average = sum(totals) / len(totals)
        assert average <= expected_slots_per_success(k) * k * 1.8

    def test_estimate_must_be_positive(self):
        with pytest.raises(ValueError):
            MetcalfeBoggs(0, random.Random(0))

    def test_expected_slots_per_success_bounds(self):
        assert expected_slots_per_success(1) == 1.0
        assert 1.0 < expected_slots_per_success(100) < 2.8


class TestGreenbergLadner:
    def test_estimate_within_constant_factor_typically(self):
        errors = []
        for seed in range(20):
            estimate = estimate_multiplicity(200, rng=random.Random(seed))
            errors.append(estimate_error_factor(200, estimate.estimate))
        errors.sort()
        # the median error is within a factor of 8 (high-probability claim)
        assert errors[len(errors) // 2] <= 8

    def test_zero_participants(self):
        estimate = estimate_multiplicity(0, rng=random.Random(1))
        assert estimate.rounds == 1
        assert estimate.estimate == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            estimate_multiplicity(-1, rng=random.Random(0))

    def test_protocol_form_agrees_across_nodes(self):
        network = MultimediaNetwork(ring_graph(16))
        result = network.run(per_node(GreenbergLadnerEstimator, seed=4))
        estimates = {value.estimate for value in result.results.values()}
        assert len(estimates) == 1
        assert result.metrics.point_to_point_messages == 0


class TestLeaderElection:
    def test_bit_by_bit_protocol_elects_max_everywhere(self):
        network = MultimediaNetwork(complete_graph(10))
        result = network.run(per_node(BitByBitLeaderElection))
        assert all(value == 9 for value in result.results.values())
        assert result.metrics.point_to_point_messages == 0

    def test_randomized_election_agrees_and_is_valid(self):
        network = MultimediaNetwork(ring_graph(12))
        result = network.run(per_node(RandomizedLeaderElection, seed=9))
        winners = set(result.results.values())
        assert len(winners) == 1
        assert winners.pop() in set(range(12))
