"""Tests for the channel conflict-resolution protocols."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    BitByBitLeaderElection,
    GreenbergLadnerEstimator,
    RandomizedLeaderElection,
    deterministic_schedule_bound,
    estimate_error_factor,
    expected_slots_per_success,
    per_node,
    universe_bits,
)
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.protocols.collision.greenberg_ladner import estimate_multiplicity
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender
from repro.sim.multimedia import MultimediaNetwork
from repro.topology.generators import complete_graph, ring_graph


class TestCapetanakis:
    def test_all_contenders_scheduled_exactly_once(self):
        ids = [3, 7, 11, 20, 21, 30]
        contenders = [CapetanakisContender(i, 32, payload=f"msg{i}") for i in ids]
        outcome = run_contention(contenders)
        assert sorted(outcome.order) == sorted(ids)
        assert sorted(outcome.broadcasts) == sorted(f"msg{i}" for i in ids)

    def test_slots_within_deterministic_bound(self):
        ids = list(range(0, 64, 3))
        contenders = [CapetanakisContender(i, 64) for i in ids]
        outcome = run_contention(contenders)
        assert outcome.slots_used <= deterministic_schedule_bound(len(ids), 64)

    def test_single_contender_single_slot(self):
        outcome = run_contention([CapetanakisContender(5, 8, payload="only")])
        assert outcome.slots_used == 1
        assert outcome.broadcasts == ["only"]

    def test_identity_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            CapetanakisContender(9, 8)

    def test_universe_bits(self):
        assert universe_bits(1) == 1
        assert universe_bits(2) == 1
        assert universe_bits(8) == 3
        assert universe_bits(9) == 4

    @given(st.sets(st.integers(min_value=0, max_value=255), min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None)
    def test_property_every_id_set_resolves(self, ids):
        contenders = [CapetanakisContender(i, 256, payload=i) for i in sorted(ids)]
        outcome = run_contention(contenders)
        assert sorted(outcome.order) == sorted(ids)
        assert outcome.slots_used <= deterministic_schedule_bound(len(ids), 256)


class TestMetcalfeBoggs:
    def test_all_contenders_eventually_scheduled(self):
        rng = random.Random(1)
        contenders = [
            MetcalfeBoggsContender(i, estimated_contenders=10, seed=rng.random(), payload=i)
            for i in range(10)
        ]
        outcome = run_contention(contenders)
        assert sorted(outcome.order) == list(range(10))

    def test_expected_slots_close_to_linear(self):
        rng = random.Random(2)
        k = 30
        totals = []
        for trial in range(5):
            contenders = [
                MetcalfeBoggsContender(i, k, seed=rng.random())
                for i in range(k)
            ]
            totals.append(run_contention(contenders).slots_used)
        average = sum(totals) / len(totals)
        assert average <= expected_slots_per_success(k) * k * 1.8

    def test_estimate_must_be_positive(self):
        with pytest.raises(ValueError):
            MetcalfeBoggsContender(1, estimated_contenders=0)

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
            estimate_multiplicity(-1)

    def test_protocol_form_agrees_across_nodes(self):
        network = MultimediaNetwork(ring_graph(16), seed=4)
        result = network.run(per_node(GreenbergLadnerEstimator))
        estimates = {value.estimate for value in result.results.values()}
        assert len(estimates) == 1
        assert result.metrics.point_to_point_messages == 0


class TestLeaderElection:
    def test_bit_by_bit_protocol_elects_max_everywhere(self):
        network = MultimediaNetwork(complete_graph(10), seed=1)
        result = network.run(per_node(BitByBitLeaderElection))
        assert all(value == 9 for value in result.results.values())
        assert result.metrics.point_to_point_messages == 0

    def test_randomized_election_agrees_and_is_valid(self):
        network = MultimediaNetwork(ring_graph(12), seed=9)
        result = network.run(per_node(RandomizedLeaderElection))
        winners = set(result.results.values())
        assert len(winners) == 1
        assert winners.pop() in set(range(12))
