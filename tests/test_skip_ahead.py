"""Statistical and accounting equivalence of the geometric skip-ahead path.

The skip-ahead scheduler (:mod:`repro.protocols.collision.geometric`) must
sample *exactly* the distribution the per-slot Bernoulli loop realises, while
charging the same slot accounting.  Three layers of guarantees:

* the samplers themselves (idle-run length, busy-slot split, collision
  multiplicity) match naive per-slot Bernoulli simulation distribution-wise
  on fixed seed batches;
* whole contention runs match the forced per-slot implementation
  (``run_contention`` with ``base.SKIP_AHEAD`` patched off) in success-slot distribution,
  slot totals, and outcome mix;
* where the trajectory is deterministic regardless of the RNG stream (single
  contender, saturated estimate), the two paths agree *exactly*, as does the
  fast-forwarded slot accounting.
"""

import math
import random
from collections import Counter

import pytest

from repro.protocols.collision import base
from repro.protocols.collision.base import run_contention
from repro.protocols.collision.capetanakis import CapetanakisContender
from repro.protocols.collision.geometric import (
    collision_multiplicity,
    geometric_idle_run,
    success_given_busy,
)
from repro.protocols.collision.metcalfe_boggs import MetcalfeBoggsContender
from repro.sim.adversity import AdversityState, adversity_spec
from repro.sim.channel import SlottedChannel
from repro.sim.errors import ProtocolError
from repro.sim.events import SlotState
from repro.sim.metrics import MetricsRecorder


def _mb_batch(k, seed, estimate=None):
    rng = random.Random(seed)
    return [
        MetcalfeBoggsContender(
            identity=i,
            estimated_contenders=estimate if estimate is not None else k,
            seed=rng.randrange(2**63),
            payload=i,
        )
        for i in range(k)
    ]


def _run(contenders, skip_ahead, **kwargs):
    """``run_contention`` with the skip-ahead switched on or off."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "SKIP_AHEAD", skip_ahead)
        return run_contention(contenders, **kwargs)


@pytest.fixture
def skip_ahead_batches(monkeypatch):
    """Record the size of every batch handed to the geometric scheduler."""
    batches = []
    real = base.run_geometric_contention

    def spy(contenders, *args):
        batches.append(len(contenders))
        return real(contenders, *args)

    monkeypatch.setattr(base, "run_geometric_contention", spy)
    return batches


class TestGeometricSampler:
    def test_idle_run_matches_bernoulli_distribution(self):
        """Inverse-transform skip counts ≈ naive coin-flip run lengths."""
        q = 0.8  # per-slot idle probability
        rng = random.Random(42)
        trials = 20_000
        sampled = Counter(geometric_idle_run(rng.random(), q) for _ in range(trials))

        naive_rng = random.Random(43)
        naive = Counter()
        for _ in range(trials):
            run = 0
            while naive_rng.random() < q:
                run += 1
            naive[run] += 1

        # compare the cell frequencies of the common support head
        for run_length in range(8):
            expected = (1 - q) * q ** run_length
            assert abs(sampled[run_length] / trials - expected) < 0.012
            assert abs(naive[run_length] / trials - expected) < 0.012
        # and the means (geometric mean q/(1-q) = 4.0)
        mean = sum(r * c for r, c in sampled.items()) / trials
        assert abs(mean - q / (1 - q)) < 0.12

    def test_idle_run_zero_probability(self):
        assert geometric_idle_run(0.999, 0.0) == 0

    def test_idle_run_u_zero(self):
        assert geometric_idle_run(0.0, 0.9) == 0

    def test_success_given_busy_matches_empirical(self):
        m, p = 12, 1.0 / 12.0
        rng = random.Random(7)
        busy = success = 0
        for _ in range(30_000):
            transmitters = sum(1 for _ in range(m) if rng.random() < p)
            if transmitters:
                busy += 1
                if transmitters == 1:
                    success += 1
        assert abs(success / busy - success_given_busy(p, m)) < 0.015

    def test_success_given_busy_edges(self):
        assert success_given_busy(1.0, 1) == 1.0
        assert success_given_busy(1.0, 5) == 0.0
        assert success_given_busy(0.5, 1) == 1.0
        with pytest.raises(ValueError):
            success_given_busy(0.5, 0)

    def test_collision_multiplicity_matches_conditional_binomial(self):
        m, p = 10, 1.0 / 10.0
        rng = random.Random(11)
        trials = 20_000
        sampled = Counter(
            collision_multiplicity(rng.random(), p, m) for _ in range(trials)
        )
        naive_rng = random.Random(12)
        naive = Counter()
        while sum(naive.values()) < trials:
            transmitters = sum(1 for _ in range(m) if naive_rng.random() < p)
            if transmitters >= 2:
                naive[transmitters] += 1
        for c in (2, 3, 4):
            assert abs(sampled[c] / trials - naive[c] / trials) < 0.02
        assert min(sampled) >= 2 and max(sampled) <= m

    def test_collision_multiplicity_edges(self):
        assert collision_multiplicity(0.5, 1.0, 4) == 4
        with pytest.raises(ValueError):
            collision_multiplicity(0.5, 0.3, 1)


class TestRunEquivalence:
    """Fast-path whole runs vs the forced per-slot loop, fixed seed batches."""

    @staticmethod
    def _stats(skip_ahead, k, batches, estimate=None):
        totals, idles, collisions, success_slots = [], [], [], []
        for batch in range(batches):
            contenders = _mb_batch(k, seed=1000 + batch, estimate=estimate)
            out = _run(contenders, skip_ahead)
            totals.append(out.slots_used)
            idles.append(out.idle)
            collisions.append(out.collisions)
            success_slots.extend(c.success_slot for c in contenders)
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        return {
            "slots": mean(totals),
            "idle": mean(idles),
            "collisions": mean(collisions),
            "success_slot": mean(success_slots),
        }

    def test_success_slot_distribution_matches_per_slot(self):
        k, batches = 32, 120
        fast = self._stats(True, k, batches)
        slow = self._stats(False, k, batches)
        # expected slots/success is e-ish; means over 120 fixed-seed batches
        # of 32 contenders agree within ~7% between the two implementations
        for key in ("slots", "idle", "collisions", "success_slot"):
            assert fast[key] == pytest.approx(slow[key], rel=0.07), (key, fast, slow)
        assert fast["slots"] < math.e * k * 1.4

    def test_overestimate_regime_matches_per_slot(self):
        # estimate 4x the field: long idle runs, the skip-ahead's home turf
        k, batches = 8, 150
        fast = self._stats(True, k, batches, estimate=4 * k)
        slow = self._stats(False, k, batches, estimate=4 * k)
        for key in ("slots", "idle", "success_slot"):
            assert fast[key] == pytest.approx(slow[key], rel=0.08), (key, fast, slow)

    def test_single_contender_exact_agreement(self):
        # estimate 1 → transmit probability 1: the trajectory is deterministic,
        # so both paths agree exactly, not just in distribution
        for skip_ahead in (True, False):
            (contender,) = _mb_batch(1, seed=5, estimate=1)
            out = _run([contender], skip_ahead)
            assert out.slots_used == 1
            assert out.order == [0]
            assert out.idle == 0 and out.collisions == 0
            assert contender.success_slot == 0

    def test_saturated_estimate_deadlock_exact_agreement(self):
        # estimate 1 with two contenders → both always transmit → collision
        # forever; both paths must burn exactly max_slots and fail alike
        for skip_ahead in (True, False):
            contenders = _mb_batch(2, seed=6, estimate=1)
            metrics = MetricsRecorder()
            with pytest.raises(ProtocolError):
                _run(
                    contenders, skip_ahead, max_slots=64, metrics=metrics,
                )
            assert metrics.rounds == 64
            assert metrics.channel_collision == 64
            assert not any(c.resolved for c in contenders)

    def test_budget_exhausted_mid_idle_run_accounting(self):
        # a huge estimate makes the first idle run overshoot a tiny budget;
        # the fast path must charge exactly the budget, all idle
        contenders = _mb_batch(2, seed=9, estimate=10_000_000)
        metrics = MetricsRecorder()
        with pytest.raises(ProtocolError):
            run_contention(contenders, max_slots=10, metrics=metrics)
        assert metrics.rounds == 10
        assert metrics.channel_slots == 10
        assert metrics.channel_idle == 10

    def test_underflowed_transmit_probability_fails_like_per_slot(self):
        # an estimate so large that (1 - p)^m rounds to exactly 1.0: every
        # slot is certainly idle and both paths must burn the budget and
        # raise (not divide by log(1.0) == 0)
        for skip_ahead in (True, False):
            contenders = _mb_batch(2, seed=13, estimate=10**17)
            metrics = MetricsRecorder()
            with pytest.raises(ProtocolError):
                _run(
                    contenders, skip_ahead, max_slots=32, metrics=metrics,
                )
            assert metrics.rounds == 32
            assert metrics.channel_idle == 32

    def test_certain_idle_probability_rejected_by_sampler(self):
        with pytest.raises(ValueError):
            geometric_idle_run(0.5, 1.0)

    def test_fresh_homogeneous_batch_takes_the_skip_ahead(self, skip_ahead_batches):
        run_contention(_mb_batch(8, seed=2))
        assert skip_ahead_batches == [8]

    def test_batch_that_heard_a_success_runs_per_slot(self, skip_ahead_batches):
        contenders = _mb_batch(4, seed=4)
        contenders[1].successes_seen = 1
        out = run_contention(contenders)
        assert skip_ahead_batches == []
        assert sorted(out.order) == [0, 1, 2, 3]

    def test_jammed_channel_runs_per_slot(self, skip_ahead_batches):
        state = AdversityState(adversity_spec("jam"), seed=8)
        out = run_contention(_mb_batch(6, seed=5), adversity=state)
        assert skip_ahead_batches == []
        assert sorted(out.order) == list(range(6))

    def test_mixed_estimates_fall_back_to_per_slot(self, skip_ahead_batches):
        # a non-homogeneous batch is not a shared-rate Bernoulli field; the
        # scheduler must take the per-slot loop
        rng = random.Random(3)
        contenders = [
            MetcalfeBoggsContender(
                identity=i,
                estimated_contenders=4 + i,
                seed=rng.randrange(2**63),
                payload=i,
            )
            for i in range(4)
        ]
        metrics = MetricsRecorder()
        out = run_contention(contenders, metrics=metrics)
        assert skip_ahead_batches == []
        assert metrics.channel_slots == out.slots_used

    def test_deterministic_protocols_keep_per_slot_traces(self, skip_ahead_batches):
        # Capetanakis is deterministic and walked, not sampled: identical
        # schedule with and without the skip-ahead, and never handed to it
        ids = [3, 7, 11, 20, 21, 30]
        runs = []
        for skip_ahead in (True, False):
            contenders = [CapetanakisContender(i, 32, payload=i) for i in ids]
            out = _run(contenders, skip_ahead)
            runs.append((out.order, out.slots_used, out.collisions, out.idle))
        assert runs[0] == runs[1]
        assert skip_ahead_batches == []


class TestFastForwardAccounting:
    def test_channel_and_metrics_agree_with_outcome(self, skip_ahead_batches):
        metrics = MetricsRecorder()
        contenders = _mb_batch(24, seed=17)
        out = run_contention(contenders, metrics=metrics)
        assert skip_ahead_batches == [24]
        assert metrics.channel_slots == out.slots_used
        assert metrics.channel_idle == out.idle
        assert metrics.channel_collision == out.collisions
        assert metrics.channel_success == len(out.order)
        assert metrics.rounds == out.slots_used
        # every winner recorded a distinct slot, in broadcast order
        slots = [contender.success_slot for contender in contenders]
        by_slot = sorted(zip(slots, (c.identity for c in contenders)))
        assert [identity for _, identity in by_slot] == out.order
        assert len(set(slots)) == len(slots) and max(slots) < out.slots_used

    def test_shared_rng_streams_agree_exactly_on_accounting(self, monkeypatch):
        # replay every slot the fast path charged on its channel through a
        # fresh per-slot accountant: the batched idle runs and the collision
        # multiplicities must add up to the same snapshot
        charged = []
        resolve = SlottedChannel.resolve_slot
        skip = SlottedChannel.skip_idle_slots

        def resolve_spy(channel, slot, writes):
            event = resolve(channel, slot, writes)
            charged.append((event.state, len(writes)))
            return event

        def skip_spy(channel, count):
            charged.extend([(SlotState.IDLE, 0)] * count)
            skip(channel, count)

        monkeypatch.setattr(SlottedChannel, "resolve_slot", resolve_spy)
        monkeypatch.setattr(SlottedChannel, "skip_idle_slots", skip_spy)
        metrics = MetricsRecorder()
        out = run_contention(_mb_batch(16, seed=23), metrics=metrics)

        replay = MetricsRecorder()
        for state, attempts in charged:
            replay.record_slot(state, attempts)
        replay.record_round(out.slots_used)
        assert out.collisions and out.idle
        assert replay.snapshot() == metrics.snapshot()

    def test_utilisation_counts_skipped_slots(self):
        metrics = MetricsRecorder()
        channel = SlottedChannel(metrics=metrics)
        channel.resolve_slot(0, [("a", "x")])
        channel.skip_idle_slots(3)
        assert metrics.channel_slots == 4
        assert metrics.channel_success / metrics.channel_slots == 0.25

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SlottedChannel().skip_idle_slots(-1)
        with pytest.raises(ValueError):
            MetricsRecorder().record_idle_slots(-1)

    def test_write_attempt_accounting_plausible(self):
        # successes contribute exactly one attempt, collisions at least two
        metrics = MetricsRecorder()
        out = run_contention(_mb_batch(20, seed=31), metrics=metrics)
        assert metrics.channel_write_attempts >= len(out.order) + 2 * out.collisions
