"""Substream derivation tests (``repro.sim.substreams``).

The stream contract: a substream seed is a pure function of
``(master_seed, scope, key)`` — pairwise-distinct across keys, scopes and
masters, independent of the order keys are requested in, and therefore
stable across serial/process/sharded executors (the backend bit-identity
matrix in ``test_executors.py`` exercises the executor half end to end).
The per-node family the v4 goldens pin is derived by the oracle adapter
(``tests/oracles.py:per_node``): node ``i``'s generator is
``random.Random(substream_seed(seed, "sim.multimedia", i))``.
"""

from __future__ import annotations

import random

from oracles import NodeProtocol, per_node
from repro.sim.multimedia import MultimediaNetwork
from repro.sim.substreams import substream_seed
from repro.topology.generators import ring_graph


class TestSubstreamSeed:
    def test_deterministic(self):
        assert substream_seed(5, "sim.multimedia", 7) == substream_seed(
            5, "sim.multimedia", 7
        )

    def test_fits_random_seed_range(self):
        for key in (0, 1, "a", (1, 2), -3):
            seed = substream_seed(123, "scope", key)
            assert 0 <= seed < 2**63

    def test_pairwise_distinct_across_nodes(self):
        seeds = [substream_seed(11, "sim.multimedia", node) for node in range(2048)]
        assert len(set(seeds)) == len(seeds)

    def test_distinct_across_scopes(self):
        assert substream_seed(11, "sim.multimedia", 0) != substream_seed(
            11, "sim.synchronizer", 0
        )

    def test_distinct_across_masters(self):
        assert substream_seed(11, "sim.multimedia", 0) != substream_seed(
            12, "sim.multimedia", 0
        )

    def test_string_and_int_keys_do_not_collide(self):
        # repr-based hashing keeps 1 and "1" apart
        assert substream_seed(1, "s", 1) != substream_seed(1, "s", "1")



class _Draw(NodeProtocol):
    """Halts at the start with one draw from its node's generator."""

    def on_start(self):
        self.halt(self.ctx.rng.random())

    def on_round(self, inbox, channel):  # pragma: no cover
        raise AssertionError("halts at the start")


def _adapter(seed):
    """A per-node adapter over a ring of 8, its generators not yet drawn."""
    return per_node(_Draw, seed=seed)(ring_graph(8).csr())


def _first_draw(seed, scope, node):
    return random.Random(substream_seed(seed, scope, node)).random()


class TestNodeStreams:
    """The adapter's per-node family, as the v4 oracle protocols draw it."""

    def test_seed_matches_free_function(self):
        result = MultimediaNetwork(ring_graph(8)).run(per_node(_Draw, seed=7))
        assert result.results[3] == _first_draw(7, "sim.multimedia", 3)

    def test_rng_for_reproduces_stream(self):
        network = MultimediaNetwork(ring_graph(8))
        first = network.run(per_node(_Draw, seed=7)).results
        assert network.run(per_node(_Draw, seed=7)).results == first
        assert first == {node: _first_draw(7, "sim.multimedia", node) for node in range(8)}

    def test_independent_of_visit_order(self):
        forward = [p.ctx.rng.random() for p in _adapter(7).protocols]
        backward = [p.ctx.rng.random() for p in reversed(_adapter(7).protocols)]
        assert forward == backward[::-1]

    def test_fresh_generator_per_call(self):
        # each run's generator starts at the stream start: consuming one
        # must not advance another
        first = _adapter(7)
        first.protocols[3].ctx.rng.random()
        second = _adapter(7)
        assert second.protocols[3].ctx.rng.random() == _first_draw(7, "sim.multimedia", 3)

    def test_scope_property(self):
        # the scope selects the family: under one master seed, two scopes
        # share no node's seed
        multimedia, other = (
            {substream_seed(0, scope, node) for node in range(8)}
            for scope in ("sim.multimedia", "sim.synchronizer")
        )
        assert not multimedia & other
