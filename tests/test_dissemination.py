"""Correctness tests for the affectance-selective dissemination layer (e13)."""

import pytest

from oracles import neighbors
from repro.experiments.e13_selective_dissemination import sweep_point
from repro.protocols import dissemination
from repro.protocols.dissemination import SCHEDULERS, disseminate
from repro.sim.adversity import ABORTED, adversity_state
from repro.sim.errors import AdversityAbort
from repro.topology.generators import ad_hoc_affectance_graph
from repro.topology.graph import WeightedGraph


def build_instance(edges, weight_overrides=None, n=None):
    """Hand-built graph whose links all carry affectance 0.5 (their weight)
    but for the overridden ones."""
    if n is None:
        n = max(max(u, v) for u, v in edges) + 1
    weights = weight_overrides or {}
    return WeightedGraph.from_edges(
        ((u, v, weights.get((u, v), 0.5)) for u, v in edges), n=n
    )


def path_instance(n):
    """A path 0-1-…-(n-1) with uniform affectance."""
    return build_instance([(i, i + 1) for i in range(n - 1)])


def traced_run(monkeypatch, *args, **kwargs):
    """Run :func:`disseminate`, spying on its physical layer.

    Returns the result and one ``(transmitters, received)`` pair per round
    that evaluated receptions: every round with transmitters, fault-free.
    """
    receptions = dissemination._receptions
    trace = []

    def spy(transmitters, *rest):
        received = receptions(transmitters, *rest)
        trace.append((tuple(transmitters), tuple(received)))
        return received

    monkeypatch.setattr(dissemination, "_receptions", spy)
    return disseminate(*args, **kwargs), trace


class TestCompleteness:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_star_completes_in_one_round(self, scheduler):
        # a lone transmitter is always decoded by every uninformed
        # neighbour — the collision-free base case of the physical layer
        graph = build_instance([(0, i) for i in range(1, 6)])
        result = disseminate(graph, scheduler=scheduler)
        assert result.informed == result.n
        assert result.rounds == 1
        assert result.receptions == 5

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_path_takes_one_round_per_layer(self, scheduler):
        # on a path the frontier is a single station in every round, so
        # the deterministic schedulers walk it in exactly n - 1 rounds;
        # decay may idle a round whenever its backoff coin comes up silent
        graph = path_instance(8)
        result = disseminate(graph, scheduler=scheduler)
        assert result.informed == result.n
        if scheduler == "decay":
            assert result.rounds >= 7
        else:
            assert result.rounds == 7
        assert result.transmissions == 7

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    @pytest.mark.parametrize("n", (32, 64))
    def test_ad_hoc_instances_complete(self, scheduler, n):
        graph = ad_hoc_affectance_graph(n, seed=11)
        result = disseminate(graph, scheduler=scheduler)
        assert result.informed == n
        assert result.receptions == n - 1

    def test_rounds_bounded_below_by_bfs_layers(self):
        graph = ad_hoc_affectance_graph(64, seed=11)
        layers = max(graph.csr().bfs(0)[0])
        for scheduler in SCHEDULERS:
            result = disseminate(graph, scheduler=scheduler)
            assert result.rounds >= layers

    def test_selective_packs_at_least_as_well_as_round_robin(self):
        graph = ad_hoc_affectance_graph(96, seed=11)
        selective = disseminate(graph, scheduler="selective")
        round_robin = disseminate(graph, scheduler="round_robin")
        assert selective.rounds <= round_robin.rounds
        # round-robin pays one round per transmission by construction
        assert round_robin.rounds == round_robin.transmissions

    def test_selective_resolves_the_equal_signal_collision(self, monkeypatch):
        # 1 and 2 both border 3 with equal signal: transmitting together
        # would collide forever, so the family must pick exactly one
        graph = build_instance([(0, 1), (0, 2), (1, 3), (2, 3)])
        result, trace = traced_run(monkeypatch, graph, scheduler="selective")
        assert result.informed == result.n
        assert result.rounds == 2
        transmitters, received = trace[-1]
        assert len(set(transmitters) & {1, 2}) == 1
        assert received == (3,)

    def test_link_weights_are_the_affectances(self, monkeypatch):
        # 1 serves 3 and 4, 2 serves 4 and 5; at equal affectance 2's signal
        # on 4 would collide with 1's, so the family sends 1 alone and 2 a
        # round later.  A weak (2, 4) link, affectance 4, leaves 1's signal
        # dominant at 4, and both transmit in the second round
        edges = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 5)]
        equal = disseminate(build_instance(edges), scheduler="selective")
        assert (equal.rounds, equal.transmissions) == (3, 3)
        weak, trace = traced_run(
            monkeypatch, build_instance(edges, {(2, 4): 4.0}), scheduler="selective"
        )
        assert trace == [((0,), (1, 2)), ((1, 2), (3, 4, 5))]
        assert weak.rounds == 2


class TestHistoryDifferential:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_recorded_rounds_match_brute_force_physics(self, scheduler, monkeypatch):
        # replay every round that transmitted against an independent
        # (dict-based) recomputation of the reception rule: v decodes its
        # strongest transmitting neighbour iff that signal strictly exceeds
        # the sum of the other transmitting neighbours' signals
        graph = ad_hoc_affectance_graph(32, seed=7)
        result, trace = traced_run(
            monkeypatch, graph, scheduler=scheduler
        )
        signal = {
            edge.key(): 1.0 / max(edge.weight, 1e-9) for edge in graph.edges()
        }
        adjacency = {u: set(neighbors(graph.csr(), u)) for u in graph.nodes()}
        informed = {0}
        for transmitters, received in trace:
            for u in transmitters:
                # a transmitter is informed and has an uninformed neighbour
                assert u in informed
                assert any(v not in informed for v in adjacency[u])
            expected = []
            for v in sorted(set(graph.nodes()) - informed):
                heard = [
                    signal[(u, v) if u < v else (v, u)]
                    for u in transmitters
                    if u in adjacency[v]
                ]
                if heard and 2.0 * max(heard) > sum(heard):
                    expected.append(v)
            assert list(received) == expected
            informed.update(received)
        assert informed == set(graph.nodes())
        assert sum(map(len, (t for t, _ in trace))) == result.transmissions
        # only decay's coins can leave a round without transmitters
        if scheduler == "decay":
            assert len(trace) <= result.rounds
        else:
            assert len(trace) == result.rounds


class TestDeterminism:
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_same_seed_same_run(self, scheduler):
        graph = ad_hoc_affectance_graph(48, seed=3)
        first = disseminate(graph, scheduler=scheduler, seed=9)
        second = disseminate(graph, scheduler=scheduler, seed=9)
        assert first == second

    def test_decay_seed_changes_the_run(self):
        graph = ad_hoc_affectance_graph(48, seed=3)
        runs = {
            disseminate(
                graph, scheduler="decay", seed=s
            ).rounds
            for s in range(6)
        }
        assert len(runs) > 1


class TestAdversity:
    def test_total_loss_aborts_within_the_round_budget(self):
        graph = ad_hoc_affectance_graph(32, seed=11)
        state = adversity_state(
            {"name": "loss", "loss_rate": 1.0, "delay_rate": 0.0},
            "dissemination-loss", 32,
        )
        with pytest.raises(AdversityAbort) as excinfo:
            disseminate(graph, adversity=state)
        assert excinfo.value.rounds == state.round_budget(32)
        assert 0 < excinfo.value.pending < 32

    def test_certain_jam_aborts_within_the_round_budget(self):
        graph = ad_hoc_affectance_graph(32, seed=11)
        state = adversity_state(
            {"name": "jam", "jam_rate": 1.0}, "dissemination-jam", 32
        )
        with pytest.raises(AdversityAbort) as excinfo:
            disseminate(graph, adversity=state)
        assert excinfo.value.rounds <= state.round_budget(32)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_moderate_loss_degrades_but_completes(self, scheduler):
        graph = ad_hoc_affectance_graph(48, seed=11)
        clean = disseminate(graph, scheduler=scheduler)
        state = adversity_state(
            {"name": "loss", "loss_rate": 0.3, "delay_rate": 0.0},
            "dissemination-moderate", 48, scheduler,
        )
        lossy = disseminate(
            graph, scheduler=scheduler, adversity=state
        )
        assert lossy.informed == lossy.n
        assert lossy.rounds >= clean.rounds
        assert state.faults_injected > 0

    def test_explicit_round_cap_overrides_the_budget(self):
        # the schedule's own round_budget replaces the n-scaled default
        graph = path_instance(16)
        state = adversity_state(
            {"name": "loss", "loss_rate": 1.0, "delay_rate": 0.0,
             "round_budget": 5},
            "dissemination-cap", 16,
        )
        assert state.round_budget(16) == 5
        with pytest.raises(AdversityAbort) as excinfo:
            disseminate(graph, adversity=state)
        assert excinfo.value.rounds == 5


class TestValidation:
    def test_unknown_scheduler_rejected(self):
        graph = path_instance(4)
        with pytest.raises(ValueError):
            disseminate(graph, scheduler="aloha")

    def test_source_out_of_range_rejected(self):
        graph = path_instance(4)
        with pytest.raises(ValueError):
            disseminate(graph, source=4)


class TestE13Experiment:
    def test_fault_free_row_schema(self):
        row = sweep_point(32)
        assert row["status"] == "ok"
        assert row["n"] == 32
        assert row["r_selective"] >= row["layers"]
        assert row["r_selective"] <= row["r_round_robin"]
        assert row["faults_injected"] == 0
        assert row["sel_vs_rr"] >= 1.0

    def test_total_loss_row_reports_bounded_aborts(self):
        row = sweep_point(
            32, adversity={"name": "loss", "loss_rate": 1.0, "delay_rate": 0.0}
        )
        assert row["r_selective"] == ABORTED
        assert row["r_decay"] == ABORTED
        assert row["r_round_robin"] == ABORTED
        assert row["status"] == "abort:decay,round_robin,selective"
        assert row["sel_vs_rr"] == "-"
        assert row["faults_injected"] > 0
