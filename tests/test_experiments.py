"""Smoke tests for the experiment harness: every experiment runs end to end on
tiny instances (through the spec registry and unified runner) and reproduces
the paper's qualitative claims."""

import pytest

from repro.experiments import harness
from repro.experiments.runner import run_experiment


class TestHarness:
    def test_make_topology_kinds(self):
        for kind in ("grid", "ring", "geometric", "scale_free", "ad_hoc"):
            graph = harness.make_topology(kind, 30, seed=1)
            assert graph.num_nodes() >= 25
        with pytest.raises(ValueError):
            harness.make_topology("hyperloop", 30)

    def test_make_topology_new_kinds_connected_and_deterministic(self):
        from repro.topology.properties import is_connected

        for kind in ("scale_free", "ad_hoc"):
            graph = harness.make_topology(kind, 100, seed=7)
            assert is_connected(graph)
            again = harness.make_topology(kind, 100, seed=7)
            assert graph.edges() == again.edges()

    def test_topology_diameter_matches_exact(self):
        from repro.topology.properties import diameter

        for kind, n in (
            ("ring", 30),
            ("ring", 31),
            ("grid", 36),
            ("geometric", 40),
            ("scale_free", 60),
            ("ad_hoc", 60),
        ):
            graph = harness.make_topology(kind, n, seed=3)
            assert harness.topology_diameter(kind, graph) == diameter(graph)

    def test_topology_diameter_large_n_fallback(self, monkeypatch):
        # above the exact-scan cutoff the irregular kinds use the double
        # sweep; shrink the cutoff so the branch runs at test sizes
        from repro.topology.properties import approximate_diameter, diameter

        monkeypatch.setattr(harness, "EXACT_DIAMETER_MAX_N", 10)
        for kind in ("geometric", "scale_free", "ad_hoc"):
            graph = harness.make_topology(kind, 64, seed=5)
            reported = harness.topology_diameter(kind, graph)
            assert reported == approximate_diameter(graph)
            exact = diameter(graph)
            # the double sweep is a lower bound, never an overestimate
            assert reported <= exact
            assert reported >= max(1, exact // 2)
        # regular kinds keep their closed forms regardless of the cutoff
        ring = harness.make_topology("ring", 64, seed=5)
        assert harness.topology_diameter("ring", ring) == 32

    def test_sweep_sizes(self):
        rows = harness.sweep_sizes((16, 36), lambda g: {"nodes": g.num_nodes()})
        assert len(rows) == 2
        assert rows[0]["nodes"] == rows[0]["n"]


class TestExperimentsProduceRows:
    def test_e1_all_bounds_hold(self):
        result = run_experiment("e1", overrides={"sizes": (36, 64)})
        assert all(row["all_bounds_hold"] for row in result.rows)

    def test_e2_ratios_bounded(self):
        result = run_experiment("e2", overrides={"sizes": (36, 64)})
        assert all(row["rounds/bound"] < 50 for row in result.rows)

    def test_e3_structure_ok(self):
        result = run_experiment("e3", overrides={"sizes": (36,), "seeds": (1, 2)})
        assert all(row["structure_ok"] for row in result.rows)

    def test_e4_no_excessive_restarts(self):
        result = run_experiment("e4", overrides={"sizes": (36,), "seeds": (1, 2)})
        assert all(row["total_restarts"] <= 2 for row in result.rows)

    def test_e5_values_correct(self):
        result = run_experiment("e5", overrides={"sizes": (36,)})
        assert all(row["value_correct"] for row in result.rows)

    def test_e6_values_correct(self):
        result = run_experiment("e6", overrides={"sizes": (36,), "seeds": (1, 2)})
        assert all(row["values_correct"] for row in result.rows)

    def test_e7_multimedia_beats_both_at_scale(self):
        result = run_experiment("e7", overrides={"sizes": (512,)})
        row = result.rows[0]
        assert row["speedup_vs_p2p"] > 1.0
        assert row["speedup_vs_channel"] > 1.0

    def test_e7_runs_on_new_topology_kinds(self):
        for kind in ("scale_free", "ad_hoc"):
            result = run_experiment(
                "e7",
                overrides={
                    "sizes": (64,), "topology": kind, "channel_baseline": False
                },
            )
            row = result.rows[0]
            assert row["n"] == 64
            # the measured channel baseline is skipped, the bound still shown
            assert row["t_channel_only"] == "-"
            assert row["lb_channel"] >= 64 // 2

    def test_e8_lower_bound_respected(self):
        result = run_experiment("e8", overrides={"params": ((8, 8),)})
        assert all(row["lb ≤ measured"] for row in result.rows)

    def test_e9_mst_matches_kruskal(self):
        result = run_experiment("e9", overrides={"sizes": (36, 64)})
        assert all(row["matches_kruskal"] for row in result.rows)

    def test_e10_synchronizer_and_sizes(self):
        result = run_experiment("e10", overrides={"sizes": (36,), "seeds": (1, 2)})
        row = result.rows[0]
        assert row["sync_msg_overhead(≤2)"] <= 2.0 + 1e-9
        assert row["det_size_exact"] is True

    def test_e10_runs_on_new_topology_kinds(self):
        result = run_experiment(
            "e10",
            overrides={"sizes": (36,), "seeds": (1,), "topology": "scale_free"},
        )
        row = result.rows[0]
        assert row["sync_msg_overhead(≤2)"] <= 2.0 + 1e-9
        assert row["det_size_exact"] is True


def _e9_channel_pays_off_at_largest_size(rows):
    return rows[-1]["speedup"] > 1.0


def _e11_rows_bounded(rows):
    for row in rows:
        # every row is bounded: a medium either completes or reports "abort"
        assert row["status"] in ("ok", "abort:multimedia", "abort:p2p", "abort:both")
        assert isinstance(row["faults_injected"], int)
        if row["adversity"] != "crash":
            assert row["rounds_lost"] == 0  # only crash windows cost recovery rounds
    return True


class TestDefaultPresetClaims:
    """Row claims checked on the ``default`` preset, the workload ``repro bench`` times."""

    @pytest.mark.parametrize(
        "experiment_id,claim",
        (
            ("e9", _e9_channel_pays_off_at_largest_size),
            ("e11", _e11_rows_bounded),
        ),
    )
    def test_claim_holds(self, experiment_id, claim):
        assert claim(run_experiment(experiment_id).rows)


class TestLegacyRunWrappers:
    """The module-level ``run()`` wrappers stay drop-in compatible."""

    def test_run_returns_identical_table(self):
        from repro.experiments import e01_det_partition_quality as e1

        table = e1.run(sizes=(16, 36))
        result = run_experiment("e1", overrides={"sizes": (16, 36)})
        assert table.columns == list(result.columns)
        assert table.rows == [
            [row[column] for column in result.columns] for row in result.rows
        ]
