"""Tests for the declarative experiment layer: registry, runner, CLI, catalog.

Covers the acceptance criteria of the spec-registry refactor: every
experiment e1–e13 is registered with valid presets, every ``quick`` preset
runs whole and returns rows in its declared schema, the unified runner
produces structured rows that render to the historical tables and round-trip
through JSON, parallel (distributed) execution is bit-identical to serial,
and the ``python -m repro`` CLI exposes ``list``/``run``/``docs``.
"""

import json

import pytest

from oracles import load_result
from repro import cli
from repro.analysis.reporting import table_from_records
from repro.experiments import registry
from repro.experiments.registry import (
    REQUIRED_PRESETS,
    all_experiments,
    get_experiment,
    register_experiment,
)
from repro.experiments.runner import ExperimentResult, run_experiment

EXPECTED_IDS = [f"e{i}" for i in range(1, 14)]

#: quick sweeps beyond each spec's plain ``quick`` preset: the topology,
#: channel-baseline, rewired-family and adversity variants of the smoke run,
#: among them the ``geometric`` kind, a row past ``EXACT_DIAMETER_MAX_N``
#: (the double-sweep diameter bound) and crash windows in both simulators
QUICK_VARIANTS = {
    "e7_scale_free": ("e7", {"sizes": (64, 128), "topology": "scale_free",
                             "channel_baseline": False}),
    "e7_scale_free_1100": ("e7", {"sizes": (1100,), "topology": "scale_free",
                                  "channel_baseline": False}),
    "e7_geometric": ("e7", {"sizes": (64,), "topology": "geometric",
                            "channel_baseline": False}),
    "e7_ad_hoc": ("e7", {"sizes": (64, 128), "topology": "ad_hoc",
                         "channel_baseline": False}),
    "e7_baseline": ("e7", {"sizes": (256, 512), "topology": "scale_free",
                           "channel_baseline": True}),
    "e7_loss": ("e7", {"adversity": "loss"}),
    "e10_scale_free": ("e10", {"sizes": (36,), "topology": "scale_free"}),
    "e10_crash": ("e10", {"adversity": "crash"}),
    "e12_rewired": ("e12", {"families": ("flower_13_rewired",
                                         "flower_22_rewired")}),
    "e13_jam": ("e13", {"adversity": "jam"}),
}

QUICK_SWEEPS = {spec.id: (spec.id, {}) for spec in all_experiments()}
QUICK_SWEEPS.update(QUICK_VARIANTS)


class TestRegistryCompleteness:
    def test_all_experiments_registered(self):
        assert [spec.id for spec in all_experiments()] == EXPECTED_IDS

    def test_every_spec_has_required_presets(self):
        for spec in all_experiments():
            for preset in REQUIRED_PRESETS:
                params = spec.params_for(preset)
                points = spec.points(params)
                assert points, f"{spec.id}/{preset} expands to no points"

    def test_every_spec_declares_columns_and_description(self):
        for spec in all_experiments():
            assert spec.columns
            assert spec.description

    @pytest.mark.parametrize("name", list(QUICK_SWEEPS))
    def test_quick_sweeps_match_columns(self, name):
        # every spec's whole quick preset, and each quick variant: every
        # row's keys must equal the declared schema (order included —
        # rendering relies on it)
        experiment_id, overrides = QUICK_SWEEPS[name]
        result = run_experiment(experiment_id, preset="quick", overrides=overrides)
        assert result.rows
        columns = list(get_experiment(experiment_id).columns)
        for row in result.rows:
            assert list(row) == columns

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            get_experiment("e99")

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="no preset"):
            get_experiment("e1").params_for("warm")

    def test_unsupported_topology_raises(self):
        with pytest.raises(ValueError, match="does not support topology"):
            get_experiment("e1").params_for("quick", {"topology": "hyperloop"})

    def test_scalar_override_of_sequence_parameter_is_coerced(self):
        params = get_experiment("e1").params_for("quick", {"sizes": 64})
        assert params["sizes"] == (64,)
        params = get_experiment("e3").params_for("quick", {"seeds": 7})
        assert params["seeds"] == (7,)

    def test_unknown_override_key_raises(self):
        # e1 is deterministic: it has no seeds parameter to override
        with pytest.raises(ValueError, match="does not accept parameter"):
            get_experiment("e1").params_for("quick", {"seeds": (1,)})
        # e8 sweeps ray-graph shapes, not sizes — a sizes override must not
        # be silently ignored
        with pytest.raises(ValueError, match="does not accept parameter"):
            get_experiment("e8").params_for("quick", {"sizes": (999,)})

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_experiment(
                id="e1",
                title="dup",
                columns=("n",),
                presets={name: {"sizes": (4,)} for name in REQUIRED_PRESETS},
            )(lambda n: {"n": n})

    def test_missing_preset_rejected(self):
        with pytest.raises(ValueError, match="missing preset"):
            register_experiment(
                id="e_tmp_missing_preset",
                title="tmp",
                columns=("n",),
                presets={"quick": {"sizes": (4,)}},
            )(lambda n: {"n": n})
        assert "e_tmp_missing_preset" not in registry._REGISTRY


class TestRunner:
    def test_rows_render_to_table(self):
        result = run_experiment("e1", preset="quick")
        table = result.to_table()
        assert table.columns == list(result.columns)
        assert len(table.rows) == len(result.rows)
        rendered = table.render()
        assert "E1" in rendered

    def test_row_schema_mismatch_is_rejected(self):
        spec = get_experiment("e1")
        with pytest.raises(ValueError, match="columns"):
            register_experiment(
                id="e_tmp_bad_row",
                title="tmp",
                columns=("n", "extra"),
                presets={name: {"sizes": (4,)} for name in REQUIRED_PRESETS},
            )(lambda n: {"n": n})
            run_experiment("e_tmp_bad_row", preset="quick")
        registry._REGISTRY.pop("e_tmp_bad_row", None)
        assert spec is get_experiment("e1")

    def test_json_round_trip(self):
        result = run_experiment("e8", preset="quick")
        clone = load_result(json.loads(result.to_json()))
        assert clone.experiment_id == result.experiment_id
        assert clone.title == result.title
        assert list(clone.columns) == list(result.columns)
        assert clone.rows == json.loads(json.dumps(result.rows))
        assert clone.to_table().render() == result.to_table().render()

    def test_from_json_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="schema"):
            load_result({"schema": 99})

    def test_to_json_is_strict_for_non_finite_floats(self):
        result = ExperimentResult(
            experiment_id="e10",
            title="t",
            columns=("n", "GL_error_factor"),
            rows=[{"n": 4, "GL_error_factor": float("inf")}],
        )
        text = result.to_json()
        assert "Infinity" not in text
        assert json.loads(text)["rows"][0]["GL_error_factor"] == "inf"

    def test_parallel_is_bit_identical_to_serial(self, tmp_path):
        for experiment_id in ("e3", "e9"):
            serial = run_experiment(experiment_id, preset="quick")
            parallel = run_experiment(experiment_id, preset="quick",
                                      executor="distributed", workers=2,
                                      run_dir=tmp_path / experiment_id)
            assert parallel.rows == serial.rows
            assert parallel.to_table().render() == serial.to_table().render()

    def test_serial_run_honours_an_unregistered_spec_object(self):
        from repro.experiments.registry import ExperimentSpec

        spec = ExperimentSpec(
            id="custom-unregistered",
            title="custom",
            columns=("n",),
            point_fn=lambda n: {"n": n},
            presets={name: {"sizes": (2, 3)} for name in REQUIRED_PRESETS},
        )
        result = run_experiment(spec, preset="quick")
        assert result.rows == [{"n": 2}, {"n": 3}]

    def test_table_from_records_checks_columns(self):
        table = table_from_records("t", ("a", "b"), [{"a": 1, "b": 2}])
        assert table.rows == [[1, 2]]
        with pytest.raises(KeyError):
            table_from_records("t", ("a", "b"), [{"a": 1}])


class TestCli:
    def test_list_shows_all_experiments(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in EXPECTED_IDS:
            assert f"{experiment_id:>4}  " in out

    def test_list_json(self, capsys):
        assert cli.main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [entry["id"] for entry in payload] == EXPECTED_IDS
        assert all(set(REQUIRED_PRESETS) <= set(entry["presets"]) for entry in payload)

    def test_run_renders_table(self, capsys):
        assert cli.main(["run", "e1", "--preset", "quick"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "all_bounds_hold" in out

    def test_run_json_round_trip(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        code = cli.main([
            "run", "e7", "--preset", "quick", "--topology", "grid",
            "--set", "channel_baseline=False", "--json", str(output),
        ])
        assert code == 0
        capsys.readouterr()
        loaded = load_result(json.loads(output.read_text()))
        direct = run_experiment(
            "e7", preset="quick",
            overrides={"topology": "grid", "channel_baseline": False},
        )
        assert loaded.rows == json.loads(json.dumps(direct.rows))
        assert loaded.to_table().render() == direct.to_table().render()

    def test_run_overrides_sizes_and_seeds(self, capsys):
        assert cli.main(["run", "e3", "--sizes", "16", "--seeds", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 5  # title + rules + header + one row

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert cli.main(["run", "e99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown_preset_fails_cleanly(self, capsys):
        assert cli.main(["run", "e1", "--preset", "warm"]) == 2
        assert "no preset" in capsys.readouterr().err

    def test_run_unknown_override_fails_cleanly(self, capsys):
        assert cli.main(["run", "e1", "--seeds", "1"]) == 2
        assert "does not accept parameter" in capsys.readouterr().err
        assert cli.main(["run", "e1", "--set", "bogus=1"]) == 2
        assert "does not accept parameter" in capsys.readouterr().err

    def test_bench_is_an_unknown_command(self, capsys):
        # the single-sample timing harness is gone; perfbench/ measures
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "assignment,message",
        (
            ("sizes=abc", "sequence of int"),
            ("sizes=(-4,)", "at least 1"),
            ("sizes=(16.0,)", "sequence of int"),
            ("sizes=(True,)", "sequence of int"),
            ("topology=3", "topology: str"),
        ),
    )
    def test_run_mistyped_override_fails_cleanly(self, capsys, assignment, message):
        assert cli.main(["run", "e1", "--set", assignment]) == 2
        assert message in capsys.readouterr().err

    def test_override_types_follow_the_preset_template(self):
        e7 = get_experiment("e7")
        # a list stands for a tuple, as JSON-decoded overrides send them
        assert e7.params_for("quick", {"sizes": [16]})["sizes"] == [16]
        with pytest.raises(ValueError, match="bool"):
            e7.params_for("quick", {"channel_baseline": 1})
        e11 = get_experiment("e11")
        # an int is a number; a bool is not
        assert e11.params_for("quick", {"intensities": (0, 0.5)})["intensities"] == (0, 0.5)
        with pytest.raises(ValueError, match="number"):
            e11.params_for("quick", {"intensities": (True,)})
        e8 = get_experiment("e8")
        assert e8.params_for("quick", {"params": [[2, 3]]})["params"] == [[2, 3]]
        with pytest.raises(ValueError):
            e8.params_for("quick", {"params": [2, 3]})

    def test_run_set_scalar_sequence_value(self, capsys):
        assert cli.main(["run", "e1", "--set", "sizes=16"]) == 0
        out = capsys.readouterr().out
        assert "16" in out


class TestDocsCatalog:
    def test_markdown_is_deterministic_and_covers_every_spec(self):
        from repro.experiments.catalog import experiments_markdown

        first = experiments_markdown()
        assert first == experiments_markdown()
        for experiment_id in EXPECTED_IDS:
            assert f"## {experiment_id} — " in first
        # the catalog documents every preset tier and e7's channel baseline
        assert "| `quick` |" in first and "| `hot` |" in first
        assert "| `xxhot` |" in first and "`channel_baseline=True`" in first

    def test_committed_catalog_is_fresh(self):
        # the same check the CI docs-freshness job runs: the committed
        # docs/experiments.md must match what the registry generates now
        from repro.experiments.catalog import default_docs_dir, stale_docs

        assert stale_docs(default_docs_dir()) == []

    def test_cli_docs_writes_and_checks(self, tmp_path, capsys):
        docs_dir = tmp_path / "docs"
        assert cli.main(["docs", "--output-dir", str(docs_dir)]) == 0
        generated = docs_dir / "experiments.md"
        assert generated.exists()
        capsys.readouterr()
        assert cli.main(["docs", "--output-dir", str(docs_dir), "--check"]) == 0
        capsys.readouterr()
        generated.write_text(generated.read_text() + "drift\n")
        assert cli.main(["docs", "--output-dir", str(docs_dir), "--check"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_cli_docs_check_missing_file_fails(self, tmp_path, capsys):
        assert cli.main(
            ["docs", "--output-dir", str(tmp_path / "nowhere"), "--check"]
        ) == 1
        assert "stale" in capsys.readouterr().err
