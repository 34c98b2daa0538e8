"""Executor subsystem tests: backend matrix, checkpoints, shards, schema.

The contract under test (see ``docs/architecture.md``, "Execution
backends"): every backend produces rows bit-identical to a serial run of
the same sweep, sharded runs checkpoint/resume/merge deterministically, a
corrupt or foreign checkpoint is recomputed rather than trusted, and the
``RESULT_SCHEMA`` 2 serialization round-trips (while schema-1 files still
load).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from oracles import load_result
from repro.experiments import executors
from repro.experiments.executors import (
    ExecutorConfigError,
    SerialExecutor,
    ShardedExecutor,
    execute_point,
    make_executor,
    parse_shard,
    shard_indices,
    sweep_digest,
)
from repro.experiments.registry import get_experiment
from repro.experiments.runner import (
    RESULT_SCHEMA,
    ExperimentResult,
    run_experiment,
)


@pytest.fixture(scope="module")
def serial_e2():
    """The reference serial result every backend must reproduce."""
    return run_experiment("e2", preset="quick")


@pytest.fixture(scope="module")
def serial_e4():
    """A randomized-stream reference (seeded, so still deterministic)."""
    return run_experiment("e4", preset="quick")


# ----------------------------------------------------------------------
# backend matrix: serial vs sharded vs distributed bit-identity
# ----------------------------------------------------------------------
class TestExecutorMatrix:
    def test_distributed_rows_match_serial(self, serial_e2, tmp_path):
        result = run_experiment("e2", preset="quick", executor="distributed",
                                workers=2, run_dir=tmp_path / "run")
        assert result.rows == serial_e2.rows
        assert result.executor == "distributed"
        assert result.pending_points == 0

    def test_sharded_rows_match_serial(self, serial_e2, tmp_path):
        result = run_experiment("e2", preset="quick", executor="sharded",
                                run_dir=tmp_path / "run")
        assert result.rows == serial_e2.rows
        assert result.executor == "sharded"
        assert result.pending_points == 0

    def test_sharded_matches_serial_on_random_stream(self, serial_e4, tmp_path):
        result = run_experiment("e4", preset="quick", executor="sharded",
                                run_dir=tmp_path / "run")
        assert result.rows == serial_e4.rows

    def test_explicit_serial_name(self, serial_e2):
        result = run_experiment("e2", preset="quick", executor="serial")
        assert result.rows == serial_e2.rows
        assert result.executor == "serial"

    def test_unknown_executor_name_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            run_experiment("e2", preset="quick", executor="quantum")

    def test_sharded_options_require_sharded_backend(self):
        with pytest.raises(ValueError, match="--executor sharded"):
            make_executor("serial", resume=True)
        with pytest.raises(ValueError, match="--executor sharded"):
            make_executor("serial", shard=(0, 2))


# ----------------------------------------------------------------------
# shard layout: deterministic disjoint cover
# ----------------------------------------------------------------------
class TestShardLayout:
    def test_disjoint_cover(self):
        for num_points in (1, 2, 5, 8, 17):
            for shard_count in range(1, num_points + 1):
                plan = shard_indices(num_points, shard_count)
                assert len(plan) == shard_count
                flattened = [index for shard in plan for index in shard]
                # disjoint and covering: every index exactly once
                assert sorted(flattened) == list(range(num_points))

    def test_round_robin_striping(self):
        assert shard_indices(7, 3) == [[0, 3, 6], [1, 4], [2, 5]]

    def test_non_positive_count_rejected(self):
        with pytest.raises(ValueError):
            shard_indices(4, 0)

    def test_oversized_count_yields_empty_shards(self):
        # farm tooling fixes N before knowing the sweep size: the excess
        # shards are empty, the layout is still the requested N
        plan = shard_indices(2, 5)
        assert plan == [[0], [1], [], [], []]

    def test_parse_shard(self):
        assert parse_shard("1/4") == (0, 4)
        assert parse_shard("4/4") == (3, 4)
        for bad in ("0/4", "5/4", "2", "a/b", "2/0"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_digest_covers_layout_and_parameters(self):
        base = sweep_digest("e2", "quick", {"sizes": (16, 36)}, 2, 2)
        assert sweep_digest("e2", "quick", {"sizes": (16, 36)}, 2, 2) == base
        assert sweep_digest("e2", "quick", {"sizes": (16, 36)}, 2, 1) != base
        assert sweep_digest("e2", "hot", {"sizes": (16, 36)}, 2, 2) != base
        assert sweep_digest("e4", "quick", {"sizes": (16, 36)}, 2, 2) != base
        assert sweep_digest("e2", "quick", {"sizes": (16, 64)}, 2, 2) != base


# ----------------------------------------------------------------------
# checkpoint / resume semantics
# ----------------------------------------------------------------------
class TestShardedCheckpoints:
    def test_interrupted_run_resumes_to_serial_rows(self, serial_e2, tmp_path):
        run_dir = tmp_path / "run"
        partial = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=run_dir, shard=(0, 2))
        assert partial.pending_points == 1
        assert len(partial.rows) == 1
        assert partial.rows[0] == serial_e2.rows[0]
        resumed = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=run_dir, resume=True)
        assert resumed.pending_points == 0
        assert resumed.rows == serial_e2.rows

    def test_farmed_shards_merge_into_full_result(self, serial_e2, tmp_path):
        run_dir = tmp_path / "farm"
        first = run_experiment("e2", preset="quick", shard=(0, 2),
                               run_dir=run_dir)
        assert first.pending_points == 1
        last = run_experiment("e2", preset="quick", shard=(1, 2),
                              run_dir=run_dir)
        # the last farm invocation observes every completed checkpoint
        assert last.pending_points == 0
        assert last.rows == serial_e2.rows

    def test_collect_without_shard_adopts_manifest_layout(self, serial_e2,
                                                          tmp_path):
        # the README flow: farm out with --shard K/N, then collect with a
        # bare --resume — the collect invocation must adopt the farm's N
        # from the manifest instead of defaulting to one shard per point
        run_dir = tmp_path / "farm"
        run_experiment("e2", preset="quick", shard=(0, 2), run_dir=run_dir)
        collected = run_experiment("e2", preset="quick", resume=True,
                                   run_dir=run_dir)
        assert collected.pending_points == 0
        assert collected.rows == serial_e2.rows
        # the second shard was computed by the collect run, under the same
        # 2-shard layout (no shard-0002 file from a per-point default)
        assert sorted(p.name for p in run_dir.glob("shard-*.json")) == [
            "shard-0000.json", "shard-0001.json",
        ]

    def test_shard_count_beyond_points_farms_with_empty_shards(
            self, serial_e2, tmp_path):
        run_dir = tmp_path / "farm"
        for index in range(5):  # N=5 over a 2-point sweep
            result = run_experiment("e2", preset="quick", shard=(index, 5),
                                    run_dir=run_dir)
        assert result.pending_points == 0
        assert result.rows == serial_e2.rows

    def test_corrupt_checkpoint_is_recomputed(self, serial_e2, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment("e2", preset="quick", executor="sharded",
                       run_dir=run_dir)
        (run_dir / "shard-0000.json").write_text("{truncated garbage")
        resumed = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=run_dir, resume=True)
        assert resumed.rows == serial_e2.rows

    def test_wrong_shape_checkpoint_is_recomputed(self, serial_e2, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment("e2", preset="quick", executor="sharded",
                       run_dir=run_dir)
        path = run_dir / "shard-0001.json"
        data = json.loads(path.read_text())
        del data["rows"][0]["n"]  # row no longer matches the spec's columns
        path.write_text(json.dumps(data))
        resumed = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=run_dir, resume=True)
        assert resumed.rows == serial_e2.rows

    def test_foreign_run_directory_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment("e2", preset="quick", executor="sharded",
                       run_dir=run_dir)
        with pytest.raises(ExecutorConfigError, match="different sweep"):
            run_experiment("e4", preset="quick", executor="sharded",
                           run_dir=run_dir, resume=True)

    def test_stale_checkpoints_ignored_after_manifest_loss(self, serial_e2,
                                                           tmp_path):
        # checkpoints carry the sweep digest themselves: losing the manifest
        # must not let a differently-parameterised sweep's shards merge in
        run_dir = tmp_path / "run"
        run_experiment("e2", preset="quick", executor="sharded",
                       run_dir=run_dir,
                       overrides={"sizes": (25, 49)})
        (run_dir / "manifest.json").unlink()
        result = run_experiment("e2", preset="quick", executor="sharded",
                                run_dir=run_dir, resume=True)
        assert result.rows == serial_e2.rows

    def test_shard_index_out_of_range(self, tmp_path):
        executor = ShardedExecutor(run_dir=tmp_path / "run", shard_count=2,
                                   shard_index=2)
        with pytest.raises(ValueError, match="out of range"):
            run_experiment("e2", preset="quick", executor=executor)

    def test_resumed_wall_seconds_accumulates_shard_compute(
            self, tmp_path, monkeypatch):
        computed = []

        def spy(spec, point):
            computed.append(point)
            return execute_point(spec, point)

        monkeypatch.setattr(executors, "execute_point", spy)
        run_dir = tmp_path / "run"
        run_experiment("e2", preset="quick", executor="sharded",
                       run_dir=run_dir, shard=(0, 2))
        first_shard = (run_dir / "shard-0000.json").read_bytes()
        first_points = list(computed)
        resumed = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=run_dir, resume=True)
        checkpoints = sorted(run_dir.glob("shard-*.json"))
        assert len(checkpoints) == 2
        total = sum(
            json.loads(path.read_text())["compute_seconds"]
            for path in checkpoints
        )
        assert resumed.wall_seconds == pytest.approx(total)
        # the resuming invocation computed only the second shard: the first
        # shard's checkpoint is kept byte for byte, and only the second
        # point ran
        assert (run_dir / "shard-0000.json").read_bytes() == first_shard
        spec = get_experiment("e2")
        points = spec.points(spec.params_for("quick"))
        assert first_points == points[:1]
        assert computed == points


# ----------------------------------------------------------------------
# result schema
# ----------------------------------------------------------------------
class TestResultSchema:
    def test_round_trip(self, serial_e2):
        loaded = load_result(json.loads(serial_e2.to_json()))
        assert loaded.rows == serial_e2.rows
        assert loaded.pending_points == 0
        assert loaded.executor == serial_e2.executor
        assert loaded.wall_seconds == pytest.approx(
            serial_e2.wall_seconds, abs=1e-4
        )
        assert json.loads(serial_e2.to_json())["schema"] == RESULT_SCHEMA

    def test_schema_one_still_loads(self):
        legacy = {
            "schema": 1,
            "experiment": "e2",
            "title": "legacy",
            "columns": ["n"],
            "rows": [{"n": 16}],
            "wall_seconds": 2.5,
        }
        result = load_result(legacy)
        assert result.wall_seconds == 2.5
        assert result.invocation_seconds == 2.5
        assert result.pending_points == 0
        assert result.executor == "serial"

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="unsupported result schema"):
            load_result({"schema": 99})

    def test_partial_result_serializes_pending(self, tmp_path):
        partial = run_experiment("e2", preset="quick", executor="sharded",
                                 run_dir=tmp_path / "run", shard=(0, 2))
        data = json.loads(partial.to_json())
        assert data["pending_points"] == 1
        assert data["executor"] == "sharded"
        assert load_result(data).pending_points == 1


class TestRunnerExecutorWiring:
    def test_instance_with_sharded_kwargs_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="executor instance"):
            run_experiment("e2", preset="quick",
                           executor=ShardedExecutor(run_dir=tmp_path / "r"),
                           resume=True)


class TestBackendDecision:
    """``make_executor`` is the one place options choose a backend.

    Each row is one flag combination: the backend ``make_executor`` builds
    from it (or ``ValueError`` when the options contradict each other), and
    ``repro run`` with the same flags must reach the same backend (or exit
    2), because the CLI hands its flags to ``make_executor`` unchanged.
    """

    ROWS = [
        # (name, make_executor options, `repro run` flags, expected)
        (None, {}, [], "serial"),
        (None, {"resume": True}, ["--resume"], "sharded"),
        (None, {"run_dir": Path("r")}, ["--run-dir", "r"], "sharded"),
        (None, {"shard": (0, 2)}, ["--shard", "1/2"], "sharded"),
        (None, {"workers": 2}, ["--workers", "2"], "distributed"),
        (None, {"lease_timeout": 5.0}, ["--lease-timeout", "5"],
         "distributed"),
        (None, {"workers": 2, "run_dir": Path("r")},
         ["--workers", "2", "--run-dir", "r"], "distributed"),
        (None, {"workers": 2, "shard": (0, 2)},
         ["--workers", "2", "--shard", "1/2"], ValueError),
        ("serial", {}, ["--executor", "serial"], "serial"),
        ("sharded", {"resume": True}, ["--executor", "sharded", "--resume"],
         "sharded"),
        ("distributed", {"run_dir": Path("r")},
         ["--executor", "distributed", "--run-dir", "r"], "distributed"),
        ("serial", {"run_dir": Path("r")},
         ["--executor", "serial", "--run-dir", "r"], ValueError),
        ("distributed", {"shard": (0, 2)},
         ["--executor", "distributed", "--shard", "1/2"], ValueError),
        ("sharded", {"workers": 2}, ["--executor", "sharded", "--workers", "2"],
         ValueError),
    ]

    @pytest.mark.parametrize("name, options, flags, expected", ROWS)
    def test_make_executor_and_cli_agree(self, name, options, flags, expected,
                                         monkeypatch):
        from repro import cli
        from repro.experiments.distributed import DistributedExecutor

        backend_types = {"serial": SerialExecutor, "sharded": ShardedExecutor,
                         "distributed": DistributedExecutor}
        if expected is ValueError:
            with pytest.raises(ValueError):
                make_executor(name, **options)
        else:
            assert type(make_executor(name, **options)) is backend_types[expected]

        received = []

        def fake_run_experiment(spec, preset, overrides, executor):
            received.append(executor)
            return ExperimentResult(spec.id, "t", spec.columns, [])

        monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
        status = cli.main(["run", "e2", "--preset", "quick", "--quiet", *flags])
        if expected is ValueError:
            assert status == 2
            assert received == []
        else:
            assert status == 0
            (backend,) = received
            assert type(backend) is backend_types[expected]


class TestDefaultRunDirectory:
    def test_default_dir_farm_then_bare_resume_collects(self, serial_e2,
                                                        monkeypatch, tmp_path):
        # the default directory name must not depend on the shard layout:
        # a --shard K/N farm run and a bare --resume collect (different
        # implied layouts) must resolve to the same directory
        import repro.experiments.executors as executors

        monkeypatch.setattr(executors, "default_run_root", lambda: tmp_path)
        run_experiment("e2", preset="quick", shard=(0, 2))
        collected = run_experiment("e2", preset="quick", resume=True)
        assert collected.pending_points == 0
        assert collected.rows == serial_e2.rows
        # exactly one run directory was created, holding the 2-shard layout
        dirs = [p for p in tmp_path.iterdir() if p.is_dir()]
        assert len(dirs) == 1
        assert sorted(p.name for p in dirs[0].glob("shard-*.json")) == [
            "shard-0000.json", "shard-0001.json",
        ]


class TestNonFiniteRows:
    def test_checkpoints_stay_strict_json_and_rows_round_trip(self, tmp_path):
        # rows with inf (e10's degenerate estimates) must produce strict
        # RFC 8259 checkpoint files AND decode back to the exact floats
        import math

        from repro.experiments.registry import ExperimentSpec

        spec = ExperimentSpec(
            id="synthetic",
            title="synthetic",
            columns=("n", "value"),
            point_fn=lambda n: {"n": n, "value": math.inf if n == 1 else 1.5},
            presets={name: {"sizes": (1, 2)}
                     for name in ("quick", "default", "hot")},
        )
        serial = run_experiment(spec, preset="quick")
        sharded = run_experiment(spec, preset="quick",
                                 executor=ShardedExecutor(run_dir=tmp_path))
        assert sharded.rows == serial.rows
        assert sharded.rows[0]["value"] == math.inf
        for path in tmp_path.glob("shard-*.json"):
            # strict parsing: the bare Infinity token would raise here
            json.loads(path.read_text(), parse_constant=lambda s: 1 / 0)


# ----------------------------------------------------------------------
# the adversity axis through the executor matrix
# ----------------------------------------------------------------------
class TestAdversitySharding:
    """The adversity schedule must be part of the sweep identity.

    Fault draws come from per-point substreams, so adversity rows must be
    bit-identical across backends and resumes; and a run directory written
    under one adversity configuration must refuse shards for another (or
    for none at all).
    """

    OVERRIDES = {"adversity": "loss"}

    @pytest.fixture(scope="class")
    def serial_adversity(self):
        return run_experiment("e7", preset="quick", overrides=self.OVERRIDES)

    def test_distributed_rows_match_serial(self, serial_adversity, tmp_path):
        result = run_experiment("e7", preset="quick", overrides=self.OVERRIDES,
                                executor="distributed", workers=2,
                                run_dir=tmp_path / "run")
        assert result.rows == serial_adversity.rows

    def test_sharded_rows_match_serial(self, serial_adversity, tmp_path):
        result = run_experiment("e7", preset="quick", overrides=self.OVERRIDES,
                                executor="sharded", run_dir=tmp_path / "run")
        assert result.rows == serial_adversity.rows

    def test_interrupted_adversity_run_resumes_to_serial_rows(
            self, serial_adversity, tmp_path):
        run_dir = tmp_path / "run"
        partial = run_experiment("e7", preset="quick", overrides=self.OVERRIDES,
                                 executor="sharded", run_dir=run_dir,
                                 shard=(0, 2))
        assert partial.pending_points == 1
        resumed = run_experiment("e7", preset="quick", overrides=self.OVERRIDES,
                                 executor="sharded", run_dir=run_dir,
                                 resume=True)
        assert resumed.pending_points == 0
        assert resumed.rows == serial_adversity.rows

    def test_digest_covers_the_adversity_schedule(self):
        from repro.experiments.registry import get_experiment

        spec = get_experiment("e7")
        clean = spec.params_for("quick")
        loss = spec.params_for("quick", {"adversity": "loss"})
        tweaked = spec.params_for(
            "quick", {"adversity": {"name": "loss", "loss_rate": 0.2}}
        )
        digests = {
            sweep_digest("e7", "quick", params, 2, 2)
            for params in (clean, loss, tweaked)
        }
        assert len(digests) == 3  # absent, preset, and refined all differ

    def test_resume_refuses_checkpoints_from_other_adversity(self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment("e7", preset="quick", overrides={"adversity": "loss"},
                       executor="sharded", run_dir=run_dir)
        with pytest.raises(ExecutorConfigError, match="different sweep"):
            run_experiment("e7", preset="quick", overrides={"adversity": "jam"},
                           executor="sharded", run_dir=run_dir, resume=True)

    def test_resume_refuses_checkpoints_from_adversity_free_sweep(
            self, tmp_path):
        run_dir = tmp_path / "run"
        run_experiment("e7", preset="quick", executor="sharded",
                       run_dir=run_dir)
        with pytest.raises(ExecutorConfigError, match="different sweep"):
            run_experiment("e7", preset="quick", overrides={"adversity": "loss"},
                           executor="sharded", run_dir=run_dir, resume=True)


# ----------------------------------------------------------------------
# the xhot presets through the executor matrix
# ----------------------------------------------------------------------
class TestXhotPresetSmoke:
    """The flyweight-backed xhot presets must honour the backend contract.

    The xhot presets of e7 and e10 run the flyweight sim layer and
    per-node substreams; their rows must stay bit-identical across
    backends exactly like the classic presets.  The sweep sizes are
    overridden downward so the smoke exercises the xhot *configuration*
    (scale-free topology, gated size protocols) without the n = 102400
    wall-clock — the full-size budget is checked by the CI xhot smoke, and
    perfbench's ``xl_pipeline`` workload times both presets.
    """

    E7_OVERRIDES = {"sizes": (64, 128)}
    E10_OVERRIDES = {"sizes": (36, 64)}

    @pytest.fixture(scope="class")
    def serial_e7_xhot(self):
        return run_experiment("e7", preset="xhot", overrides=self.E7_OVERRIDES)

    @pytest.fixture(scope="class")
    def serial_e10_xhot(self):
        return run_experiment("e10", preset="xhot", overrides=self.E10_OVERRIDES)

    def test_e7_xhot_distributed_rows_match_serial(self, serial_e7_xhot,
                                                   tmp_path):
        result = run_experiment("e7", preset="xhot", overrides=self.E7_OVERRIDES,
                                executor="distributed", workers=2,
                                run_dir=tmp_path / "run")
        assert result.rows == serial_e7_xhot.rows

    def test_e7_xhot_sharded_rows_match_serial(self, serial_e7_xhot, tmp_path):
        result = run_experiment("e7", preset="xhot", overrides=self.E7_OVERRIDES,
                                executor="sharded", run_dir=tmp_path / "run")
        assert result.rows == serial_e7_xhot.rows

    def test_e10_xhot_distributed_rows_match_serial(self, serial_e10_xhot,
                                                    tmp_path):
        result = run_experiment("e10", preset="xhot",
                                overrides=self.E10_OVERRIDES,
                                executor="distributed", workers=2,
                                run_dir=tmp_path / "run")
        assert result.rows == serial_e10_xhot.rows

    def test_e10_xhot_sharded_resumes_to_serial_rows(self, serial_e10_xhot,
                                                     tmp_path):
        run_dir = tmp_path / "run"
        partial = run_experiment("e10", preset="xhot",
                                 overrides=self.E10_OVERRIDES,
                                 executor="sharded", run_dir=run_dir,
                                 shard=(0, 2))
        assert partial.pending_points == 1
        resumed = run_experiment("e10", preset="xhot",
                                 overrides=self.E10_OVERRIDES,
                                 executor="sharded", run_dir=run_dir,
                                 resume=True)
        assert resumed.pending_points == 0
        assert resumed.rows == serial_e10_xhot.rows

    def test_e10_xhot_gates_the_size_columns(self, serial_e10_xhot):
        for row in serial_e10_xhot.rows:
            assert row["det_size_exact"] == "-"
            assert row["mean_GL_estimate"] == "-"


# ----------------------------------------------------------------------
# concurrent farm-out: separate *processes* racing on one run directory
# ----------------------------------------------------------------------
class TestConcurrentShardRace:
    """Two real ``repro run --shard K/N`` processes sharing a run directory.

    The claimed mkstemp-based atomicity of manifest/checkpoint writes is
    exercised end to end here: both processes race to create the manifest
    and write their shards concurrently, and a follow-up ``--resume`` merge
    must reproduce the serial rows exactly — no torn files, no lost shards,
    no digest refusals from a half-written manifest.
    """

    SIZES = (16, 20, 24, 28, 32, 36)

    def _shard_command(self, shard, run_dir):
        import sys

        return [
            sys.executable, "-m", "repro", "run", "e2", "--preset", "quick",
            "--sizes", *[str(n) for n in self.SIZES],
            "--shard", f"{shard}/2", "--run-dir", str(run_dir), "--quiet",
        ]

    def test_two_process_shard_race_merges_to_serial(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        overrides = {"sizes": self.SIZES}
        serial = run_experiment("e2", preset="quick", overrides=overrides)
        run_dir = tmp_path / "run"
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        procs = [
            subprocess.Popen(
                self._shard_command(shard, run_dir), env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for shard in (1, 2)
        ]
        for proc in procs:
            stdout, stderr = proc.communicate(timeout=120)
            assert proc.returncode == 0, stderr.decode()
        # both processes raced on manifest creation and checkpoint writes;
        # the merge must now be complete and bit-identical to serial
        merged = run_experiment("e2", preset="quick", overrides=overrides,
                                resume=True, run_dir=run_dir)
        assert merged.pending_points == 0
        assert merged.rows == serial.rows
        shard_files = sorted(p.name for p in run_dir.glob("shard-*.json"))
        assert shard_files == ["shard-0000.json", "shard-0001.json"]
        # no leaked temp files from the atomic-write protocol
        assert not list(run_dir.glob("*.tmp"))
