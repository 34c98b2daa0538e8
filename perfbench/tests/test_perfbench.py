"""Tests of the benchmark itself: workloads, tracer, row checks, contract.

Run from the repository root with::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import rows  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.experiments.registry import get_experiment  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _traced(sweeps):
    """Run ``(experiment, preset, overrides)`` sweeps traced; return (recorder, wall)."""
    recorder = tracer.SpanRecorder()
    with tracer.Patches() as patches:
        tracer.install_layers(patches, recorder)
        start = time.perf_counter()
        for experiment, preset, overrides in sweeps:
            run_experiment(experiment, preset, overrides)
        wall = time.perf_counter() - start
    return recorder, wall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_resolves_to_registered_specs(name):
    workload = WORKLOADS[name]
    labels = [sweep.label for sweep in workload.sweeps]
    assert len(labels) == len(set(labels))
    for sweep in workload.sweeps:
        spec = get_experiment(sweep.experiment)
        assert sweep.preset in spec.presets
        assert spec.points(spec.params_for(sweep.preset, dict(sweep.overrides)))
        if "adversity" in sweep.overrides:
            assert sweep.faulty


def test_breadth_sweep_has_77_points_and_covers_fanout():
    def count(workload):
        return sum(
            len(spec.points(spec.params_for(s.preset, dict(s.overrides))))
            for s in WORKLOADS[workload].sweeps
            for spec in [get_experiment(s.experiment)]
        )

    assert count("breadth_sweep") == 77
    breadth = {s.label: s for s in WORKLOADS["breadth_sweep"].sweeps}
    for sweep in WORKLOADS["fanout_sweep"].sweeps:
        assert breadth[sweep.label] == sweep


def test_contract_names_the_workloads_and_metrics():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in CONTRACT["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb", "ok_frac", "rows_unchanged_frac",
    ]
    emitted = set(tracer.layer_metrics(tracer.SpanRecorder()))
    emitted |= {"executors.overhead.s", "executors.tail.s",
                "executors.checkpoint_bytes", "trace.wall.s",
                "trace.overhead.s", "trace.unattributed.s"}
    assert {m["name"] for m in CONTRACT["per_layer"]} == emitted


def test_fanout_rows_equal_breadth_rows_for_shared_points():
    breadth = rows.load_reference(rows.reference_path("breadth_sweep", None))
    fanout = rows.load_reference(rows.reference_path("fanout_sweep", None))
    assert set(fanout) == {"e9_hot", "e12_hot", "e13_hot"}
    for label, canonical_rows in fanout.items():
        assert canonical_rows == breadth[label]


def test_wrappers_reach_consumers_and_are_gone_after_a_traced_run():
    from repro.experiments import e07_model_separation, harness
    from repro.core.global_function import multimedia

    originals = (harness.make_topology, e07_model_separation.topology_diameter,
                 multimedia.run_contention)
    recorder = tracer.SpanRecorder()
    with tracer.Patches() as patches:
        tracer.install_layers(patches, recorder)
        assert harness.make_topology is not originals[0]
        assert e07_model_separation.topology_diameter is not originals[1]
        assert multimedia.run_contention is not originals[2]
        assert e07_model_separation.make_topology is harness.make_topology
        assert tracer.wrapped_names()
        run_experiment("e7", "quick", {"channel_baseline": False})
    assert tracer.wrapped_names() == []
    tracer.assert_unwrapped()
    assert (harness.make_topology, e07_model_separation.topology_diameter,
            multimedia.run_contention) == originals
    assert recorder.calls["topology.generate"] > 0
    assert recorder.calls["sim.multimedia"] > 0


def test_traced_rows_equal_untraced_rows():
    plain = run_experiment("e9", "quick").rows
    recorder = tracer.SpanRecorder()
    with tracer.Patches() as patches:
        tracer.install_layers(patches, recorder)
        traced = run_experiment("e9", "quick").rows
    assert [rows.canonical(r) for r in traced] == [rows.canonical(r) for r in plain]
    assert recorder.calls["mst.multimedia"] == len(plain)


def test_self_times_sum_to_no_more_than_traced_wall():
    recorder, wall = _traced([
        ("e7", "quick", {}), ("e9", "quick", {}), ("e10", "quick", {}),
        ("e12", "quick", {}), ("e13", "quick", {"adversity": "loss"}),
    ])
    total = sum(recorder.self_seconds.values())
    assert 0 < total <= wall
    assert all(seconds >= 0 for seconds in recorder.self_seconds.values())
    metrics = tracer.layer_metrics(recorder)
    assert metrics["sim.walks.s"] > 0 and metrics["dissemination.s"] > 0
    assert metrics["topology.nodes"] > 0 and metrics["sim.multimedia.msgs"] > 0
    for name, parent, duration in recorder.spans:
        assert duration >= 0 and (parent is None or parent in recorder.calls)


def test_span_self_time_excludes_children():
    recorder = tracer.SpanRecorder()
    recorder.enter("outer")
    recorder.enter("inner")
    time.sleep(0.02)
    assert recorder.exit() is True
    assert recorder.exit() is True
    assert recorder.self_seconds["outer"] < recorder.self_seconds["inner"]
    assert recorder.spans[0][:2] == ("inner", "outer")
    assert recorder.spans[1][:2] == ("outer", None)


def test_aborts_are_counted_once():
    recorder = tracer.SpanRecorder()
    error = ValueError("abort")
    recorder.abort(error)
    recorder.abort(error)
    assert recorder.counts["sim.aborts"] == 1


def test_held_out_workload_seed_reseeds_only_make_topology():
    from repro.experiments.harness import make_topology

    base = sorted(make_topology("scale_free", 64, seed=11).edges())
    with tracer.Patches() as patches:
        tracer.install_reseed(patches, 7)
        from repro.experiments import e05_global_deterministic as e05

        held_out = sorted(e05.make_topology("scale_free", 64, seed=11).edges())
        again = sorted(e05.make_topology("scale_free", 64, seed=11).edges())
    assert held_out != base and held_out == again
    assert sorted(make_topology("scale_free", 64, seed=11).edges()) == base
    tracer.assert_unwrapped()


@pytest.mark.parametrize(
    "row,faulty,problem",
    [
        ({"matches_kruskal": False}, False, "matches_kruskal"),
        ({"det_size_exact": False}, False, "det_size_exact"),
        ({rows.SYNC_OVERHEAD: 2.5}, False, "sync_msg_overhead"),
        ({"status": "abort:both"}, False, "abort"),
    ],
)
def test_row_checks_reject_bad_rows(row, faulty, problem):
    problems = rows.row_problems(row, list(row), faulty)
    assert problems and problem in problems[0]


def test_row_checks_accept_good_rows_and_faulty_aborts():
    assert rows.row_problems({"det_size_exact": "-", rows.SYNC_OVERHEAD: 2.0},
                             ["det_size_exact", rows.SYNC_OVERHEAD], False) == []
    assert rows.row_problems({"status": "abort:p2p", rows.SYNC_OVERHEAD: "abort"},
                             ["status", rows.SYNC_OVERHEAD], True) == []
    assert rows.row_problems({"n": 1}, ["n", "m"], False)[0].startswith("schema")


def test_digest_ignores_tuple_versus_list_and_key_order():
    a = {"x": (1, 2), "y": float("inf")}
    b = {"y": float("inf"), "x": [1, 2]}
    assert rows.digest({"s": [a]}, ["s"]) == rows.digest({"s": [b]}, ["s"])


def test_speed_sampler_samples_while_entered_and_restores_the_handler():
    import run

    before = signal.getsignal(signal.SIGALRM)
    with run.SpeedSampler() as sampler:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert run.speed_factor([run.PROBE_REFERENCE_S / 2] * 3) == pytest.approx(
        2.0 ** run.PROBE_EXPONENT
    )
    assert run.speed_factor([]) == 1.0


def test_without_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adversity_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
