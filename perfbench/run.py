#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload breadth_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics (set-up time, warm untraced wall
time, peak memory, the share of points that passed every row check and the
share whose rows equal the recorded reference rows).  ``--trace 1`` runs the
workload once untraced and once with every layer entry point wrapped, and
prints the per-layer split.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--seed`` fixes the order the workload's sweeps run in; the rows do not
depend on it.  ``--workload-seed`` re-seeds the generated topologies (a
held-out input set); ``--record`` stores the rows as the workload's
reference.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import WORKLOADS, Sweep, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
SETUP_RUNS = 7

# what a cold process does before its first point is ready: the
# interpreter, `import repro`, the registry load and the point expansion
SETUP_CODE = """
import json, sys
from repro.experiments.registry import get_experiment
spec = get_experiment(sys.argv[1])
spec.points(spec.params_for(sys.argv[2], json.loads(sys.argv[3])))
"""

# Host-speed correction.  On a shared host the process loses the CPU to other
# tenants (stolen vCPU time, run-queue waits) and, while it runs, the CPU
# switches between speed states within seconds to minutes.  CPU-bound times
# are therefore taken as on-CPU seconds (which leave out the time the process
# did not run) and rescaled to a reference speed: a fixed, allocation-free
# pure-Python probe is timed, also in on-CPU seconds, every PROBE_INTERVAL_S
# of wall time while the workload runs (from SIGALRM, so the samples cover
# exactly the measured interval); its relative speed PROBE_REFERENCE_S / probe
# seconds, averaged over the samples and raised to PROBE_EXPONENT, scales the
# on-CPU seconds.  The probe stays in L1, and the slow states cost the
# workloads' memory reads more than they cost the probe: fitted on the
# recording host, workload time goes as probe speed to the power -1.2.
PROBE_INTERVAL_S = 0.02
PROBE_REFERENCE_S = 0.0002
PROBE_EXPONENT = 1.2
SETUP_PROBES = 20
_PROBE_KEYS = [(i * 37) & 255 for i in range(1024)]
_PROBE_TABLE = {key: 0 for key in range(256)}

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
    "ok_frac": "ratio", "rows_unchanged_frac": "ratio",
}


def probe_sample() -> float:
    """On-CPU seconds the fixed probe takes now.

    Every value it computes is a cached small int, so it allocates nothing
    and its time does not depend on the state of the workload's heap.
    """
    table = _PROBE_TABLE
    start = time.thread_time()
    for _ in range(4):
        for key in _PROBE_KEYS:
            table[key] ^= key
    return time.thread_time() - start


def speed_factor(samples: List[float]) -> float:
    """Mean relative host speed over ``samples`` to ``PROBE_EXPONENT`` (or 1.0)."""
    if not samples:
        return 1.0
    speed = statistics.fmean(PROBE_REFERENCE_S / sample for sample in samples)
    return speed ** PROBE_EXPONENT


class SpeedSampler:
    """Takes a probe sample every ``PROBE_INTERVAL_S`` while it is entered."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(probe_sample())

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


@dataclass
class SweepOutcome:
    """What one ``run_experiment`` call produced."""

    sweep: Sweep
    seconds: float
    cpu_seconds: float = 0.0
    compute_seconds: float = 0.0
    rows: List[Dict[str, Any]] = field(default_factory=list)
    columns: tuple = ()
    error: str = ""
    checkpoint_bytes: int = 0
    tail_seconds: float = 0.0


def run_sweep(sweep: Sweep, workers: int, last_write: List[float]) -> SweepOutcome:
    """Run one sweep through ``run_experiment``; never raises."""
    from repro.experiments.runner import run_experiment

    options: Dict[str, Any] = {}
    run_dir = None
    if workers:
        TMP_ROOT.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{sweep.label}-", dir=TMP_ROOT))
        options = {"executor": "distributed", "workers": workers, "run_dir": run_dir}
    last_write[0] = 0.0
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        result = run_experiment(
            sweep.experiment, sweep.preset, dict(sweep.overrides), **options
        )
    except Exception:  # a failing sweep is counted, reported and survived
        outcome = SweepOutcome(
            sweep, time.perf_counter() - start, error=traceback.format_exc()
        )
    else:
        end = time.perf_counter()
        outcome = SweepOutcome(
            sweep, end - start,
            cpu_seconds=time.process_time() - cpu_start,
            compute_seconds=result.wall_seconds,
            rows=result.rows, columns=result.columns,
            tail_seconds=end - last_write[0] if last_write[0] else 0.0,
        )
    if run_dir is not None:
        outcome.checkpoint_bytes = sum(
            path.stat().st_size for path in run_dir.iterdir()
        )
        shutil.rmtree(run_dir)
    return outcome


def run_iteration(
    workload: Workload, order: List[Sweep], last_write: List[float]
) -> List[SweepOutcome]:
    """Run every sweep of ``workload`` once, in ``order``, each from a collected heap."""
    outcomes = []
    for sweep in order:
        gc.collect()
        outcomes.append(run_sweep(sweep, workload.workers, last_write))
    return outcomes


@dataclass
class Tally:
    """Point-level check results accumulated over iterations."""

    attempted: int = 0
    failed: int = 0
    unchanged: int = 0
    problems: List[str] = field(default_factory=list)


def check(
    outcomes: List[SweepOutcome],
    point_counts: Dict[str, int],
    reference: Optional[Dict[str, List[str]]],
    tally: Tally,
) -> None:
    """Check one iteration's rows and add them to ``tally``."""
    from rows import canonical, row_problems

    for outcome in outcomes:
        label = outcome.sweep.label
        expected = point_counts[label]
        tally.attempted += expected
        if outcome.error:
            tally.failed += expected
            tally.problems.append(f"{label}: raised\n{outcome.error}")
            continue
        missing = expected - len(outcome.rows)
        if missing:
            tally.failed += missing
            tally.problems.append(f"{label}: {missing} point(s) without a row")
        for index, row in enumerate(outcome.rows):
            problems = row_problems(row, outcome.columns, outcome.sweep.faulty)
            if problems:
                tally.failed += 1
                tally.problems.append(f"{label}[{index}]: {'; '.join(problems)}")
            if reference is not None:
                ref = reference.get(label, [])
                if index < len(ref) and ref[index] == canonical(row):
                    tally.unchanged += 1


def warm_up(workload: Workload) -> None:
    """Load the code every sweep runs by running its ``quick`` preset once."""
    from repro.experiments.runner import run_experiment

    done = set()
    for sweep in workload.sweeps:
        overrides = {k: v for k, v in sweep.overrides.items() if k != "sizes"}
        key = (sweep.experiment, json.dumps(overrides, sort_keys=True))
        if key not in done:
            done.add(key)
            run_experiment(sweep.experiment, "quick", overrides)


def children_cpu() -> float:
    """On-CPU seconds of every waited-for child so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(sweep: Sweep) -> Tuple[float, List[float]]:
    """Return the median cold-start on-CPU seconds and the probe samples taken."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [
        sys.executable, "-c", SETUP_CODE, sweep.experiment, sweep.preset,
        json.dumps(dict(sweep.overrides)),
    ]
    samples: List[float] = []
    probes: List[float] = []
    for attempt in range(SETUP_RUNS + 1):
        probes.extend(probe_sample() for _ in range(SETUP_PROBES))
        start = children_cpu()
        subprocess.run(argv, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        if attempt:  # the first run only fills the bytecode cache
            samples.append(children_cpu() - start)
    return statistics.median(samples), probes


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child, MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def checkpoint_patch(last_write: List[float]) -> Callable[[Callable], Callable]:
    """Wrapper factory stamping the end of every checkpoint write."""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            last_write[0] = time.perf_counter()
            return result

        return wrapper

    return make


def wall(outcomes: List[SweepOutcome]) -> float:
    """Host seconds spent inside the iteration's ``run_experiment`` calls."""
    return sum(outcome.seconds for outcome in outcomes)


def executor_metrics(outcomes: List[SweepOutcome], workers: int) -> Dict[str, float]:
    """Executor overhead, tail and checkpoint bytes of one iteration."""
    return {
        "executors.overhead.s": sum(
            o.seconds - o.compute_seconds / max(1, workers) for o in outcomes
        ),
        "executors.tail.s": sum(o.tail_seconds for o in outcomes),
        "executors.checkpoint_bytes": float(
            sum(o.checkpoint_bytes for o in outcomes)
        ),
    }


def print_layers(recorder: Any) -> None:
    """Print the traced run's per-layer calls and self time."""
    print(f"{'layer':32} {'calls':>8} {'self s':>10}")
    for layer in sorted(recorder.self_seconds, key=recorder.self_seconds.get,
                        reverse=True):
        print(f"{layer:32} {recorder.calls[layer]:8d} "
              f"{recorder.self_seconds[layer]:10.4f}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: fixes the order the sweeps run in")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole iterations for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload-seed", type=int, default=None,
                        help="re-seed make_topology's graphs (held-out inputs)")
    parser.add_argument("--record", action="store_true",
                        help="run once and store the rows as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rows as rowcheck
    import tracer
    from repro.experiments.registry import get_experiment

    workload = WORKLOADS[args.workload]
    labels = [sweep.label for sweep in workload.sweeps]
    point_counts = {}
    for sweep in workload.sweeps:
        spec = get_experiment(sweep.experiment)
        point_counts[sweep.label] = len(
            spec.points(spec.params_for(sweep.preset, dict(sweep.overrides)))
        )
    reference_file = rowcheck.reference_path(workload.name, args.workload_seed)
    reference = None if args.record else rowcheck.load_reference(reference_file)
    if reference is None and not args.record:
        print(f"note: no reference rows at {reference_file}", file=sys.stderr)

    measuring = not args.trace and not args.record
    if measuring:
        setup_cpu, setup_probes = measure_setup(workload.sweeps[0])
    # the fanout's wall is mostly fixed waits (lease polling, the executor's
    # join timeout), which do not scale with host speed: it stays raw
    correcting = measuring and not workload.workers

    patches = tracer.Patches()
    last_write = [0.0]
    try:
        if args.workload_seed is not None:
            tracer.install_reseed(patches, args.workload_seed)
        else:
            tracer.assert_unwrapped()
        warm_up(workload)
        rng = random.Random(args.seed)
        tally = Tally()
        walls: List[float] = []
        cpus: List[float] = []
        factors: List[float] = []
        started = time.perf_counter()
        while True:
            order = rng.sample(list(workload.sweeps), len(workload.sweeps))
            sampler = SpeedSampler()
            with sampler if correcting else contextlib.nullcontext():
                last = run_iteration(workload, order, last_write)
            walls.append(wall(last))
            cpus.append(sum(outcome.cpu_seconds for outcome in last))
            factors.append(speed_factor(sampler.samples))
            check(last, point_counts, reference, tally)
            spent = time.perf_counter() - started
            if not measuring or spent + statistics.median(walls) > args.seconds:
                break

        recorder = tracer.SpanRecorder()
        if args.trace:
            if not workload.workers:
                tracer.install_layers(patches, recorder)
            patches.replace("repro.experiments.executors", "write_checkpoint",
                            checkpoint_patch(last_write))
            last = run_iteration(workload, order, last_write)
            check(last, point_counts, reference, tally)
    finally:
        patches.restore()
    tracer.assert_unwrapped()

    by_label = {o.sweep.label: o.rows for o in last if not o.error}
    print(f"workload {workload.name}  seed {args.seed}  "
          f"workload_seed {args.workload_seed}  iterations {len(walls)}")
    print(f"rows sha256 {rowcheck.digest(by_label, labels)}")
    for problem in tally.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    if args.record:
        if tally.failed:
            return 1
        rowcheck.write_reference(reference_file, workload.name, args.workload_seed,
                                 by_label, labels)
        print(f"recorded {reference_file}")
        return 0
    if reference is not None and tally.unchanged < tally.attempted:
        print(f"rows differ from {reference_file}: "
              f"{tally.attempted - tally.unchanged} of {tally.attempted} points",
              file=sys.stderr)

    if args.trace:
        values = tracer.layer_metrics(recorder)
        values.update(executor_metrics(last, workload.workers))
        traced = wall(last)
        values["trace.wall.s"] = traced
        values["trace.overhead.s"] = traced - walls[-1]
        values["trace.unattributed.s"] = traced - sum(recorder.self_seconds.values())
        units = tracer.UNITS
        print_layers(recorder)
    else:
        setup_factor = speed_factor(setup_probes)
        print(f"setup {setup_cpu:.4f} s on CPU (speed factor {setup_factor:.4f})")
        for raw, cpu, factor in zip(walls, cpus, factors):
            print(f"iteration {raw:.4f} s wall, {cpu:.4f} s on CPU "
                  f"(speed factor {factor:.4f})")
        timed = [cpu * factor for cpu, factor in zip(cpus, factors)]
        values = {
            "setup_s": setup_cpu * setup_factor,
            "wall_s": statistics.median(timed if correcting else walls),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": 1.0 - tally.failed / tally.attempted,
            "rows_unchanged_frac": (
                tally.unchanged / tally.attempted if reference is not None else None
            ),
        }
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": value, "unit": units.get(name, "s")}
        for name, value in values.items()
    }
    for name, metric in metrics.items():
        print(f"{name:36} {metric['value']!s:>24} {metric['unit']}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    if TMP_ROOT.is_dir() and not any(TMP_ROOT.iterdir()):
        TMP_ROOT.rmdir()
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
