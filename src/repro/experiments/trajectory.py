"""Benchmark trajectory: registry-driven timing suite for ``BENCH_core.json``.

Runs every registered experiment (plus each spec's declared hot/topology
variants), times each sweep through the unified runner, extracts the message
counts its structured rows report, probes the largest feasible ``n`` for the
hot experiments (e2/e4/e9), and records everything under a named label in
``BENCH_core.json`` at the repository root.  Re-running with a different
label merges into the same file, so the file accumulates the performance
trajectory across PRs:

    PYTHONPATH=src python -m repro bench --label after

Labels are sequenced in the order they are first recorded; the runner writes
the per-experiment wall-clock speedup between every consecutive pair of
labels (``speedups``) in addition to the original ``speedup_before_to_after``
pair, so each PR's ≥1.5–2× targets are checked against its predecessor.

CI runs the suite in smoke mode:

    PYTHONPATH=src python -m repro bench --quick

which sweeps the ``quick`` presets, skips the max-``n`` probes, and writes
nothing (the committed ``BENCH_core.json`` trajectory is never clobbered by
CI) — it exists to prove every experiment entry point still runs end to end.

The suite itself is **not** defined here: each entry comes from the
experiment specs (the implicit ``default``/``quick`` preset per spec plus
its ``bench_extras``/``quick_extras`` variants), so the trajectory, the
pytest benches and the CLI can never drift apart.
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional

from repro.experiments.registry import all_experiments
from repro.experiments.runner import run_experiment


def default_output() -> Path:
    """Return the trajectory file path (``BENCH_core.json`` at the repo root).

    Falls back to the current working directory when the package does not
    live in a ``src/`` checkout (e.g. an installed wheel).
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "src").is_dir():
        return root / "BENCH_core.json"
    return Path.cwd() / "BENCH_core.json"


@dataclass(frozen=True)
class SuiteEntry:
    """One named, timed entry of the trajectory (or quick smoke) suite."""

    name: str
    experiment_id: str
    preset: str
    overrides: Mapping[str, object]


def suite_entries(quick: bool = False) -> List[SuiteEntry]:
    """Build the suite from the registry: one entry per spec, then variants."""
    entries = [
        SuiteEntry(spec.id, spec.id, "quick" if quick else "default", {})
        for spec in all_experiments()
    ]
    for spec in all_experiments():
        for variant in spec.quick_extras if quick else spec.bench_extras:
            entries.append(
                SuiteEntry(variant.name, spec.id, variant.preset, variant.overrides)
            )
    return entries


def _message_counts(columns, rows) -> Dict[str, List[int]]:
    """Extract the per-row message counts from the rows, when any are reported."""
    counts: Dict[str, List[int]] = {}
    for column in columns:
        name = column.lower()
        if "message" in name and "bound" not in name and "/" not in name:
            counts[column] = [row[column] for row in rows]
    return counts


def run_suite(
    only: Optional[List[str]] = None,
    quick: bool = False,
) -> Dict[str, Dict[str, object]]:
    """Run (a subset of) the suite serially and return per-experiment stats.

    Every sweep runs on the serial backend, so ``wall_seconds`` measures the
    algorithm alone and stays comparable across labels.

    Args:
        only: restrict to these entry names (``None`` runs everything).
        quick: sweep the ``quick`` presets (the CI smoke suite).
    """
    results: Dict[str, Dict[str, object]] = {}
    for entry in suite_entries(quick):
        if only and entry.name not in only:
            continue
        result = run_experiment(
            entry.experiment_id, preset=entry.preset, overrides=entry.overrides
        )
        first_column = result.columns[0]
        ns = [row[first_column] for row in result.rows]
        results[entry.name] = {
            "wall_seconds": round(result.wall_seconds, 4),
            "sweep_max_n": max(ns) if ns else None,
            "messages": _message_counts(result.columns, result.rows),
        }
        print(
            f"{entry.name:>16}: {result.wall_seconds:8.3f}s  "
            f"(max n = {results[entry.name]['sweep_max_n']})"
        )
    return results


# ----------------------------------------------------------------------
# max-feasible-n probes for the hot experiments
# ----------------------------------------------------------------------
def _probe(
    single_run: Callable[[int], None],
    start_n: int,
    budget: float,
    retries: int = 2,
) -> Dict[str, object]:
    """Double ``n`` until one run exceeds ``budget`` seconds; report the last fit.

    A size is declared infeasible only on the *minimum* of up to
    ``1 + retries`` timings.  Wall-clock noise on a shared host is one-sided
    (a run can be measured slower than the algorithm, never faster), so a
    single overshoot near the boundary carries no information about the
    size itself; re-timing on overshoot keeps the committed value stable
    across runners instead of flapping between adjacent powers of two
    (e4's historical 32768-vs-65536 jitter on the 2 s boundary).  Re-timing
    only happens inside the jitter window (under ``2 * budget``): a gross
    overshoot is already conclusive — host jitter does not double a
    runtime — and the terminal doubling step typically overshoots by a
    large factor, so re-timing it would triple the probe's most expensive
    run for nothing.  Sizes that fit on their first timing cost one run,
    exactly as before.
    """
    n = start_n
    feasible = None
    feasible_seconds = None
    while n <= 2 ** 22:
        best = None
        for _ in range(1 + retries):
            start = time.perf_counter()
            single_run(n)
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
            if best <= budget or best >= 2 * budget:
                break
        if best > budget:
            break
        feasible = n
        feasible_seconds = round(best, 4)
        n *= 2
    return {
        "max_feasible_n": feasible,
        "seconds_at_max": feasible_seconds,
        "budget_seconds": budget,
    }


def probe_max_n(budget: float) -> Dict[str, Dict[str, object]]:
    """Probe the largest single-instance ``n`` each hot experiment can afford."""
    from repro.core.mst.multimedia_mst import MultimediaMST
    from repro.core.partition.deterministic import DeterministicPartitioner
    from repro.core.partition.randomized import RandomizedPartitioner
    from repro.experiments.harness import make_topology

    def det(n: int) -> None:
        DeterministicPartitioner(make_topology("grid", n, seed=11)).run()

    def rand(n: int) -> None:
        RandomizedPartitioner(
            make_topology("grid", n, seed=11), seed=1, las_vegas=True
        ).run()

    def mst(n: int) -> None:
        MultimediaMST(make_topology("ring", n, seed=11)).run()

    probes = {}
    for name, fn in (("e2", det), ("e4", rand), ("e9", mst)):
        probes[name] = _probe(fn, 64, budget)
        print(f"{name:>16}: max feasible n = {probes[name]['max_feasible_n']} "
              f"({probes[name]['seconds_at_max']}s/run, budget {budget}s)")
    return probes


# ----------------------------------------------------------------------
# JSON trajectory file
# ----------------------------------------------------------------------
def pair_speedups(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, float]:
    """Per-experiment wall-clock speedups between two recorded runs.

    Entries that carry no timing on either side are skipped — probe-only
    entries (a ``--only`` run still writes the e2/e4/e9 max-``n`` probes)
    have no ``wall_seconds``.  Public because ``repro serve``'s diff
    endpoint computes the same comparison on demand for arbitrary label
    pairs.
    """
    speedups = {}
    for name, before_entry in before.items():
        before_seconds = before_entry.get("wall_seconds")
        after_seconds = after.get(name, {}).get("wall_seconds")
        if before_seconds and after_seconds:
            speedups[name] = round(before_seconds / after_seconds, 2)
    return speedups


def label_order(runs: Dict[str, Dict[str, object]]) -> List[str]:
    """Trajectory labels ordered by recorded sequence (oldest first)."""
    return sorted(runs, key=lambda label: runs[label].get("sequence", 0))


def _chain_speedups(runs: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """Speedups between every consecutive pair of labels (by sequence)."""
    ordered = label_order(runs)
    chain: Dict[str, Dict[str, float]] = {}
    for earlier, later in zip(ordered, ordered[1:]):
        chain[f"{earlier}->{later}"] = pair_speedups(
            runs[earlier].get("experiments", {}), runs[later].get("experiments", {})
        )
    return chain


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro bench``)."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the experiment suite and merge into BENCH_core.json.",
    )
    parser.add_argument("--label", default="after",
                        help="name this run is recorded under (e.g. before/after)")
    parser.add_argument("--output", type=Path, default=None,
                        help="trajectory JSON file to merge into "
                             "(default: BENCH_core.json at the repo root)")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only these experiments (e.g. --only e2 e4 e9)")
    parser.add_argument("--probe-budget", type=float, default=2.0,
                        help="per-run seconds allowed by the max-n probes (0 disables)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: quick presets, no probes, and no "
                             "write to BENCH_core.json unless --output is given")
    parser.add_argument("--note", default="", help="free-form note stored with the run")
    args = parser.parse_args(argv)

    if args.only:
        known = {entry.name for entry in suite_entries(args.quick)}
        unknown = set(args.only) - known
        if unknown:
            parser.error(f"unknown experiment(s): {', '.join(sorted(unknown))}")
    experiments = run_suite(args.only, quick=args.quick)
    run_probes = args.probe_budget > 0 and not args.quick
    probes = probe_max_n(args.probe_budget) if run_probes else {}
    for name, probe in probes.items():
        experiments.setdefault(name, {}).update(probe)

    if args.quick and args.output is None:
        print("quick mode: smoke run complete, trajectory file left untouched")
        return 0
    output = args.output if args.output is not None else default_output()

    data: Dict[str, object] = {"schema": 1, "runs": {}}
    if output.exists():
        data = json.loads(output.read_text())
    runs = data.setdefault("runs", {})
    # legacy trajectory files predate the sequence field; the original two
    # labels are known to be PR 0 ("before") and PR 1 ("after")
    for legacy_sequence, legacy_label in enumerate(("before", "after"), start=1):
        if legacy_label in runs and "sequence" not in runs[legacy_label]:
            runs[legacy_label]["sequence"] = legacy_sequence
    previous = runs.get(args.label, {})
    note = args.note
    if args.only:
        # a targeted re-run refreshes just the selected experiments and the
        # probe fields; the label's other recorded entries — and, within a
        # refreshed entry, the fields this run did not measure (a probe-only
        # e2/e4/e9 entry must not erase a stored full sweep) — survive, as
        # does the stored note unless a new one is given
        combined = {
            name: dict(entry)
            for name, entry in previous.get("experiments", {}).items()
        }
        for name, entry in experiments.items():
            combined.setdefault(name, {}).update(entry)
        experiments = combined
        note = args.note or previous.get("note", "")
    sequence = previous.get(
        "sequence",
        1 + max((run.get("sequence", 0) for run in runs.values()), default=0),
    )
    runs[args.label] = {
        "note": note,
        "python": platform.python_version(),
        "sequence": sequence,
        "experiments": experiments,
    }
    if "before" in runs and "after" in runs:
        data["speedup_before_to_after"] = pair_speedups(
            runs["before"].get("experiments", {}),
            runs["after"].get("experiments", {}),
        )
    data["speedups"] = _chain_speedups(runs)
    output.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output} (label={args.label!r})")
    for pair, speedups in data["speedups"].items():
        if speedups:
            print(f"speedups {pair}: {speedups}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
