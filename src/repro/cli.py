"""The ``repro`` command line: list, run, and serve the experiments.

Everything goes through the declarative registry
(:mod:`repro.experiments.registry`) and the unified runner
(:mod:`repro.experiments.runner`), so the CLI exposes exactly the sweeps the
tier-1 tests and the perfbench workloads execute::

    python -m repro list
    python -m repro run e7 --topology ad_hoc --preset hot --json out.json
    python -m repro run e3 --sizes 64 144 --seeds 1 2 --workers 4
    python -m repro run e7 --executor sharded --preset hot --run-dir runs/e7
    python -m repro run e7 --shard 2/8 --run-dir runs/e7   # farm out one shard
    python -m repro run e7 --resume --run-dir runs/e7      # finish what's left
    python -m repro run e7 --workers 4                     # coordinator + workers
    python -m repro worker --connect 127.0.0.1:8036        # join a coordinator
    python -m repro serve --port 8035                      # read-side JSON API
    python -m repro docs --check

Installed as a ``repro`` console script by ``setup.py``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.experiments.executors import (
    EXECUTOR_NAMES,
    ExecutorConfigError,
    make_executor,
    parse_shard,
)
from repro.experiments.registry import DEFAULT_PRESET, all_experiments, get_experiment
from repro.experiments.runner import run_experiment


def _build_parser() -> argparse.ArgumentParser:
    """Build the top-level ``repro`` argument parser and its subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction driver for the multimedia-network experiments "
        "(Afek, Landau, Schieber, Yung 1988).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_parser = sub.add_parser(
        "list", help="list the registered experiments and their presets"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit the registry as JSON"
    )

    run_parser = sub.add_parser(
        "run", help="run one experiment sweep and print its table"
    )
    run_parser.add_argument("experiment", help="experiment id (e1 … e13)")
    run_parser.add_argument(
        "--preset", default=DEFAULT_PRESET,
        help="parameter preset: quick, default, or hot (default: default)",
    )
    run_parser.add_argument(
        "--topology", default=None, help="topology kind override (e.g. ad_hoc)"
    )
    run_parser.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="instance sizes override"
    )
    run_parser.add_argument(
        "--seeds", type=int, nargs="+", default=None, help="algorithm seeds override"
    )
    run_parser.add_argument(
        "--adversity", default=None, metavar="NAME",
        help="adversity schedule preset (crash, loss, jam, churn); refine "
        "individual fields with --set adversity.FIELD=VALUE "
        "(e.g. --adversity loss --set adversity.loss_rate=0.2)",
    )
    run_parser.add_argument(
        "--set", dest="assignments", action="append", default=[],
        metavar="KEY=VALUE",
        help="extra parameter override; VALUE is parsed as a Python literal "
        "(e.g. --set channel_baseline=False); dotted adversity.FIELD keys "
        "build the adversity schedule",
    )
    run_parser.add_argument(
        "--executor", choices=EXECUTOR_NAMES, default=None,
        help="execution backend: serial (the default), sharded "
        "(deterministic checkpointed shards under --run-dir; implied by "
        "--shard/--resume/--run-dir), or distributed (a coordinator leasing "
        "shards to worker processes; implied by --workers/--lease-timeout)",
    )
    run_parser.add_argument(
        "--shard", type=str, default=None, metavar="K/N",
        help="execute only shard K of N (1-based) of a sharded run; "
        "shards striped over a shared --run-dir merge into one result",
    )
    run_parser.add_argument(
        "--resume", action="store_true",
        help="reuse completed shard checkpoints in the run directory and "
        "compute only what is missing",
    )
    run_parser.add_argument(
        "--run-dir", type=Path, default=None, metavar="DIR",
        help="shard checkpoint directory (default: .repro_runs/<id>-<preset>-"
        "<digest> at the repository root)",
    )
    run_parser.add_argument(
        "--workers", type=int, default=0, metavar="W",
        help="distributed backend: spawn W local worker processes and lease "
        "shards to them (remote workers join with `repro worker`)",
    )
    run_parser.add_argument(
        "--lease-timeout", type=float, default=0.0, metavar="SECONDS",
        help="distributed backend: seconds a shard lease survives without a "
        "heartbeat before it is reassigned (default: 30)",
    )
    run_parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="write the structured result (rows + params) to this JSON file",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress the rendered table"
    )

    worker_parser = sub.add_parser(
        "worker",
        help="join a distributed coordinator and compute leased shards",
    )
    worker_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="the coordinator's address (printed by `repro run --workers` "
        "with --executor distributed, or your farm tooling)",
    )
    worker_parser.add_argument(
        "--id", default=None, metavar="NAME",
        help="worker identity in coordinator logs (default: host/pid based)",
    )
    worker_parser.add_argument(
        "--max-attempts", type=int, default=8, metavar="N",
        help="reconnect attempts (with exponential backoff) before giving up",
    )

    # `serve` is dispatched before this parser runs (argparse.REMAINDER
    # cannot forward leading --options); the subparser exists so the
    # command shows up in `repro --help`.
    sub.add_parser(
        "serve",
        help="serve the experiment/run/benchmark corpus as a JSON API "
        "(see `repro serve --help`)",
    )

    docs_parser = sub.add_parser(
        "docs",
        help="regenerate docs/experiments.md from the experiment registry",
    )
    docs_parser.add_argument(
        "--output-dir", type=Path, default=None, metavar="DIR",
        help="directory to write the generated files into "
        "(default: docs/ at the repository root)",
    )
    docs_parser.add_argument(
        "--check", action="store_true",
        help="write nothing; exit 1 when any generated file is stale "
        "(the CI docs-freshness job)",
    )
    return parser


def _parse_assignment(text: str) -> tuple:
    """Split one ``KEY=VALUE`` override; the value parses as a Python literal.

    Raises:
        ValueError: when the text carries no ``=`` or no key.
    """
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"expected KEY=VALUE, got {text!r}")
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        value = raw
    return key, value


def _overrides_from(args: argparse.Namespace) -> Dict[str, Any]:
    """Collect the ``run`` subcommand's parameter overrides from its flags.

    ``--adversity NAME`` and dotted ``--set adversity.FIELD=VALUE``
    assignments merge into one ``adversity`` override mapping (the flag
    supplies the base preset name, the dotted keys refine fields on top of
    it); validation of the merged schedule happens in
    :meth:`~repro.experiments.registry.ExperimentSpec.params_for`.

    Raises:
        ValueError: on a malformed assignment (no ``=``, empty key, or an
            empty adversity field name).
    """
    overrides: Dict[str, Any] = {}
    if args.topology is not None:
        overrides["topology"] = args.topology
    if args.sizes is not None:
        overrides["sizes"] = tuple(args.sizes)
    if args.seeds is not None:
        overrides["seeds"] = tuple(args.seeds)
    adversity_fields: Dict[str, Any] = {}
    for assignment in args.assignments:
        key, value = _parse_assignment(assignment)
        if key.startswith("adversity."):
            field = key[len("adversity."):]
            if not field:
                raise ValueError(
                    f"expected adversity.FIELD=VALUE, got {assignment!r}"
                )
            adversity_fields[field] = value
        else:
            overrides[key] = value
    if args.adversity is not None:
        adversity_fields.setdefault("name", args.adversity)
    if adversity_fields:
        base = overrides.get("adversity")
        if isinstance(base, str):
            # --set adversity=loss supplies the base preset for dotted keys
            adversity_fields.setdefault("name", base)
        overrides["adversity"] = adversity_fields
    return overrides


def _command_list(args: argparse.Namespace) -> int:
    """``repro list``: print every registered spec (optionally as JSON)."""
    specs = all_experiments()
    if args.json:
        payload = [
            {
                "id": spec.id,
                "description": spec.description,
                "columns": list(spec.columns),
                "topologies": list(spec.topologies),
                "adversities": list(spec.adversities),
                "presets": {name: dict(params) for name, params in spec.presets.items()},
            }
            for spec in specs
        ]
        print(json.dumps(payload, indent=2))
        return 0
    from repro.experiments.catalog import preset_names

    for spec in specs:
        print(f"{spec.id:>4}  {spec.description}")
        for name in preset_names(spec):
            params = spec.presets[name]
            summary = ", ".join(f"{key}={value}" for key, value in params.items())
            print(f"      {name:<8} {summary}")
        if spec.topologies:
            print(f"      topologies: {', '.join(spec.topologies)}")
        if spec.adversities:
            print(f"      adversities: {', '.join(spec.adversities)}")
    return 0


def _command_docs(args: argparse.Namespace) -> int:
    """``repro docs``: (re)generate the registry-derived documentation.

    With ``--check`` nothing is written; the exit status reports whether the
    committed files match what the registry would generate now.
    """
    from repro.experiments.catalog import default_docs_dir, stale_docs, write_docs

    docs_dir = args.output_dir if args.output_dir is not None else default_docs_dir()
    if args.check:
        stale = stale_docs(docs_dir)
        if stale:
            for path in stale:
                print(f"stale: {path} (regenerate with `python -m repro docs`)",
                      file=sys.stderr)
            return 1
        print(f"docs under {docs_dir} are up to date")
        return 0
    for path in write_docs(docs_dir):
        print(f"wrote {path}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    """``repro run``: execute one sweep, print its table, optionally dump JSON."""
    # validate the user's inputs up front so a bad id/preset/override exits
    # cleanly with a usage error, while a genuine failure *inside* a sweep
    # keeps its traceback instead of masquerading as operator error
    try:
        overrides = _overrides_from(args)
        spec = get_experiment(args.experiment)
        spec.params_for(args.preset, overrides)
        backend = make_executor(
            args.executor,
            shard=parse_shard(args.shard) if args.shard is not None else None,
            resume=args.resume,
            run_dir=args.run_dir,
            workers=args.workers,
            lease_timeout=args.lease_timeout,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(
            spec, preset=args.preset, overrides=overrides, executor=backend
        )
    except ExecutorConfigError as error:
        # execution-time operator errors (foreign run directory, shard index
        # outside the layout) render as usage errors; genuine failures
        # inside a sweep keep their tracebacks
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(result.to_table().render())
    if result.pending_points:
        print(
            f"partial: {result.pending_points} sweep point(s) pending — "
            "re-run with --resume to finish",
            file=sys.stderr,
        )
    if args.json is not None:
        args.json.write_text(result.to_json())
        print(f"wrote {args.json}", file=sys.stderr)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    """``repro worker``: serve a distributed coordinator until its sweep ends."""
    from repro.experiments.distributed import (
        DistributedProtocolError,
        run_worker,
    )

    host, sep, port_text = args.connect.rpartition(":")
    try:
        if not sep or not host:
            raise ValueError("no colon")
        port = int(port_text)
    except ValueError:
        print(f"error: expected HOST:PORT, got {args.connect!r}", file=sys.stderr)
        return 2
    try:
        computed = run_worker(
            host, port, worker_id=args.id, max_attempts=args.max_attempts
        )
    except DistributedProtocolError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(f"sweep complete: this worker computed {computed} shard(s)",
          file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["serve"]:
        # delegate to the serve CLI, which owns the service options
        from repro.serve import main as serve_main

        return serve_main(argv[1:])
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list(args)
    if args.command == "docs":
        return _command_docs(args)
    if args.command == "worker":
        return _command_worker(args)
    return _command_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
