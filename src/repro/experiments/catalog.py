"""Registry-generated experiment catalog (the ``repro docs`` subcommand).

The experiment registry (:mod:`repro.experiments.registry`) is the single
source of truth for what each experiment sweeps — presets, topology kinds,
row schema.  This module renders that registry into ``docs/experiments.md``
so the documentation can never drift from the code: CI re-generates the
file and fails when the committed copy is stale.

The output is deterministic: specs are rendered in registry order
(``e1`` … ``e13``), presets in their canonical ``quick``/``default``/``hot``
order, and parameters in the insertion order of the spec literals, so the
same registry always produces byte-identical markdown.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Mapping

from repro.experiments.executors import checkout_path
from repro.experiments.registry import (
    REQUIRED_PRESETS,
    ExperimentSpec,
    all_experiments,
)

GENERATED_HEADER = (
    "<!-- Generated by `python -m repro docs`; edit the experiment specs, "
    "not this file. -->"
)

#: Wall-clock guidance per preset tier, rendered into the catalog so the
#: budget a preset is held to is written next to the preset itself.  The
#: tier-1 suite runs every ``quick`` preset whole; ``hot`` sweeps make up
#: most of the perfbench workloads; ``xhot`` is the scale-probe budget the
#: CI xhot smoke checks explicitly (see docs/performance.md).
PRESET_BUDGETS: Dict[str, str] = {
    "quick": "≤ 1 s/point (tier-1 tests)",
    "default": "seconds (interactive)",
    "hot": "≤ 60 s/run (benchmark)",
    "xhot": "≤ 10 s/run (scale probe)",
}


def preset_budget(name: str) -> str:
    """Return the wall-clock guidance for a preset tier (``—`` if unknown)."""
    return PRESET_BUDGETS.get(name, "—")


def _format_value(value: object) -> str:
    """Render one parameter value as it appears in the spec literal."""
    return repr(value)


def _format_params(params: Mapping[str, object]) -> str:
    """Render a preset's parameters as inline code, in declaration order."""
    if not params:
        return "—"
    return ", ".join(
        f"`{key}={_format_value(value)}`" for key, value in params.items()
    )


def preset_names(spec: ExperimentSpec) -> List[str]:
    """Return the spec's preset names: canonical order first, extras after.

    The canonical ``quick``/``default``/``hot`` triple leads; any extra
    presets (e.g. the ``xhot`` scale probes) follow in declaration order.
    """
    names = list(REQUIRED_PRESETS)
    names.extend(name for name in spec.presets if name not in REQUIRED_PRESETS)
    return names


def _preset_shape(spec: ExperimentSpec, name: str) -> Dict[str, object]:
    """Return a preset's executor-relevant size facts.

    ``points`` is the number of sweep points the preset expands to — the
    finest shard granularity a ``--executor sharded`` run of that preset can
    checkpoint at — and ``max_n`` is the largest instance size among them
    (``None`` when the sweep is not sized by ``n``, e.g. e8's ray shapes).
    """
    points = spec.points(spec.params_for(name))
    ns = [point["n"] for point in points if "n" in point]
    return {"points": len(points), "max_n": max(ns) if ns else None}


def _spec_section(spec: ExperimentSpec) -> List[str]:
    """Render one experiment's catalog section."""
    lines = [f"## {spec.id} — {spec.description}", ""]
    lines.append("| preset | points | max n | budget | parameters |")
    lines.append("|--------|--------|-------|--------|------------|")
    for name in preset_names(spec):
        shape = _preset_shape(spec, name)
        max_n = "—" if shape["max_n"] is None else str(shape["max_n"])
        lines.append(
            f"| `{name}` | {shape['points']} | {max_n} | {preset_budget(name)} | "
            f"{_format_params(spec.presets[name])} |"
        )
    lines.append("")
    if spec.topologies:
        kinds = ", ".join(f"`{kind}`" for kind in spec.topologies)
        lines.append(f"**Topology kinds:** {kinds}")
        lines.append("")
    if spec.adversities:
        names = ", ".join(f"`{name}`" for name in spec.adversities)
        lines.append(
            f"**Adversity presets:** {names} "
            "(`--adversity NAME`, refined via `--set adversity.FIELD=VALUE`; "
            "see the \"Adversity model\" section of "
            "[architecture.md](architecture.md))"
        )
        lines.append("")
    columns = ", ".join(f"`{column}`" for column in spec.columns)
    lines.append(f"**Row schema:** {columns}")
    lines.append("")
    return lines


def experiments_markdown() -> str:
    """Return the full, deterministic ``docs/experiments.md`` content."""
    lines = [
        GENERATED_HEADER,
        "",
        "# Experiment catalog",
        "",
        "One entry per registered experiment spec: its parameter presets,",
        "supported topology kinds and row schema.  Run any of them with",
        "`python -m repro run <id> [--preset P] [--topology T]`;",
        "see `python -m repro list` for the same data at the terminal.",
        "",
        "The *points* column is the number of sweep points a preset expands",
        "to — the finest shard granularity a `--executor sharded` run of",
        "that preset can checkpoint and resume at — and *max n* is its",
        "largest instance size (see the \"Execution backends\" section of",
        "[architecture.md](architecture.md)).  *Budget* is the wall-clock",
        "guidance the preset tier is held to — see",
        "[performance.md](performance.md) for how the budgets are enforced.",
        "",
    ]
    for spec in all_experiments():
        lines.extend(_spec_section(spec))
    # exactly one trailing newline
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


def default_docs_dir() -> Path:
    """Return the ``docs/`` directory under :func:`checkout_path`'s root."""
    return checkout_path("docs")


def generated_files(docs_dir: Path) -> Dict[Path, str]:
    """Map each generated file path to its freshly rendered content."""
    return {docs_dir / "experiments.md": experiments_markdown()}


def write_docs(docs_dir: Path) -> List[Path]:
    """Write every generated documentation file; returns the paths written."""
    written = []
    for path, content in generated_files(docs_dir).items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
        written.append(path)
    return written


def stale_docs(docs_dir: Path) -> List[Path]:
    """Return the generated files whose on-disk copy is missing or outdated."""
    stale = []
    for path, content in generated_files(docs_dir).items():
        if not path.exists() or path.read_text() != content:
            stale.append(path)
    return stale
