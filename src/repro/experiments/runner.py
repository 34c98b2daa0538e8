"""Unified experiment runner: one code path from spec to structured result.

:func:`run_experiment` resolves an :class:`~repro.experiments.registry.ExperimentSpec`
(by id or directly), expands the chosen preset into sweep points, hands them
to an execution backend (see :mod:`repro.experiments.executors` — serial,
sharded/checkpointed, or distributed), and returns an
:class:`ExperimentResult` holding the structured row dictionaries.  The
result renders to the exact plain-text :class:`~repro.analysis.reporting.Table`
the experiment modules historically printed **and** serializes to JSON, so
the CLI, the tier-1 tests, CI and the perfbench workloads all consume the
same records instead of scraping rendered tables.

Backend determinism: every sweep point carries its own seeds (see
:mod:`repro.experiments.registry`), so a sharded or distributed run computes
exactly the rows a serial run computes, in the same order — guarded by
``tests/test_experiment_registry.py`` and ``tests/test_executors.py``.

Result schema history
---------------------
* schema 1 — ``wall_seconds`` was the invocation's wall clock.
* schema 2 — ``wall_seconds`` is the **accumulated compute time** of every
  shard that contributed rows (for a resumed sharded run this spans earlier
  invocations); ``invocation_seconds`` records the final invocation's own
  wall clock, and ``pending_points``/``executor`` record completeness and
  provenance.  The package writes result files and reads none back; the
  test suite's loader (``tests/oracles.py:load_result``) still reads schema
  1, taking ``invocation_seconds`` from the stored ``wall_seconds``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.analysis.reporting import Table, table_from_records
from repro.experiments.executors import Executor, make_executor
from repro.experiments.serialization import jsonable
from repro.experiments.registry import (
    DEFAULT_PRESET,
    ExperimentSpec,
    get_experiment,
)

RESULT_SCHEMA = 2


@dataclass
class ExperimentResult:
    """The structured outcome of one experiment sweep.

    Attributes:
        experiment_id: the spec id (``e1`` … ``e13``).
        title: rendered table title for the resolved parameters.
        columns: row schema, in rendering order.
        rows: one dict per completed sweep point, keyed by ``columns`` (a
            partial sharded run holds only the completed shards' rows).
        params: the resolved parameters the sweep ran with.
        preset: the preset the parameters were based on.
        wall_seconds: accumulated compute seconds across every shard that
            contributed rows — for a resumed/merged sharded run this spans
            all contributing invocations; for a serial run it is this
            invocation's sweep time.
        invocation_seconds: wall clock of the invocation that produced this
            result object (≤ ``wall_seconds`` after a resume).
        pending_points: sweep points not yet computed (0 when complete).
        executor: name of the execution backend that produced the rows.
    """

    experiment_id: str
    title: str
    columns: Tuple[str, ...]
    rows: List[Dict[str, Any]]
    params: Dict[str, Any] = field(default_factory=dict)
    preset: str = DEFAULT_PRESET
    wall_seconds: float = 0.0
    invocation_seconds: float = 0.0
    pending_points: int = 0
    executor: str = "serial"

    def to_table(self) -> Table:
        """Render the rows as the experiment's historical plain-text table."""
        return table_from_records(self.title, self.columns, self.rows)

    def to_json_dict(self) -> Dict[str, Any]:
        """Return a JSON-serializable representation of the result."""
        return {
            "schema": RESULT_SCHEMA,
            "experiment": self.experiment_id,
            "title": self.title,
            "preset": self.preset,
            "params": jsonable(self.params),
            "columns": list(self.columns),
            "rows": jsonable(self.rows),
            "wall_seconds": round(self.wall_seconds, 4),
            "invocation_seconds": round(self.invocation_seconds, 4),
            "pending_points": self.pending_points,
            "executor": self.executor,
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_json_dict(), indent=indent) + "\n"


def _resolve(experiment: Union[str, ExperimentSpec]) -> ExperimentSpec:
    if isinstance(experiment, ExperimentSpec):
        return experiment
    return get_experiment(experiment)


def run_experiment(
    experiment: Union[str, ExperimentSpec],
    preset: str = DEFAULT_PRESET,
    overrides: Optional[Mapping[str, Any]] = None,
    executor: Optional[Union[str, Executor]] = None,
    **options: Any,
) -> ExperimentResult:
    """Run one experiment sweep and return its structured result.

    Args:
        experiment: a spec id (``"e7"``) or the spec itself.
        preset: parameter preset (``quick``/``default``/``hot``/…).
        overrides: parameter overrides on top of the preset (e.g.
            ``{"topology": "ad_hoc", "sizes": (64, 128)}``).
        executor: execution backend — an :class:`~repro.experiments.executors.Executor`
            instance, one of the registered names (``serial``/``sharded``/
            ``distributed``), or ``None`` to let the options choose.
        **options: backend options (``shard``, ``resume``, ``run_dir``,
            ``workers``, ``lease_timeout``), forwarded with ``executor`` to
            :func:`~repro.experiments.executors.make_executor`, which also
            decides the backend when no name is given.

    Raises:
        KeyError: on an unknown experiment id or preset.
        ValueError: on unsupported parameter overrides, an unknown executor
            name, or backend options combined with an executor instance or
            with a backend that does not understand them.
    """
    spec = _resolve(experiment)
    params = spec.params_for(preset, overrides)
    points = spec.points(params)
    if executor is None or isinstance(executor, str):
        backend = make_executor(executor, **options)
    elif options:
        raise ValueError(
            f"{'/'.join(sorted(options))} cannot be combined with an executor "
            "instance — configure the instance itself, or pass the executor "
            "by name"
        )
    else:
        backend = executor
    start = time.perf_counter()
    outcome = backend.execute(spec, preset, params, points)
    elapsed = time.perf_counter() - start
    return ExperimentResult(
        experiment_id=spec.id,
        title=spec.render_title(params),
        columns=spec.columns,
        rows=outcome.rows,
        params=dict(params),
        preset=preset,
        wall_seconds=outcome.compute_seconds,
        invocation_seconds=elapsed,
        pending_points=outcome.pending_points,
        executor=backend.name,
    )
