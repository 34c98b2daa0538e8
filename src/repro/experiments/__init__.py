"""Experiment harness: one registered spec per quantitative claim of the paper.

The paper is a theory paper without measured tables, so its "evaluation" is
the set of complexity claims and model-separation results listed in
docs/experiments.md.  Each ``eNN_*`` module reproduces one of them by declaring an
:class:`~repro.experiments.registry.ExperimentSpec`: the parameter presets
(``quick``/``default``/``hot``), the supported topology kinds, the row
schema, and a per-point sweep function returning structured row
dictionaries.  The unified runner (:mod:`repro.experiments.runner`) executes
any spec at any preset through a pluggable execution backend
(:mod:`repro.experiments.executors` — serial, sharded/checkpointed with
resume, or distributed) and its results render to the historical
plain-text tables recorded in docs/experiments.md and serialize to JSON.
``python -m repro`` (see :mod:`repro.cli`) is the command-line entry point.
"""

from repro.experiments.executors import (
    Executor,
    SerialExecutor,
    ShardedExecutor,
    make_executor,
)
from repro.experiments.harness import make_topology
from repro.experiments.registry import (
    ExperimentSpec,
    all_experiments,
    get_experiment,
    register_experiment,
)
from repro.experiments.runner import ExperimentResult, run_experiment

__all__ = [
    "Executor",
    "ExperimentResult",
    "ExperimentSpec",
    "SerialExecutor",
    "ShardedExecutor",
    "all_experiments",
    "get_experiment",
    "make_executor",
    "make_topology",
    "register_experiment",
    "run_experiment",
]
