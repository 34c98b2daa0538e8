"""Declarative experiment registry: one :class:`ExperimentSpec` per claim.

Every experiment module (``e01_*`` … ``e13_*``) declares *what* it sweeps —
parameter presets, supported topology kinds, the row schema — by decorating
its per-point sweep function with :func:`register_experiment`.  The decorated
function receives the parameters of one sweep point (one instance size, or
one ray-graph shape) and returns a plain row dictionary keyed by the spec's
``columns``.  Everything that *drives* experiments — the unified runner
(:mod:`repro.experiments.runner`), the benchmark trajectory suite
(:mod:`repro.experiments.trajectory`), the ``python -m repro`` CLI, the
pytest benches and CI — resolves specs through this registry instead of
hard-coding per-experiment size lists, so the consumers can never drift
apart.  The registry also renders to the committed experiment catalog,
``docs/experiments.md`` (``python -m repro docs``, freshness-checked by CI).

Presets
-------
Each spec carries three named parameter presets:

* ``quick``   — tiny instances; the CI smoke suite (seconds in total);
* ``default`` — the documented benchmark sweep recorded in
  ``BENCH_core.json`` and regenerated by the pytest benches;
* ``hot``     — sizes where wall time is measured in seconds, used for the
  performance trajectory's speedup measurements.

Per-point determinism
---------------------
A sweep point's parameters carry every seed it needs (the topology seed is
fixed inside the point functions, algorithm seeds arrive as explicit
``seeds`` tuples), so points share no random state.  This is what lets the
sharded and distributed backends execute points in any order, in any
process, and still produce rows bit-identical to a serial run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: the modules that declare specs; imported (once) by :func:`load_all`
EXPERIMENT_MODULES: Tuple[str, ...] = tuple(
    f"repro.experiments.{name}"
    for name in (
        "e01_det_partition_quality",
        "e02_det_partition_complexity",
        "e03_rand_partition_quality",
        "e04_rand_partition_complexity",
        "e05_global_deterministic",
        "e06_global_randomized",
        "e07_model_separation",
        "e08_lower_bound_gap",
        "e09_mst",
        "e10_model_variations",
        "e11_adversity_degradation",
        "e12_random_walk_mfpt",
        "e13_selective_dissemination",
    )
)

REQUIRED_PRESETS: Tuple[str, ...] = ("quick", "default", "hot")
DEFAULT_PRESET = "default"

RowDict = Dict[str, Any]
PointParams = Dict[str, Any]


@dataclass(frozen=True)
class BenchVariant:
    """One named entry of the benchmark trajectory (or quick smoke) suite.

    Attributes:
        name: the label the entry is recorded under in ``BENCH_core.json``
            (e.g. ``e7_scale_free_hot``).
        preset: the preset supplying the base parameters.
        overrides: parameter overrides applied on top of the preset.
    """

    name: str
    preset: str
    overrides: Mapping[str, Any] = field(default_factory=dict)


def _points_from_sizes(params: Mapping[str, Any]) -> List[PointParams]:
    """Default sweep expansion: one point per entry of ``params['sizes']``."""
    shared = {key: value for key, value in params.items() if key != "sizes"}
    return [dict(shared, n=n) for n in params["sizes"]]


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative description of one experiment sweep.

    Attributes:
        id: short identifier (``e1`` … ``e13``).
        title: the table title — a string, or a callable receiving the
            resolved parameters (for titles that depend on e.g. topology).
        columns: the row schema; every point function returns a dict with
            exactly these keys, in this rendering order.
        point_fn: module-level callable executing one sweep point.
        presets: parameter presets; must include ``quick``/``default``/``hot``.
        topologies: topology kinds the sweep supports (empty for experiments
            with a fixed topology, such as e8's ray graphs).
        adversities: adversity preset names the sweep supports as an
            ``adversity`` override (empty for experiments that either take
            no adversity at all or — like e11 — sweep their own fault grid).
        points_fn: expands resolved parameters into per-point parameter
            dicts; defaults to one point per entry of ``sizes``.
        bench_extras: extra trajectory-suite entries beyond the implicit
            ``(id, 'default')`` one (hot sweeps, topology variants).
        quick_extras: extra quick-smoke entries beyond the implicit
            ``(id, 'quick')`` one.
        description: one-line summary shown by ``python -m repro list``.
    """

    id: str
    title: Union[str, Callable[[Mapping[str, Any]], str]]
    columns: Tuple[str, ...]
    point_fn: Callable[..., RowDict]
    presets: Mapping[str, Mapping[str, Any]]
    topologies: Tuple[str, ...] = ()
    adversities: Tuple[str, ...] = ()
    points_fn: Callable[[Mapping[str, Any]], List[PointParams]] = _points_from_sizes
    bench_extras: Tuple[BenchVariant, ...] = ()
    quick_extras: Tuple[BenchVariant, ...] = ()
    description: str = ""

    def params_for(
        self,
        preset: str = DEFAULT_PRESET,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Resolve a preset plus overrides into one parameter dict.

        The ``adversity`` override is special: it is accepted only when the
        spec declares ``adversities``, is validated and canonicalised into
        the full spec dictionary (every field explicit, so sweep digests
        cover the whole schedule), and is *absent* from the resolved
        parameters unless requested — an untouched sweep therefore resolves,
        digests and runs exactly as before the adversity axis existed.

        Raises:
            KeyError: on an unknown preset.
            ValueError: on an override the experiment does not accept (its
                parameter names are the union of its presets' keys), an
                unsupported topology override, or an invalid adversity
                override (unknown preset/field, out-of-range rate).
        """
        if preset not in self.presets:
            raise KeyError(
                f"experiment {self.id!r} has no preset {preset!r} "
                f"(available: {', '.join(sorted(self.presets))})"
            )
        params = dict(self.presets[preset])
        if overrides:
            allowed = {key for preset_params in self.presets.values()
                       for key in preset_params}
            if self.adversities:
                allowed.add("adversity")
            unknown = sorted(set(overrides) - allowed)
            if unknown:
                raise ValueError(
                    f"experiment {self.id!r} does not accept parameter(s) "
                    f"{', '.join(unknown)} (accepted: {', '.join(sorted(allowed))})"
                )
            for key, value in overrides.items():
                # the preset value is the shape template: a scalar override
                # of a sequence-valued parameter (`--set sizes=64`) means a
                # one-point sweep, not an iteration over the scalar
                template = params.get(key)
                if template is None:
                    for preset_params in self.presets.values():
                        if key in preset_params:
                            template = preset_params[key]
                            break
                if (isinstance(template, (tuple, list))
                        and not isinstance(value, (tuple, list))):
                    value = (value,)
                if template is not None:
                    self._check_override(key, value, template)
                params[key] = value
        topology = params.get("topology")
        if topology is not None and self.topologies and topology not in self.topologies:
            raise ValueError(
                f"experiment {self.id!r} does not support topology {topology!r} "
                f"(supported: {', '.join(self.topologies)})"
            )
        adversity = params.get("adversity")
        if adversity is not None:
            if not self.adversities:
                raise ValueError(
                    f"experiment {self.id!r} does not accept an adversity "
                    f"override"
                )
            from repro.sim.adversity import canonical_adversity

            params["adversity"] = canonical_adversity(
                adversity, allowed=self.adversities
            )
        return params

    def _check_override(self, key: str, value: Any, template: Any) -> None:
        """Reject an override whose type does not match its preset template.

        Raises:
            ValueError: on a type mismatch (see :func:`_conforms`), or a
                ``sizes`` entry below 1.
        """
        if not _conforms(value, template):
            raise ValueError(
                f"experiment {self.id!r} expects {key}: {_shape(template)}, "
                f"got {value!r}"
            )
        if key == "sizes" and any(size < 1 for size in value):
            raise ValueError(
                f"experiment {self.id!r} needs every size to be at least 1, "
                f"got {value!r}"
            )

    def points(self, params: Mapping[str, Any]) -> List[PointParams]:
        """Expand resolved parameters into the per-point parameter dicts."""
        return self.points_fn(params)

    def render_title(self, params: Mapping[str, Any]) -> str:
        """Return the table title for ``params``."""
        if callable(self.title):
            return self.title(params)
        return self.title


def _conforms(value: Any, template: Any) -> bool:
    """True when ``value`` has the type shape of the preset value ``template``.

    A tuple and a list are interchangeable, and their elements must conform
    to the template's first element; an int is accepted where a float is
    expected; a bool is never accepted as a number, nor a number as a bool.
    """
    if isinstance(template, (tuple, list)):
        if not isinstance(value, (tuple, list)):
            return False
        return not template or all(_conforms(item, template[0]) for item in value)
    if isinstance(value, bool) or isinstance(template, bool):
        return type(value) is type(template)
    if isinstance(template, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(template))


def _shape(template: Any) -> str:
    """Describe the type shape :func:`_conforms` checks against ``template``."""
    if isinstance(template, (tuple, list)):
        return f"sequence of {_shape(template[0])}" if template else "sequence"
    if isinstance(template, float):
        return "number"
    return type(template).__name__


_REGISTRY: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register_experiment(
    *,
    id: str,  # noqa: A002 - mirrors the spec field name
    title: Union[str, Callable[[Mapping[str, Any]], str]],
    columns: Sequence[str],
    presets: Mapping[str, Mapping[str, Any]],
    topologies: Sequence[str] = (),
    adversities: Sequence[str] = (),
    points: Optional[Callable[[Mapping[str, Any]], List[PointParams]]] = None,
    bench_extras: Sequence[Tuple[str, str, Mapping[str, Any]]] = (),
    quick_extras: Sequence[Tuple[str, str, Mapping[str, Any]]] = (),
    description: str = "",
) -> Callable[[Callable[..., RowDict]], Callable[..., RowDict]]:
    """Register the decorated per-point function as an :class:`ExperimentSpec`.

    The decorated function is returned unchanged (a plain module-level
    callable); the built spec is attached to it as ``fn.spec`` and
    registered under ``id``.

    Raises:
        ValueError: on duplicate ids, missing required presets, or presets
            that expand to zero sweep points.
    """

    def decorator(fn: Callable[..., RowDict]) -> Callable[..., RowDict]:
        spec = ExperimentSpec(
            id=id,
            title=title,
            columns=tuple(columns),
            point_fn=fn,
            presets={name: dict(params) for name, params in presets.items()},
            topologies=tuple(topologies),
            adversities=tuple(adversities),
            points_fn=points if points is not None else _points_from_sizes,
            bench_extras=tuple(BenchVariant(*entry) for entry in bench_extras),
            quick_extras=tuple(BenchVariant(*entry) for entry in quick_extras),
            description=description,
        )
        _validate_spec(spec)
        _REGISTRY[spec.id] = spec
        fn.spec = spec  # type: ignore[attr-defined]
        return fn

    return decorator


def _validate_spec(spec: ExperimentSpec) -> None:
    if spec.id in _REGISTRY:
        raise ValueError(f"experiment id {spec.id!r} is already registered")
    if not spec.columns:
        raise ValueError(f"experiment {spec.id!r} declares no columns")
    missing = [name for name in REQUIRED_PRESETS if name not in spec.presets]
    if missing:
        raise ValueError(
            f"experiment {spec.id!r} is missing preset(s): {', '.join(missing)}"
        )
    for name in spec.presets:
        if not spec.points(spec.params_for(name)):
            raise ValueError(
                f"experiment {spec.id!r} preset {name!r} expands to no sweep points"
            )
    for variant in spec.bench_extras + spec.quick_extras:
        if variant.preset not in spec.presets:
            raise ValueError(
                f"experiment {spec.id!r} variant {variant.name!r} references "
                f"unknown preset {variant.preset!r}"
            )


def load_all() -> None:
    """Import every experiment module so all specs are registered."""
    global _LOADED
    if _LOADED:
        return
    for module in EXPERIMENT_MODULES:
        importlib.import_module(module)
    _LOADED = True


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Return the spec registered under ``experiment_id``.

    Raises:
        KeyError: when no such experiment exists.
    """
    load_all()
    try:
        return _REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY, key=_numeric_id))
        raise KeyError(
            f"unknown experiment {experiment_id!r} (known: {known})"
        ) from None


def all_experiments() -> List[ExperimentSpec]:
    """Return every registered spec, ordered e1 → e13."""
    load_all()
    return [_REGISTRY[key] for key in sorted(_REGISTRY, key=_numeric_id)]


def _numeric_id(experiment_id: str) -> Tuple[int, str]:
    digits = "".join(ch for ch in experiment_id if ch.isdigit())
    return (int(digits) if digits else 0, experiment_id)
