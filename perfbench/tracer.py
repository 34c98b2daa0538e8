"""Outside-in layer tracer: spans around the program's public entry points.

Nothing under ``src/`` knows about this module.  :class:`Patches` rebinds an
entry point in *every* ``repro`` module that holds it — the defining module
and each consumer that imported it by name (``harness.make_topology``,
``e07_model_separation.topology_diameter``, ``multimedia.run_contention``,
…) — or, for a method, on its class, and :meth:`Patches.restore` puts every
original back.  :func:`assert_unwrapped` proves an untraced run executes the
original functions.

Spans nest: each records its name, its parent's name and its duration, and
a layer's self time is its duration minus the time its child spans cover.
Counters are taken from an entry point's arguments and result at the same
boundary; a counter is recorded only by the outermost span of its layer, so
a generator called from inside ``make_topology`` is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.sim.errors import AdversityAbort
from repro.sim.substreams import substream_seed

MARK = "__perfbench_original__"


class SpanRecorder:
    """In-memory span stack with per-layer self time and counters."""

    def __init__(self) -> None:
        self.spans: List[Tuple[str, Optional[str], float]] = []
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[List[Any]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._aborts: List[BaseException] = []

    def enter(self, name: str) -> None:
        """Open a span named ``name`` under the current one."""
        self._depth[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def exit(self) -> bool:
        """Close the innermost span; True when it was the outermost of its layer."""
        name, start, child = self._stack.pop()
        duration = perf_counter() - start
        self._depth[name] -= 1
        self.self_seconds[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        self.spans.append((name, parent[0] if parent else None, duration))
        return self._depth[name] == 0

    def abort(self, exc: BaseException) -> None:
        """Count an ``AdversityAbort`` once, however many spans it leaves."""
        if not any(seen is exc for seen in self._aborts):
            self._aborts.append(exc)
            self.counts["sim.aborts"] += 1


@dataclass(frozen=True)
class Target:
    """One traced entry point.

    Attributes:
        module: the module defining the function (or the method's class).
        attr: ``"name"`` or ``"Class.method"``.
        layer: span name, or a callable ``(args, kwargs) -> name`` for
            entry points whose layer depends on an argument.
        before: optional ``(args, kwargs) -> token`` taken at entry.
        after: optional ``(recorder, layer, token, result)`` counter hook,
            called only for the outermost span of the layer.
    """

    module: str
    attr: str
    layer: Union[str, Callable[[tuple, dict], str]]
    before: Optional[Callable[[tuple, dict], Any]] = None
    after: Optional[Callable[[SpanRecorder, str, Any, Any], None]] = None


def _repro_modules() -> List[Any]:
    return [
        module for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _owner(target_module: str, attr: str) -> Tuple[Any, str]:
    owner: Any = importlib.import_module(target_module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Rebinds entry points everywhere they are held; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace(
        self, module: str, attr: str, make_wrapper: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``module.attr`` by ``make_wrapper(original)`` in every holder."""
        owner, name = _owner(module, attr)
        original = getattr(owner, name)
        wrapper = make_wrapper(original)
        setattr(wrapper, MARK, original)
        holders = [owner] if inspect.isclass(owner) else _repro_modules()
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._undo.append((holder, key, original))
                    setattr(holder, key, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def wrapped_names() -> List[str]:
    """Return every ``repro`` attribute currently bound to a wrapper."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{key}")
            if inspect.isclass(value) and value.__module__ == module.__name__:
                found += [
                    f"{module.__name__}.{key}.{name}"
                    for name, member in vars(value).items()
                    if hasattr(member, MARK)
                ]
    return found


def assert_unwrapped() -> None:
    """Raise when any ``repro`` entry point is still wrapped."""
    found = wrapped_names()
    if found:
        raise RuntimeError(f"entry points still wrapped: {', '.join(found)}")


def _span_wrapper(recorder: SpanRecorder, target: Target) -> Callable:
    layer_of = target.layer if callable(target.layer) else None
    fixed = target.layer if isinstance(target.layer, str) else ""

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            layer = layer_of(args, kwargs) if layer_of else fixed
            token = target.before(args, kwargs) if target.before else None
            recorder.enter(layer)
            try:
                result = original(*args, **kwargs)
            except AdversityAbort as exc:
                recorder.abort(exc)
                raise
            finally:
                outermost = recorder.exit()
            if target.after is not None and outermost:
                target.after(recorder, layer, token, result)
            return result

        return wrapper

    return make


def _argument(module: str, attr: str, key: str) -> Callable[[tuple, dict], Any]:
    """Return a getter for parameter ``key`` of ``module.attr``, positional or not."""
    owner, name = _owner(module, attr)
    index = list(inspect.signature(getattr(owner, name)).parameters).index(key)

    def get(args: tuple, kwargs: dict) -> Any:
        if key in kwargs:
            return kwargs[key]
        return args[index] if len(args) > index else None

    return get


def _count_nodes(recorder: SpanRecorder, layer: str, token: Any, result: Any) -> None:
    graph = result[0] if isinstance(result, tuple) else result
    recorder.counts["topology.nodes"] += graph.num_nodes()


def _count_phases(recorder: SpanRecorder, layer: str, token: Any, result: Any) -> None:
    recorder.counts["partition.deterministic.phases"] += len(result.phases)


def _count_restarts(recorder: SpanRecorder, layer: str, token: Any, result: Any) -> None:
    recorder.counts["partition.randomized.restarts"] += result.restarts


def _count_slots(recorder: SpanRecorder, layer: str, token: Any, result: Any) -> None:
    recorder.counts["collision.contention.slots"] += result.slots_used
    recorder.counts["collision.contention.successes"] += len(result.order)


def _count_messages(recorder: SpanRecorder, layer: str, token: Any, result: Any) -> None:
    if layer != "sim.multimedia":
        return
    if token is None:
        sent = result.metrics.point_to_point_messages
    else:
        shared, before = token
        sent = shared.point_to_point_messages - before
    recorder.counts["sim.multimedia.msgs"] += sent


GENERATORS = (
    "grid_graph", "ring_graph", "random_geometric_graph", "barabasi_albert_graph",
    "ad_hoc_affectance_graph", "flower_graph", "ray_graph", "ray_graph_for",
)


def layer_targets() -> List[Target]:
    """Return the compute-layer entry points, one :class:`Target` each."""
    sim_mm = ("repro.sim.multimedia", "MultimediaNetwork.run")
    sim_sync = ("repro.sim.synchronizer", "ChannelSynchronizer.run")
    mm_adversity = _argument(*sim_mm, "adversity")
    mm_metrics = _argument(*sim_mm, "metrics")
    sync_adversity = _argument(*sim_sync, "adversity")

    def multimedia_before(args: tuple, kwargs: dict) -> Any:
        shared = mm_metrics(args, kwargs)
        return None if shared is None else (shared, shared.point_to_point_messages)

    gens = "repro.topology.generators"
    return [
        Target("repro.experiments.harness", "make_topology", "topology.generate",
               after=_count_nodes),
        *(Target(gens, name, "topology.generate", after=_count_nodes)
          for name in GENERATORS),
        Target("repro.topology.weights", "assign_distinct_weights", "topology.weights"),
        Target("repro.experiments.harness", "topology_diameter", "topology.diameter"),
        Target("repro.topology.properties", "diameter", "topology.diameter"),
        Target(gens, "degree_preserving_rewire", "topology.rewire"),
        Target("repro.core.partition.deterministic", "DeterministicPartitioner.run",
               "partition.deterministic", after=_count_phases),
        Target("repro.core.partition.randomized", "RandomizedPartitioner.run",
               "partition.randomized", after=_count_restarts),
        Target(*sim_mm,
               lambda a, k: "sim.multimedia.adversity" if mm_adversity(a, k)
               is not None else "sim.multimedia",
               before=multimedia_before, after=_count_messages),
        Target(*sim_sync,
               lambda a, k: "sim.synchronizer.adversity" if sync_adversity(a, k)
               is not None else "sim.synchronizer"),
        Target("repro.sim.walks", "mean_first_passage_time", "sim.walks"),
        Target("repro.protocols.collision.base", "run_contention",
               "collision.contention", after=_count_slots),
        Target("repro.protocols.spanning.bfs", "build_bfs_forest", "spanning.bfs"),
        Target("repro.protocols.dissemination", "disseminate", "dissemination"),
        Target("repro.core.mst.multimedia_mst", "MultimediaMST.run", "mst.multimedia"),
        Target("repro.core.mst.ghs_baseline", "PointToPointMST.run", "mst.p2p"),
        Target("repro.core.mst.kruskal", "kruskal_mst", "mst.kruskal"),
        Target("repro.core.global_function.multimedia", "compute_global_function",
               "global_function"),
        Target("repro.core.global_function.baselines",
               "compute_on_point_to_point_only", "global_function"),
        Target("repro.core.global_function.baselines", "compute_on_channel_only",
               "global_function"),
        Target("repro.core.size_estimation", "compute_size_deterministically",
               "size_estimation"),
        Target("repro.core.size_estimation", "estimate_size_randomized",
               "size_estimation"),
        Target("repro.experiments.executors", "execute_point",
               "experiments.point_glue"),
    ]


def install_layers(patches: Patches, recorder: SpanRecorder) -> None:
    """Wrap every compute-layer entry point with spans into ``recorder``."""
    for target in layer_targets():
        patches.replace(target.module, target.attr, _span_wrapper(recorder, target))


def install_reseed(patches: Patches, workload_seed: int) -> None:
    """Make ``make_topology`` build its graphs from a held-out seed."""
    module, attr = "repro.experiments.harness", "make_topology"
    seed_of = _argument(module, attr, "seed")

    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(kind: str, n: int, *args: Any, **kwargs: Any) -> Any:
            seed = seed_of((kind, n) + args, kwargs)
            kwargs.pop("seed", None)
            held_out = substream_seed(workload_seed, "perfbench.topology", seed or 0)
            return original(kind, n, seed=held_out)

        return wrapper

    patches.replace(module, attr, make)


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """Turn a recorder's self times and counters into per-layer metric values."""
    metrics: Dict[str, float] = {}
    for layer in LAYER_SECONDS:
        metrics[self_metric(layer)] = recorder.self_seconds.get(layer, 0.0)
    for name in COUNTERS:
        metrics[name] = recorder.counts.get(name, 0.0)
    msgs = metrics["sim.multimedia.msgs"]
    metrics["sim.multimedia.us_per_msg"] = (
        metrics["sim.multimedia.s"] * 1e6 / msgs if msgs else 0.0
    )
    slots = metrics["collision.contention.slots"]
    metrics["collision.contention.success_ratio"] = (
        recorder.counts.get("collision.contention.successes", 0.0) / slots
        if slots else 0.0
    )
    return metrics


def self_metric(layer: str) -> str:
    """Return the self-time metric name of a span layer."""
    if layer in ("global_function", "size_estimation"):
        return f"{layer}.self.s"
    return f"{layer}.s"


LAYER_SECONDS = (
    "topology.generate", "topology.weights", "topology.diameter",
    "topology.rewire", "partition.deterministic", "partition.randomized",
    "sim.multimedia", "sim.multimedia.adversity", "sim.synchronizer",
    "sim.synchronizer.adversity", "sim.walks", "collision.contention",
    "spanning.bfs", "dissemination", "mst.multimedia", "mst.p2p", "mst.kruskal",
    "global_function", "size_estimation", "experiments.point_glue",
)
COUNTERS = (
    "topology.nodes", "partition.deterministic.phases",
    "partition.randomized.restarts", "sim.multimedia.msgs", "sim.aborts",
    "collision.contention.slots",
)
#: units of the per-layer metrics that are not seconds
UNITS = {
    **{name: "count" for name in COUNTERS},
    "sim.multimedia.us_per_msg": "us/msg",
    "collision.contention.success_ratio": "ratio",
    "executors.checkpoint_bytes": "bytes",
}
