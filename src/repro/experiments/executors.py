"""Pluggable sweep executors: serial, sharded/checkpointed, and distributed.

:func:`~repro.experiments.runner.run_experiment` delegates the *mechanics* of
executing a sweep's points to an :class:`Executor`, so new execution backends
(batch schedulers, remote farms) extend this module instead of adding new
drivers.  Three backends ship today, and :func:`make_executor` is the one
place that maps options to one of them:

* :class:`SerialExecutor` — one point after another in the calling process;
  the reference semantics every other backend must reproduce bit-identically.
* :class:`ShardedExecutor` — partitions the sweep into deterministic,
  independently resumable **shards**, executes them one at a time, and writes
  each completed shard as a JSON checkpoint under a run directory.  A killed
  sweep restarts from its last completed shard (``--resume``), shards can be
  farmed out across invocations (``--shard 2/8``), and the merged rows are
  bit-identical to a serial run of the same sweep.
* ``distributed`` (:class:`~repro.experiments.distributed.DistributedExecutor`)
  — a coordinator leases the same shards to worker processes over TCP
  (heartbeats, lease timeouts, at-least-once reassignment); every accepted
  shard lands as the same digest-checked checkpoint, so the merged rows stay
  bit-identical to serial.  This is the parallel backend (``--workers N``).
  Lives in :mod:`repro.experiments.distributed` and is resolved lazily by
  :func:`make_executor`.

The checkpoint primitives (:func:`write_checkpoint`, :func:`load_checkpoint`,
:func:`ensure_manifest`, :func:`merge_checkpoints`, :func:`resolve_run_dir`)
are module-level so every checkpoint-producing backend — and the read-side
``repro serve`` service — validates and merges through one code path; both
checkpointing backends open their run directory with :func:`open_run_dir`
and collect their rows with :func:`merged_outcome`.

Shard / checkpoint layout
-------------------------
A run directory holds one ``manifest.json`` plus one ``shard-NNNN.json`` per
completed shard::

    .repro_runs/e2-default-1f0c2a9b3d/
        manifest.json        # sweep identity: spec id, preset, params, digest
        shard-0000.json      # {"digest", "shard", "indices", "rows", ...}
        shard-0001.json
        ...

Shard ``k`` of ``N`` owns sweep-point indices ``k, k+N, k+2N, …`` (round-robin
striping, so the expensive tail of an ascending size sweep spreads across
shards instead of landing in the last one).  The striping is a function of
``(num_points, shard_count)`` only, so any two invocations agree on the
layout; the manifest digest covers the spec id, preset, resolved parameters
and shard count, and a run directory is refused when it belongs to a
different sweep.

Determinism contract
--------------------
Rows are stored in the checkpoint exactly as the JSON encoder emits them
(with non-finite floats wrapped reversibly so the files stay strict JSON)
and always read back through the JSON decoder — including for shards
computed in the current invocation — so a resumed/merged result cannot
differ from a fresh one.  Since every sweep point carries its own seeds (see
:mod:`repro.experiments.registry`), the merged rows equal a serial run's rows
bit-for-bit; ``tests/test_executors.py`` holds the matrix proof.

Accounting
----------
Executors report *compute* seconds: the summed execution time of every shard
that contributes rows, accumulated across invocations through the checkpoint
files.  The runner records this as ``ExperimentResult.wall_seconds`` and the
final invocation's own wall clock separately as ``invocation_seconds`` (see
``RESULT_SCHEMA`` 2 in :mod:`repro.experiments.runner`).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.experiments.registry import ExperimentSpec, PointParams, RowDict
from repro.experiments.serialization import (
    check_depth,
    decode_nonfinite,
    encode_nonfinite,
    jsonable,
    read_json,
)

MANIFEST_SCHEMA = 1
MANIFEST_NAME = "manifest.json"

#: executor names accepted by ``run_experiment(executor=...)`` and the CLI
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "sharded", "distributed")


class ExecutorConfigError(ValueError):
    """An executor refused its configuration (operator error, not a bug).

    Raised at execution time for mistakes an operator can fix — a run
    directory belonging to a different sweep, a shard index outside the
    layout — so the CLI can render them as clean usage errors while genuine
    failures inside a sweep keep their tracebacks.
    """


@dataclass
class ExecutionOutcome:
    """What an executor hands back to the runner.

    Attributes:
        rows: the completed rows, in sweep-point order.  A partial sharded
            run (``--shard k/N``) returns only the rows
            of the shards completed so far.
        compute_seconds: summed execution time of every shard/point that
            contributed rows — accumulated across invocations for a resumed
            sharded run, equal to this invocation's sweep time otherwise.
        pending_points: sweep points not yet computed (0 for a complete run).
    """

    rows: List[RowDict]
    compute_seconds: float
    pending_points: int = 0


@runtime_checkable
class Executor(Protocol):
    """The executor protocol: run a spec's sweep points, return the rows.

    Implementations must preserve the serial semantics: rows in sweep-point
    order, bit-identical to :class:`SerialExecutor` on the same spec and
    points (every point carries its own seeds, so this is a matter of not
    reordering or re-encoding rows, not of luck).
    """

    name: str

    def execute(
        self,
        spec: ExperimentSpec,
        preset: str,
        params: Mapping[str, Any],
        points: List[PointParams],
    ) -> ExecutionOutcome:
        """Execute ``points`` of ``spec`` and return the outcome."""
        ...


def execute_point(spec: ExperimentSpec, point: Mapping[str, Any]) -> RowDict:
    """Execute one sweep point of ``spec`` and validate its row schema.

    Raises:
        ValueError: when the returned row's keys do not match the spec's
            declared columns.
    """
    row = spec.point_fn(**point)
    missing = [column for column in spec.columns if column not in row]
    if missing or len(row) != len(spec.columns):
        raise ValueError(
            f"experiment {spec.id!r} returned a row whose keys do not "
            f"match its declared columns (missing: {missing}, got: {list(row)})"
        )
    return row


class SerialExecutor:
    """Reference executor: every point in order, in the calling process."""

    name = "serial"

    def execute(
        self,
        spec: ExperimentSpec,
        preset: str,
        params: Mapping[str, Any],
        points: List[PointParams],
    ) -> ExecutionOutcome:
        """Execute every point serially."""
        start = time.perf_counter()
        rows = [execute_point(spec, point) for point in points]
        return ExecutionOutcome(
            rows=rows, compute_seconds=time.perf_counter() - start
        )


# ----------------------------------------------------------------------
# sharded execution
# ----------------------------------------------------------------------
def shard_indices(num_points: int, shard_count: int) -> List[List[int]]:
    """Return each shard's sweep-point indices (round-robin striping).

    Shard ``k`` (0-based) owns indices ``k, k + N, k + 2N, …`` — a disjoint
    cover of ``range(num_points)`` that is a pure function of the two
    arguments, so independent invocations always agree on the layout.  A
    shard count larger than the point count is allowed (farm tooling often
    fixes ``N`` before knowing the sweep size): the excess shards are
    simply empty.

    Raises:
        ValueError: when ``shard_count`` is not positive.
    """
    if shard_count < 1:
        raise ValueError(f"shard count must be positive, got {shard_count}")
    return [list(range(k, num_points, shard_count)) for k in range(shard_count)]


def sweep_digest(
    experiment_id: str,
    preset: str,
    params: Mapping[str, Any],
    num_points: int,
    shard_count: int,
) -> str:
    """Return the identity digest of one sharded sweep.

    Two invocations may share a run directory only when this digest matches:
    it covers everything that determines the shard layout and the rows —
    the spec id, the preset, the resolved parameters, the point count and
    the shard count.  The adversity schedule is hashed as its own explicit
    key (``None`` for a fault-free sweep) on top of riding along inside
    ``params``, so a ``--resume`` against checkpoints written under a
    different — or no — adversity configuration is always refused rather
    than silently merged.
    """
    payload = json.dumps(
        {
            "experiment": experiment_id,
            "preset": preset,
            "params": jsonable(dict(params)),
            "adversity": jsonable(params.get("adversity")),
            "num_points": num_points,
            "shard_count": shard_count,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def checkout_path(name: str) -> Path:
    """Return ``name`` at the repository root of a ``src/`` checkout.

    Falls back to the working directory when the package does not live in
    a ``src/`` checkout (e.g. an installed wheel).  Every repo-relative
    default (run directories, ``docs/``, ``BENCH_core.json``) resolves here.
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "src").is_dir():
        return root / name
    return Path.cwd() / name


def default_run_root() -> Path:
    """Return the default parent directory for sharded run directories.

    ``.repro_runs/`` under :func:`checkout_path`'s root.
    """
    return checkout_path(".repro_runs")


def resolve_run_dir(
    experiment_id: str,
    preset: str,
    params: Mapping[str, Any],
    num_points: int,
    run_dir: Optional[Path],
) -> Path:
    """Return ``run_dir`` as a path, or the default directory for this sweep.

    The default directory name must NOT depend on the shard layout (only the
    sweep identity), so a farm run with ``--shard K/N``, a bare ``--resume``
    collect, and a distributed coordinator all resolve to the same
    directory; shard count 0 is the layout-independent sentinel.
    """
    if run_dir is not None:
        return Path(run_dir)
    name_digest = sweep_digest(experiment_id, preset, params, num_points, 0)
    return default_run_root() / f"{experiment_id}-{preset}-{name_digest[:10]}"


def _shard_path(run_dir: Path, shard: int) -> Path:
    """Return the checkpoint path of shard ``shard`` under ``run_dir``."""
    return run_dir / f"shard-{shard:04d}.json"


def _write_json_atomic(path: Path, payload: Mapping[str, Any]) -> None:
    """Write ``payload`` as strict JSON via a unique temp file + rename.

    ``allow_nan=False`` keeps every emitted file RFC 8259-valid; callers
    with non-finite floats to persist encode them reversibly first (see
    :func:`repro.experiments.serialization.encode_nonfinite`).  The temp
    file name is unique per writer (``mkstemp``) so concurrent farm
    invocations sharing a run directory — the documented ``--shard K/N``
    pattern — can never interleave on one temp file and promote a torn
    manifest/checkpoint.
    """
    handle, tmp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(handle, "w") as tmp:
            tmp.write(json.dumps(payload, indent=2, allow_nan=False) + "\n")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def ensure_manifest(
    run_dir: Path,
    experiment_id: str,
    preset: str,
    params: Mapping[str, Any],
    num_points: int,
    shard_count: int,
    digest: str,
) -> None:
    """Create the run directory's manifest, or verify an existing one.

    Raises:
        ExecutorConfigError: when the directory's manifest carries a
            different digest (another experiment, preset, parameterisation,
            or shard layout).
    """
    manifest = read_manifest(run_dir)
    # a missing or unreadable manifest is (re)written below
    if manifest is not None:
        existing = manifest["digest"]
        if existing != digest:
            raise ExecutorConfigError(
                f"run directory {run_dir} belongs to a different sweep "
                f"(manifest digest {existing[:10]}… != {digest[:10]}…); "
                "pass a fresh --run-dir or matching parameters"
            )
        return
    _write_json_atomic(
        run_dir / MANIFEST_NAME,
        {
            "schema": MANIFEST_SCHEMA,
            "experiment": experiment_id,
            "preset": preset,
            "params": jsonable(dict(params)),
            "adversity": jsonable(params.get("adversity")),
            "num_points": num_points,
            "shard_count": shard_count,
            "digest": digest,
        },
    )


def write_checkpoint(
    run_dir: Path,
    shard: int,
    shard_count: int,
    indices: List[int],
    rows: List[RowDict],
    compute_seconds: float,
    digest: str,
) -> None:
    """Write one completed shard's checkpoint file atomically.

    The rows are stored under the reversible non-finite encoding so the
    file stays strict RFC 8259 JSON while the decoded rows stay
    bit-identical to a serial run's.
    """
    _write_json_atomic(
        _shard_path(run_dir, shard),
        {
            "schema": MANIFEST_SCHEMA,
            "digest": digest,
            "shard": shard,
            "shard_count": shard_count,
            "indices": list(indices),
            "rows": encode_nonfinite(rows),
            "compute_seconds": round(compute_seconds, 6),
        },
    )


def valid_compute_seconds(value: Any) -> bool:
    """Return ``True`` when ``value`` is a usable shard ``compute_seconds``.

    It must be an ``int`` or ``float`` (a ``bool`` is neither here), finite
    and non-negative.  Checkpoint files and worker submissions are both held
    to it, so a NaN, a negative time or a string never reaches a merged
    ``wall_seconds``.
    """
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value) and value >= 0
    )


def load_checkpoint(
    run_dir: Path,
    shard: int,
    expected_indices: List[int],
    columns: Tuple[str, ...],
    digest: str,
) -> Optional[Dict[str, Any]]:
    """Load and validate one shard checkpoint; ``None`` when unusable.

    A missing, truncated, corrupt (nested too deeply to parse included),
    foreign (digest mismatch), or schema-mismatched file, or one whose
    ``compute_seconds`` fails :func:`valid_compute_seconds`, is reported as
    absent rather than fatal, so
    recovery is always "re-run the shard" — the checkpoint directory can
    never wedge a sweep, and a stale checkpoint from a
    differently-parameterised sweep is never merged even when the manifest
    was lost.  The distributed coordinator applies the same validation to
    worker *submissions* before anything reaches the directory at all.
    """
    path = _shard_path(run_dir, shard)
    try:
        data = read_json(path.read_text())
    except (OSError, ValueError):
        return None
    try:
        if data["digest"] != digest:
            return None
        rows = decode_nonfinite(data["rows"])
        if data["indices"] != list(expected_indices) or len(rows) != len(
            expected_indices
        ):
            return None
        if any(
            not isinstance(row, dict) or set(columns) - set(row)
            for row in rows
        ):
            return None
        if not valid_compute_seconds(data["compute_seconds"]):
            return None
        return {
            "rows": rows,
            "compute_seconds": float(data["compute_seconds"]),
        }
    except (KeyError, TypeError, ValueError):
        return None


def merge_checkpoints(
    run_dir: Path,
    plan: List[List[int]],
    columns: Tuple[str, ...],
    digest: str,
    preloaded: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Tuple[Dict[int, RowDict], float]:
    """Merge every valid checkpoint under ``run_dir`` into per-index rows.

    Returns ``(rows_by_index, compute_seconds)`` — whoever wrote the
    checkpoints (a serial sharded run, farmed ``--shard K/N`` invocations,
    or distributed workers), the merge validates each file against the
    digest and layout and sums the contributing shards' compute time.
    ``preloaded`` carries checkpoints the caller already parsed this
    invocation so they are not re-read.
    """
    rows_by_index: Dict[int, RowDict] = {}
    compute_seconds = 0.0
    for shard in range(len(plan)):
        loaded = (preloaded or {}).get(shard)
        if loaded is None:
            loaded = load_checkpoint(run_dir, shard, plan[shard], columns, digest)
        if loaded is None:
            continue
        for index, row in zip(plan[shard], loaded["rows"]):
            rows_by_index[index] = row
        compute_seconds += loaded["compute_seconds"]
    return rows_by_index, compute_seconds


def read_manifest(run_dir: Path) -> Optional[Dict[str, Any]]:
    """Return ``run_dir``'s manifest, or ``None`` when missing or malformed.

    Well formed means a JSON object whose ``experiment``, ``preset`` and
    ``digest`` are strings, ``params`` is an object, ``num_points`` an int
    ≥ 0 and ``shard_count`` an int ≥ 1.  Every reader goes through here, so
    a corrupt manifest (one nested too deeply to parse included) is treated
    as absent — rewritten by :func:`ensure_manifest`, skipped by the serving
    side — never a crash.
    """
    try:
        data = check_depth(read_json((run_dir / MANIFEST_NAME).read_text()))
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    if not all(isinstance(data.get(key), str)
               for key in ("experiment", "preset", "digest")):
        return None
    if not isinstance(data.get("params"), dict):
        return None
    num_points = data.get("num_points")
    shard_count = data.get("shard_count")
    if type(num_points) is not int or num_points < 0:
        return None
    if type(shard_count) is not int or shard_count < 1:
        return None
    return data


class RunDir(NamedTuple):
    """An opened run directory: its path, shard plan and sweep digest."""

    path: Path
    plan: List[List[int]]
    digest: str


def open_run_dir(
    spec: ExperimentSpec,
    preset: str,
    params: Mapping[str, Any],
    num_points: int,
    run_dir: Optional[Path],
    shard_count: Optional[int],
) -> RunDir:
    """Resolve, create and claim the run directory of one checkpointed sweep.

    Without an explicit ``shard_count`` the directory's manifest supplies
    the layout (so a collect/``--resume`` invocation agrees with the farm
    invocations that wrote it), else there is one shard per sweep point.

    Raises:
        ExecutorConfigError: on a non-positive shard count, or a run
            directory that belongs to a different sweep.
    """
    path = resolve_run_dir(spec.id, preset, params, num_points, run_dir)
    count = shard_count
    if count is None:
        manifest = read_manifest(path)
        count = manifest["shard_count"] if manifest else max(1, num_points)
    if count < 1:
        raise ExecutorConfigError(f"shard count must be positive, got {count}")
    digest = sweep_digest(spec.id, preset, params, num_points, count)
    path.mkdir(parents=True, exist_ok=True)
    ensure_manifest(path, spec.id, preset, params, num_points, count, digest)
    return RunDir(path, shard_indices(num_points, count), digest)


def merged_outcome(
    spec: ExperimentSpec,
    run: RunDir,
    preloaded: Optional[Dict[int, Dict[str, Any]]] = None,
) -> ExecutionOutcome:
    """Merge every valid checkpoint of ``run``, whoever wrote it."""
    rows_by_index, compute_seconds = merge_checkpoints(
        run.path, run.plan, spec.columns, run.digest, preloaded
    )
    num_points = sum(len(indices) for indices in run.plan)
    return ExecutionOutcome(
        rows=[rows_by_index[i] for i in sorted(rows_by_index)],
        compute_seconds=compute_seconds,
        pending_points=num_points - len(rows_by_index),
    )


@dataclass
class ShardedExecutor:
    """Checkpointed executor: deterministic shards under a run directory.

    Attributes:
        run_dir: run directory holding the manifest and shard checkpoints;
            defaults to ``.repro_runs/<id>-<preset>-<digest10>`` at the repo
            root when unset (the name digest covers the sweep identity but
            not the shard layout, so farm and collect invocations with
            different ``--shard`` settings resolve to the same directory).
        shard_count: number of shards the sweep is partitioned into.  When
            unset, an existing run directory's manifest supplies the count
            (so a collect/`--resume` invocation agrees with the farm
            invocations that wrote it); otherwise it defaults to one shard
            per sweep point (finest resume grain).
        shard_index: when set (0-based), execute only this shard — the
            ``--shard k/N`` farm-out mode.  The returned rows still merge
            every completed checkpoint in the run directory, so the last
            farm invocation to finish observes the complete sweep.
        resume: reuse valid checkpoints already present in the run
            directory; without it every selected shard is recomputed (a
            corrupt or foreign-sweep checkpoint is never reused either way).
    """

    run_dir: Optional[Path] = None
    shard_count: Optional[int] = None
    shard_index: Optional[int] = None
    resume: bool = False
    name: str = field(default="sharded", init=False)

    def execute(
        self,
        spec: ExperimentSpec,
        preset: str,
        params: Mapping[str, Any],
        points: List[PointParams],
    ) -> ExecutionOutcome:
        """Execute (a subset of) the shards and merge every completed one.

        Raises:
            ExecutorConfigError: on an out-of-range ``shard_index``, a
                non-positive ``shard_count``, or a run directory that
                belongs to a different sweep.
        """
        run = open_run_dir(
            spec, preset, params, len(points), self.run_dir, self.shard_count
        )
        count = len(run.plan)
        if self.shard_index is not None and not 0 <= self.shard_index < count:
            raise ExecutorConfigError(
                f"shard index {self.shard_index} out of range for "
                f"{count} shard(s)"
            )
        selected = (
            range(count) if self.shard_index is None else [self.shard_index]
        )
        # checkpoints already parsed during the resume skip-check are kept
        # so the merge below never re-reads a file this invocation loaded
        preloaded: Dict[int, Dict[str, Any]] = {}
        for shard in selected:
            indices = run.plan[shard]
            if self.resume:
                loaded = load_checkpoint(
                    run.path, shard, indices, spec.columns, run.digest
                )
                if loaded is not None:
                    preloaded[shard] = loaded
                    continue
            start = time.perf_counter()
            rows = [execute_point(spec, points[index]) for index in indices]
            write_checkpoint(
                run.path, shard, count, indices, rows,
                time.perf_counter() - start, run.digest,
            )
        return merged_outcome(spec, run, preloaded)


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a CLI ``K/N`` shard selector into 0-based ``(index, count)``.

    ``K`` is 1-based on the command line (``--shard 2/8`` is the second of
    eight shards), matching how operators number farm-out slots.

    Raises:
        ValueError: on malformed text or ``K`` outside ``[1, N]``.
    """
    head, sep, tail = text.partition("/")
    if not sep:
        raise ValueError(f"expected K/N (e.g. 2/8), got {text!r}")
    try:
        index, count = int(head), int(tail)
    except ValueError:
        raise ValueError(f"expected integer K/N (e.g. 2/8), got {text!r}") from None
    if count < 1 or not 1 <= index <= count:
        raise ValueError(f"shard index must satisfy 1 <= K <= N, got {text!r}")
    return index - 1, count


def make_executor(
    name: Optional[str] = None,
    shard: Optional[Tuple[int, int]] = None,
    resume: bool = False,
    run_dir: Optional[Path] = None,
    workers: int = 0,
    lease_timeout: float = 0.0,
) -> Executor:
    """Build an executor from CLI-shaped options — the one backend decision.

    Without a ``name`` the options choose: any worker option (``workers``,
    ``lease_timeout``) means ``distributed``, any of ``shard``, ``resume``
    or ``run_dir`` means ``sharded``, and otherwise the backend is
    ``serial``.  An explicit name always wins.

    Args:
        name: one of :data:`EXECUTOR_NAMES`, or ``None`` to infer it.
        shard: 0-based ``(index, count)`` pair for the ``sharded`` backend
            (see :func:`parse_shard`); sets both the shard layout and the
            single shard this invocation executes.
        resume: reuse completed checkpoints (``sharded``/``distributed``).
        run_dir: checkpoint directory override (``sharded``/``distributed``).
        workers: local worker-process count for the ``distributed`` backend
            (0 means its default).
        lease_timeout: seconds a distributed shard lease stays valid without
            a heartbeat (0 means the backend's default).

    Raises:
        ValueError: on an unknown executor name, or options combined with a
            backend that does not take them.
    """
    if name is None:
        if workers or lease_timeout:
            name = "distributed"
        elif shard is not None or resume or run_dir is not None:
            name = "sharded"
        else:
            name = "serial"
    if name not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {name!r} (available: {', '.join(EXECUTOR_NAMES)})"
        )
    if name != "distributed" and (workers or lease_timeout):
        raise ValueError(
            "--workers/--lease-timeout require --executor distributed"
        )
    if name == "serial":
        if shard is not None or resume or run_dir is not None:
            raise ValueError(
                "--shard/--resume/--run-dir require --executor sharded "
                "(or distributed for --run-dir/--resume)"
            )
        return SerialExecutor()
    if name == "sharded":
        index, count = (None, None) if shard is None else shard
        return ShardedExecutor(
            run_dir=run_dir, shard_count=count, shard_index=index, resume=resume
        )
    if shard is not None:
        raise ValueError(
            "--shard is not supported by the distributed executor (the "
            "coordinator leases shards to workers itself)"
        )
    if workers < 0:
        raise ValueError(f"--workers must be non-negative, got {workers}")
    if lease_timeout < 0:
        raise ValueError(
            f"--lease-timeout must be non-negative, got {lease_timeout}"
        )
    # imported lazily: distributed.py builds on this module
    from repro.experiments.distributed import DistributedExecutor

    kwargs: Dict[str, Any] = {"run_dir": run_dir, "resume": resume}
    if workers > 0:
        kwargs["workers"] = workers
    if lease_timeout > 0:
        kwargs["lease_timeout"] = lease_timeout
    return DistributedExecutor(**kwargs)
