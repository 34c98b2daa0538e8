"""Worker-fault harness for the distributed executor backend.

The contract under test (see ``docs/architecture.md``, "Distributed
execution & serving"): a coordinator leases digest-checked shards to
workers, heartbeats keep leases alive, dead/hung workers' shards are
reassigned at least once, stale or corrupt submissions are rejected and
recomputed — and in every fault scenario the merged rows are bit-identical
to a clean serial run, because shards land as the same validated
checkpoints the sharded backend writes.

``FaultyWorker`` subclasses inject the faults at the
:meth:`~repro.experiments.distributed.ShardWorker.on_leased` seam (or by
overriding the compute/submit steps): SIGKILL mid-shard, hanging past the
lease, and corrupting the first submission.  Protocol-level scenarios
drive :meth:`~repro.experiments.distributed.ShardCoordinator.handle`
directly with a fake clock, so lease expiry and reassignment are
deterministic rather than timing-dependent.

Set ``REPRO_SKIP_DISTRIBUTED=1`` to skip the socket/process integration
tests on slow runners (the deterministic direct-handle tests always run).
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import random
import signal
import socket
import statistics
import threading
import time

import pytest

from repro.experiments.distributed import (
    DistributedExecutor,
    DistributedProtocolError,
    ShardCoordinator,
    ShardWorker,
    run_worker,
    send_request,
)
from repro.experiments.executors import (
    ExecutorConfigError,
    ensure_manifest,
    load_checkpoint,
    make_executor,
    merge_checkpoints,
    read_manifest,
    shard_indices,
    sweep_digest,
    write_checkpoint,
)
from repro.experiments.registry import (
    ExperimentSpec,
    all_experiments,
    get_experiment,
)
from repro.experiments.runner import run_experiment
from repro.experiments.serialization import (
    MAX_DEPTH,
    NestingError,
    check_depth,
    decode_nonfinite,
    decode_wire,
    encode_wire,
    read_json,
)
from repro.serve import ServeApp

INTEGRATION = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_DISTRIBUTED") == "1",
    reason="REPRO_SKIP_DISTRIBUTED=1",
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic lease expiry."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _noop_point(**kwargs):  # pragma: no cover - never executed
    raise AssertionError("synthetic spec points are submitted, not computed")


def synthetic_sweep(num_points: int, shard_count: int, run_dir):
    """A tiny synthetic sweep for protocol tests: no real compute needed."""
    spec = ExperimentSpec(
        id="prop",
        title="synthetic",
        columns=("i", "value"),
        point_fn=_noop_point,
        presets={"quick": {}, "default": {}, "hot": {}},
    )
    points = [{"i": index} for index in range(num_points)]
    digest = sweep_digest(spec.id, "quick", {}, num_points, shard_count)
    run_dir.mkdir(parents=True, exist_ok=True)
    ensure_manifest(run_dir, spec.id, "quick", {}, num_points, shard_count, digest)
    return spec, points, digest


def rows_for(indices):
    """The synthetic sweep's canonical rows for a shard's indices."""
    return [{"i": index, "value": index * 2} for index in indices]


def submit_message(worker, shard, digest, indices, rows):
    """A well-formed submit message (tests mutate copies to corrupt it)."""
    return {
        "op": "submit",
        "worker": worker,
        "shard": shard,
        "digest": digest,
        "indices": list(indices),
        "rows": encode_wire(rows),
        "compute_seconds": 0.001,
    }


# ----------------------------------------------------------------------
# wire codec: tuples and non-finite floats must survive the hop exactly
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_tuples_round_trip(self):
        value = {"sizes": (16, 36), "nested": ({"seeds": (1, 2)}, [3, (4,)])}
        assert decode_wire(encode_wire(value)) == value
        # and the encoded form is pure JSON
        json.dumps(encode_wire(value), allow_nan=False)

    def test_tuple_list_distinction_preserved(self):
        encoded = encode_wire({"t": (1, 2), "l": [1, 2]})
        decoded = decode_wire(encoded)
        assert isinstance(decoded["t"], tuple)
        assert isinstance(decoded["l"], list)

    def test_nonfinite_round_trip(self):
        value = [math.inf, -math.inf, {"x": math.inf}]
        decoded = decode_wire(json.loads(json.dumps(encode_wire(value))))
        assert decoded[0] == math.inf
        assert decoded[1] == -math.inf
        assert decoded[2]["x"] == math.inf

    def test_digest_agreement_after_round_trip(self):
        spec = get_experiment("e2")
        params = spec.params_for("quick")
        hopped = decode_wire(json.loads(json.dumps(encode_wire(params))))
        assert hopped == params
        points = spec.points(params)
        assert sweep_digest(spec.id, "quick", hopped, len(points), 2) == (
            sweep_digest(spec.id, "quick", params, len(points), 2)
        )


# ----------------------------------------------------------------------
# coordinator protocol: deterministic direct-handle scenarios
# ----------------------------------------------------------------------
class TestCoordinatorProtocol:
    def make(self, tmp_path, num_points=6, shard_count=3, lease_timeout=10.0,
             completed=()):
        clock = FakeClock()
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(num_points, shard_count, run_dir)
        coordinator = ShardCoordinator(
            spec, "quick", {}, points, shard_count, digest, run_dir,
            completed=completed, lease_timeout=lease_timeout, clock=clock,
        )
        return coordinator, clock, digest, run_dir

    def drain(self, coordinator, digest, worker="w"):
        """Lease and correctly submit until the sweep is done."""
        for _ in range(100):
            reply = coordinator.handle({"op": "lease", "worker": worker})
            if reply["op"] == "done":
                return
            assert reply["op"] == "assign"
            outcome = coordinator.handle(
                submit_message(
                    worker, reply["shard"], digest, reply["indices"],
                    rows_for(reply["indices"]),
                )
            )
            assert outcome["op"] == "accepted"
        raise AssertionError("sweep did not converge")

    def test_happy_path_writes_all_checkpoints(self, tmp_path):
        coordinator, _, digest, run_dir = self.make(tmp_path)
        self.drain(coordinator, digest)
        assert coordinator.finished
        plan = shard_indices(6, 3)
        rows_by_index, _ = merge_checkpoints(run_dir, plan, ("i", "value"), digest)
        assert sorted(rows_by_index) == list(range(6))
        assert all(rows_by_index[i] == {"i": i, "value": i * 2} for i in range(6))

    def test_dead_worker_lease_expires_and_reassigns(self, tmp_path):
        coordinator, clock, digest, _ = self.make(
            tmp_path, num_points=2, shard_count=2, lease_timeout=5.0
        )
        first = coordinator.handle({"op": "lease", "worker": "doomed"})
        assert first["op"] == "assign"
        # the other worker drains the queue, then must wait on the lease
        second = coordinator.handle({"op": "lease", "worker": "healthy"})
        assert second["op"] == "assign"
        coordinator.handle(
            submit_message("healthy", second["shard"], digest,
                           second["indices"], rows_for(second["indices"]))
        )
        assert coordinator.handle({"op": "lease", "worker": "healthy"})["op"] == "wait"
        # the doomed worker never heartbeats: past the timeout the shard
        # comes back and the healthy worker finishes the sweep
        clock.advance(5.1)
        reassigned = coordinator.handle({"op": "lease", "worker": "healthy"})
        assert reassigned["op"] == "assign"
        assert reassigned["shard"] == first["shard"]
        assert coordinator.stats["reassigned"] == 1
        coordinator.handle(
            submit_message("healthy", reassigned["shard"], digest,
                           reassigned["indices"], rows_for(reassigned["indices"]))
        )
        assert coordinator.finished

    def test_heartbeat_extends_lease(self, tmp_path):
        coordinator, clock, digest, _ = self.make(
            tmp_path, num_points=1, shard_count=1, lease_timeout=5.0
        )
        lease = coordinator.handle({"op": "lease", "worker": "slow"})
        for _ in range(4):
            clock.advance(4.0)
            beat = coordinator.handle(
                {"op": "heartbeat", "worker": "slow", "shard": lease["shard"]}
            )
            assert beat["valid"] is True
        # 16 simulated seconds of heartbeat-extended work later, the
        # submission still lands on the original lease
        outcome = coordinator.handle(
            submit_message("slow", lease["shard"], digest, lease["indices"],
                           rows_for(lease["indices"]))
        )
        assert outcome == {"op": "accepted", "duplicate": False}
        assert coordinator.stats["reassigned"] == 0

    def test_heartbeat_invalid_after_reassignment(self, tmp_path):
        coordinator, clock, _, _ = self.make(
            tmp_path, num_points=1, shard_count=1, lease_timeout=5.0
        )
        lease = coordinator.handle({"op": "lease", "worker": "hung"})
        clock.advance(5.1)
        other = coordinator.handle({"op": "lease", "worker": "other"})
        assert other["shard"] == lease["shard"]
        late = coordinator.handle(
            {"op": "heartbeat", "worker": "hung", "shard": lease["shard"]}
        )
        assert late["valid"] is False

    def test_stale_digest_rejected_and_requeued(self, tmp_path):
        coordinator, _, digest, run_dir = self.make(
            tmp_path, num_points=2, shard_count=2
        )
        lease = coordinator.handle({"op": "lease", "worker": "stale"})
        message = submit_message("stale", lease["shard"], "0" * 64,
                                 lease["indices"], rows_for(lease["indices"]))
        outcome = coordinator.handle(message)
        assert outcome["op"] == "rejected"
        assert "digest" in outcome["reason"]
        # nothing reached the directory for that shard
        assert not (run_dir / f"shard-{lease['shard']:04d}.json").exists()
        # the shard went back to the queue and still completes
        self.drain(coordinator, digest)
        assert coordinator.finished
        assert coordinator.stats["rejected"] == 1

    def test_corrupt_rows_rejected(self, tmp_path):
        coordinator, _, digest, _ = self.make(tmp_path, num_points=2,
                                              shard_count=2)
        lease = coordinator.handle({"op": "lease", "worker": "corrupt"})
        bad_schema = submit_message(
            "corrupt", lease["shard"], digest, lease["indices"],
            [{"i": index} for index in lease["indices"]],  # missing "value"
        )
        assert coordinator.handle(bad_schema)["op"] == "rejected"
        wrong_count = submit_message(
            "corrupt", lease["shard"], digest, lease["indices"], []
        )
        # the first rejection returned the shard to the queue, so re-lease
        lease = coordinator.handle({"op": "lease", "worker": "corrupt"})
        wrong_count["shard"] = lease["shard"]
        wrong_count["indices"] = lease["indices"]
        assert coordinator.handle(wrong_count)["op"] == "rejected"
        wrong_indices = submit_message(
            "corrupt", lease["shard"], digest, [99], rows_for([99])
        )
        lease = coordinator.handle({"op": "lease", "worker": "corrupt"})
        wrong_indices["shard"] = lease["shard"]
        assert coordinator.handle(wrong_indices)["op"] == "rejected"
        self.drain(coordinator, digest)
        assert coordinator.finished

    def test_duplicate_submission_acknowledged_not_rewritten(self, tmp_path):
        coordinator, clock, digest, run_dir = self.make(
            tmp_path, num_points=1, shard_count=1, lease_timeout=5.0
        )
        lease = coordinator.handle({"op": "lease", "worker": "a"})
        clock.advance(5.1)
        release = coordinator.handle({"op": "lease", "worker": "b"})
        assert release["shard"] == lease["shard"]
        accept = coordinator.handle(
            submit_message("b", release["shard"], digest, release["indices"],
                           rows_for(release["indices"]))
        )
        assert accept == {"op": "accepted", "duplicate": False}
        # worker a finishes late with identical (deterministic) rows
        late = coordinator.handle(
            submit_message("a", lease["shard"], digest, lease["indices"],
                           rows_for(lease["indices"]))
        )
        assert late == {"op": "accepted", "duplicate": True}
        assert coordinator.stats["duplicates"] == 1
        assert coordinator.finished

    def test_unknown_and_malformed_ops_answer_errors(self, tmp_path):
        coordinator, _, _, _ = self.make(tmp_path)
        assert coordinator.handle({"op": "launch"})["op"] == "error"
        assert coordinator.handle({})["op"] == "error"
        out_of_range = coordinator.handle(
            submit_message("w", 99, "x", [0], rows_for([0]))
        )
        assert out_of_range["op"] == "rejected"

    def test_describe_round_trips_params(self, tmp_path):
        clock = FakeClock()
        run_dir = tmp_path / "run"
        spec = get_experiment("e2")
        params = spec.params_for("quick")
        points = spec.points(params)
        digest = sweep_digest(spec.id, "quick", params, len(points), 2)
        run_dir.mkdir()
        ensure_manifest(run_dir, spec.id, "quick", params, len(points), 2, digest)
        coordinator = ShardCoordinator(
            spec, "quick", params, points, 2, digest, run_dir, clock=clock
        )
        description = coordinator.handle({"op": "describe"})
        hopped = decode_wire(json.loads(json.dumps(description["params"])))
        assert hopped == params
        assert description["digest"] == digest

    def granted(self, coordinator):
        """The shards one worker is granted, in order, until it must wait."""
        shards = []
        while True:
            reply = coordinator.handle({"op": "lease", "worker": "w"})
            if reply["op"] != "assign":
                return shards
            shards.append(reply["shard"])

    def test_fresh_sweep_leases_the_last_shard_first(self, tmp_path):
        coordinator, _, _, _ = self.make(tmp_path, num_points=4, shard_count=4)
        assert self.granted(coordinator) == [3, 2, 1, 0]

    def test_resumed_sweep_skips_its_completed_shards_in_that_order(
        self, tmp_path
    ):
        coordinator, _, _, _ = self.make(
            tmp_path, num_points=5, shard_count=5, completed=(1, 4)
        )
        assert self.granted(coordinator) == [3, 2, 0]

    def test_the_shard_holding_the_last_point_leases_first(self, tmp_path):
        # round-robin striping puts point 4 in shard 0 ([0, 2, 4]) ...
        coordinator, _, _, _ = self.make(tmp_path, num_points=5, shard_count=2)
        assert self.granted(coordinator) == [0, 1]
        # ... and shards beyond the point count are empty: they go last
        coordinator, _, _, _ = self.make(
            tmp_path / "wide", num_points=2, shard_count=4
        )
        assert self.granted(coordinator) == [1, 0, 2, 3]


@pytest.mark.parametrize("spec", all_experiments(), ids=lambda spec: spec.id)
def test_every_preset_ends_on_its_largest_point(spec):
    # the coordinator leases the shard holding the last point first, which
    # is the longest-processing-time rule only while each preset's last
    # point is its largest
    for preset in spec.presets:
        sizes = [point["n"] for point in spec.points(spec.params_for(preset))
                 if "n" in point]
        if sizes:
            assert sizes[-1] == max(sizes), (spec.id, preset, sizes)


# ----------------------------------------------------------------------
# hostile input: JSON nested past the recursion limit, and malformed
# compute times, are refused like any other malformed input
# ----------------------------------------------------------------------
#: nested far past the interpreter's recursion limit
DEEP_JSON = "[" * 200_000


def nested_list(depth):
    """A list nested ``depth`` levels deep."""
    value = []
    for _ in range(depth):
        value = [value]
    return value


def leased_coordinator(tmp_path, clock=None):
    """A one-shard synthetic sweep's coordinator, its shard leased to ``w``.

    Returns ``(coordinator, lease, digest)``; the run directory is
    ``tmp_path / "run"``.
    """
    run_dir = tmp_path / "run"
    spec, points, digest = synthetic_sweep(1, 1, run_dir)
    coordinator = ShardCoordinator(
        spec, "quick", {}, points, 1, digest, run_dir, lease_timeout=10.0,
        clock=clock or FakeClock(),
    )
    lease = coordinator.handle({"op": "lease", "worker": "w"})
    assert lease["op"] == "assign"
    return coordinator, lease, digest


def assert_rejected_and_requeued(coordinator, run_dir, message, reason):
    """The submission is rejected, nothing is written, the shard re-leases."""
    assert coordinator.handle(message) == {"op": "rejected", "reason": reason}
    assert not (run_dir / "shard-0000.json").exists()
    assert coordinator.handle({"op": "lease", "worker": "w"})["op"] == "assign"


def deep_manifest(tmp_path):
    (tmp_path / "manifest.json").write_text(DEEP_JSON)
    assert read_manifest(tmp_path) is None


def deep_checkpoint(tmp_path):
    (tmp_path / "shard-0000.json").write_text(DEEP_JSON)
    assert load_checkpoint(tmp_path, 0, [0], ("i",), "digest") is None


def deep_submitted_rows(tmp_path):
    coordinator, lease, digest = leased_coordinator(tmp_path)
    message = submit_message("w", 0, digest, lease["indices"], [])
    message["rows"] = nested_list(900)
    assert_rejected_and_requeued(
        coordinator, tmp_path / "run", message, "rows nested too deeply"
    )


def deep_request_line(tmp_path):
    coordinator, _, digest = leased_coordinator(tmp_path, clock=time.monotonic)
    address = coordinator.start()
    try:
        with socket.create_connection(address, timeout=10) as sock:
            sock.sendall(DEEP_JSON.encode() + b"\n")
            with sock.makefile("rb") as stream:
                reply = json.loads(stream.readline())
        assert reply["op"] == "error"
        assert send_request(address, {"op": "describe"})["digest"] == digest
    finally:
        coordinator.stop()


def deep_reply(tmp_path):
    with socket.create_server(("127.0.0.1", 0)) as server:
        def answer():
            connection, _ = server.accept()
            with connection:
                connection.makefile("rb").readline()
                connection.sendall(DEEP_JSON.encode() + b"\n")

        thread = threading.Thread(target=answer, daemon=True)
        thread.start()
        with pytest.raises(DistributedProtocolError, match="malformed reply"):
            send_request(server.getsockname()[:2], {"op": "describe"})
        thread.join(10)


def deep_manifest_served(tmp_path):
    (tmp_path / "runs" / "hostile").mkdir(parents=True)
    (tmp_path / "runs" / "hostile" / "manifest.json").write_text(DEEP_JSON)
    app = ServeApp(run_root=tmp_path / "runs", bench_path=tmp_path / "none.json")
    status, _, body = app.respond("/runs")
    assert status == 200
    assert json.loads(body)["runs"] == []


def deep_trajectory_served(tmp_path):
    (tmp_path / "BENCH_core.json").write_text(DEEP_JSON)
    app = ServeApp(run_root=tmp_path / "runs", bench_path=tmp_path / "BENCH_core.json")
    status, _, _ = app.respond("/bench/trajectory")
    assert status == 404


@pytest.mark.parametrize("reader", (
    deep_manifest, deep_checkpoint, deep_submitted_rows, deep_request_line,
    deep_reply, deep_manifest_served, deep_trajectory_served,
), ids=lambda reader: reader.__name__)
def test_deeply_nested_json_is_refused_not_raised(tmp_path, reader):
    reader(tmp_path)


#: the walks that bound a parsed value: the two decoders, and the check
#: for values kept whole
DEPTH_WALKS = (decode_wire, decode_nonfinite, check_depth)


@pytest.mark.parametrize("walk", DEPTH_WALKS, ids=lambda walk: walk.__name__)
@pytest.mark.parametrize("depth", (MAX_DEPTH + 1, 990))
def test_over_deep_json_gets_one_reason_on_every_interpreter(walk, depth):
    # decoding 990 levels recursed through on Python 3.12 but overflowed
    # on 3.11; the bound refuses them alike
    with pytest.raises(NestingError, match=f"^JSON nested deeper than {MAX_DEPTH} levels$"):
        walk(nested_list(depth - 1))


def test_parser_overflow_gets_the_same_reason():
    with pytest.raises(NestingError, match=f"^JSON nested deeper than {MAX_DEPTH} levels$"):
        read_json(DEEP_JSON)


@pytest.mark.parametrize("walk", DEPTH_WALKS, ids=lambda walk: walk.__name__)
def test_json_at_the_depth_bound_is_read(walk):
    assert walk(read_json("[" * MAX_DEPTH + "]" * MAX_DEPTH)) == nested_list(MAX_DEPTH - 1)


def test_a_tuple_marker_counts_two_levels():
    # {"__wire_tuple__": [...]} is an object and a list on the wire
    def wrapped(lists):
        value = (1,)
        for _ in range(lists):
            value = [value]
        return value

    assert decode_wire(encode_wire(wrapped(MAX_DEPTH - 2))) == wrapped(MAX_DEPTH - 2)
    with pytest.raises(NestingError):
        decode_wire(encode_wire(wrapped(MAX_DEPTH - 1)))


BAD_COMPUTE_SECONDS = ("nan", -5, "3", True, math.inf)


@pytest.mark.parametrize("value", BAD_COMPUTE_SECONDS, ids=repr)
def test_checkpoint_with_bad_compute_seconds_is_absent(tmp_path, value):
    write_checkpoint(tmp_path, 0, 1, [0], rows_for([0]), 0.5, "digest")
    path = tmp_path / "shard-0000.json"
    assert load_checkpoint(tmp_path, 0, [0], ("i", "value"), "digest") is not None
    data = json.loads(path.read_text())
    data["compute_seconds"] = value
    path.write_text(json.dumps(data))  # inf is written as Infinity
    assert load_checkpoint(tmp_path, 0, [0], ("i", "value"), "digest") is None


@pytest.mark.parametrize("value", BAD_COMPUTE_SECONDS, ids=repr)
def test_submission_with_bad_compute_seconds_is_rejected(tmp_path, value):
    coordinator, lease, digest = leased_coordinator(tmp_path)
    message = submit_message("w", 0, digest, lease["indices"], rows_for(lease["indices"]))
    message["compute_seconds"] = value
    assert_rejected_and_requeued(
        coordinator, tmp_path / "run", message, "malformed compute_seconds"
    )


#: the check must not over-reject: ints, floats and zero are all usable
GOOD_COMPUTE_SECONDS = (0, 0.0, 3, 2.5)


@pytest.mark.parametrize("value", GOOD_COMPUTE_SECONDS, ids=repr)
def test_checkpoint_with_good_compute_seconds_is_loaded(tmp_path, value):
    write_checkpoint(tmp_path, 0, 1, [0], rows_for([0]), value, "digest")
    loaded = load_checkpoint(tmp_path, 0, [0], ("i", "value"), "digest")
    assert loaded == {"rows": rows_for([0]), "compute_seconds": float(value)}


@pytest.mark.parametrize("value", GOOD_COMPUTE_SECONDS, ids=repr)
def test_submission_with_good_compute_seconds_is_accepted(tmp_path, value):
    coordinator, lease, digest = leased_coordinator(tmp_path)
    message = submit_message("w", 0, digest, lease["indices"], rows_for(lease["indices"]))
    message["compute_seconds"] = value
    assert coordinator.handle(message) == {"op": "accepted", "duplicate": False}
    loaded = load_checkpoint(
        tmp_path / "run", 0, lease["indices"], ("i", "value"), digest
    )
    assert loaded["compute_seconds"] == float(value)


# ----------------------------------------------------------------------
# property-style: random layouts and kill schedules always converge to a
# disjoint cover, and the digest never admits a foreign checkpoint
# ----------------------------------------------------------------------
class TestShardProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_kill_schedules_converge_to_disjoint_cover(
        self, seed, tmp_path
    ):
        rng = random.Random(seed)
        num_points = rng.randint(1, 12)
        shard_count = rng.randint(1, 8)
        worker_count = rng.randint(1, 4)
        clock = FakeClock()
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(num_points, shard_count, run_dir)
        coordinator = ShardCoordinator(
            spec, "quick", {}, points, shard_count, digest, run_dir,
            lease_timeout=5.0, clock=clock,
        )
        workers = [f"w{index}" for index in range(worker_count)]
        for _ in range(2000):
            if coordinator.finished:
                break
            worker = rng.choice(workers)
            reply = coordinator.handle({"op": "lease", "worker": worker})
            if reply["op"] == "wait":
                clock.advance(rng.uniform(0.5, 6.0))
                continue
            if reply["op"] == "done":
                break
            assert reply["op"] == "assign"
            fate = rng.random()
            if fate < 0.25:
                # the worker dies mid-shard: never submits, never beats
                clock.advance(rng.uniform(0.0, 8.0))
            elif fate < 0.35:
                # the worker submits garbage once (stale digest)
                coordinator.handle(
                    submit_message(worker, reply["shard"], "f" * 64,
                                   reply["indices"],
                                   rows_for(reply["indices"]))
                )
            else:
                coordinator.handle(
                    submit_message(worker, reply["shard"], digest,
                                   reply["indices"],
                                   rows_for(reply["indices"]))
                )
            clock.advance(rng.uniform(0.0, 1.0))
        assert coordinator.finished, (
            f"seed {seed}: layout {num_points}/{shard_count} never converged"
        )
        # the completed checkpoint files are a disjoint cover of the sweep
        plan = shard_indices(num_points, shard_count)
        seen = []
        for shard in range(shard_count):
            data = json.loads((run_dir / f"shard-{shard:04d}.json").read_text())
            assert data["digest"] == digest
            assert data["indices"] == plan[shard]
            seen.extend(data["indices"])
        assert sorted(seen) == list(range(num_points))
        rows_by_index, _ = merge_checkpoints(run_dir, plan, ("i", "value"), digest)
        assert [rows_by_index[i] for i in sorted(rows_by_index)] == rows_for(
            range(num_points)
        )

    def test_foreign_checkpoint_never_admitted(self, tmp_path):
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(4, 2, run_dir)
        plan = shard_indices(4, 2)
        # shard 0: genuine; shard 1: a checkpoint from some *other* sweep
        # (same shape, different digest) planted in the directory
        write_checkpoint(run_dir, 0, 2, plan[0], rows_for(plan[0]), 0.1, digest)
        write_checkpoint(run_dir, 1, 2, plan[1], rows_for(plan[1]), 0.1, "e" * 64)
        rows_by_index, _ = merge_checkpoints(run_dir, plan, ("i", "value"), digest)
        assert sorted(rows_by_index) == plan[0]
        # ... and a coordinator resuming this directory re-queues shard 1
        clock = FakeClock()
        completed = tuple(
            shard for shard in range(2)
            if merge_checkpoints(run_dir, plan, ("i", "value"), digest,
                                 )[0].keys() >= set(plan[shard])
        )
        coordinator = ShardCoordinator(
            spec, "quick", {}, points, 2, digest, run_dir,
            completed=completed, clock=clock,
        )
        reply = coordinator.handle({"op": "lease", "worker": "w"})
        assert reply["op"] == "assign"
        assert reply["shard"] == 1


# ----------------------------------------------------------------------
# executor configuration surface
# ----------------------------------------------------------------------
class TestDistributedConfig:
    def test_make_executor_builds_distributed(self):
        backend = make_executor("distributed", workers=3, lease_timeout=7.0)
        assert isinstance(backend, DistributedExecutor)
        assert backend.workers == 3
        assert backend.lease_timeout == 7.0
        assert backend.name == "distributed"

    def test_defaults_apply_when_unset(self):
        backend = make_executor("distributed")
        assert backend.workers == DistributedExecutor.workers
        assert backend.lease_timeout == DistributedExecutor.lease_timeout

    def test_distributed_rejects_sharded_options(self):
        with pytest.raises(ValueError):
            make_executor("distributed", shard=(0, 2))

    def test_worker_options_rejected_on_other_backends(self):
        for name in ("serial", "sharded"):
            with pytest.raises(ValueError):
                make_executor(name, workers=2)

    def test_executor_validates_its_own_config(self):
        spec = get_experiment("e2")
        params = spec.params_for("quick")
        points = spec.points(params)
        with pytest.raises(ExecutorConfigError):
            DistributedExecutor(workers=0).execute(spec, "quick", params, points)
        with pytest.raises(ExecutorConfigError):
            DistributedExecutor(lease_timeout=0.0).execute(
                spec, "quick", params, points
            )
        with pytest.raises(ExecutorConfigError):
            DistributedExecutor(spawn_workers=False).execute(
                spec, "quick", params, points
            )

    def test_runner_rejects_worker_options_with_instance(self):
        from repro.experiments.executors import SerialExecutor

        with pytest.raises(ValueError, match="workers"):
            run_experiment("e2", preset="quick", executor=SerialExecutor(),
                           workers=2)


# ----------------------------------------------------------------------
# worker backoff: a vanished coordinator terminates the worker cleanly
# ----------------------------------------------------------------------
def _free_port():
    """A loopback port nothing listens on (bind, read, close)."""
    import socket as socket_module

    probe = socket_module.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestWorkerBackoff:
    def test_unreachable_coordinator_raises_after_backoff(self, monkeypatch):
        sleeps = []
        real_sleep = time.sleep

        def recording_sleep(seconds):
            sleeps.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(time, "sleep", recording_sleep)
        worker = ShardWorker(
            ("127.0.0.1", _free_port()), backoff_base=0.01, backoff_cap=0.02,
            max_attempts=3, request_timeout=0.2,
        )
        start = time.perf_counter()
        with pytest.raises(DistributedProtocolError, match="unreachable"):
            worker.run()
        # three attempts with backoff between them actually waited ...
        assert time.perf_counter() - start >= 0.02
        # ... one backoff between each pair of attempts, none after the last
        assert sleeps == [0.01, 0.02]


# ----------------------------------------------------------------------
# socket/process integration: real workers, real faults
# ----------------------------------------------------------------------
def _start_worker(worker):
    """Run ``worker`` on a daemon thread; return the thread and a list that
    receives its result, or the exception it raised."""
    outcome = []

    def target():
        try:
            outcome.append(worker.run())
        except Exception as error:  # surfaced by the caller's assertion
            outcome.append(error)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, outcome


class HangingWorker(ShardWorker):
    """Hangs (without heartbeating) past the lease on its first shard."""

    def __init__(self, *args, hang_seconds=1.5, **kwargs):
        super().__init__(*args, **kwargs)
        self.hang_seconds = hang_seconds
        self.hung = False

    def on_leased(self, shard):
        if not self.hung:
            self.hung = True
            time.sleep(self.hang_seconds)


class CorruptingWorker(ShardWorker):
    """Submits a schema-corrupt payload for its first shard, then behaves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.corrupted = False

    def _compute(self, spec, points, indices, shard, interval):
        rows, elapsed = super()._compute(spec, points, indices, shard, interval)
        if not self.corrupted:
            self.corrupted = True
            rows = [{key: row[key] for key in list(row)[:1]} for row in rows]
        return rows, elapsed


def _suicide_worker_main(host, port):
    """Process target: lease one shard, then SIGKILL ourselves mid-shard."""

    class _Suicide(ShardWorker):
        def on_leased(self, shard):
            os.kill(os.getpid(), signal.SIGKILL)

    _Suicide((host, port), heartbeat_interval=60.0).run()


class _JoinTogetherWorker(ShardWorker):
    """Waits at ``barrier`` after its ``describe`` until its peers joined too."""

    def __init__(self, *args, barrier, **kwargs):
        super().__init__(*args, **kwargs)
        self.barrier = barrier

    def resolve_spec(self, experiment_id):
        self.barrier.wait()
        return super().resolve_spec(experiment_id)


def _real_sweep(tmp_path, experiment="e2", overrides=None, lease_timeout=1.0):
    """A real quick sweep's coordinator (bound, not yet serving)."""
    spec = get_experiment(experiment)
    params = spec.params_for("quick", overrides)
    points = spec.points(params)
    count = len(points)
    digest = sweep_digest(spec.id, "quick", params, count, count)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    ensure_manifest(run_dir, spec.id, "quick", params, count, count, digest)
    coordinator = ShardCoordinator(
        spec, "quick", params, points, count, digest, run_dir,
        lease_timeout=lease_timeout,
    )
    return spec, params, points, digest, run_dir, coordinator


def _merged_rows(run_dir, spec, points, digest):
    plan = shard_indices(len(points), len(points))
    rows_by_index, _ = merge_checkpoints(run_dir, plan, spec.columns, digest)
    assert sorted(rows_by_index) == list(range(len(points)))
    return [rows_by_index[i] for i in sorted(rows_by_index)]


@INTEGRATION
class TestExecutorBitIdentity:
    def test_e2_matches_serial(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        result = run_experiment("e2", preset="quick", workers=2,
                                run_dir=tmp_path / "run")
        assert result.rows == serial.rows
        assert result.executor == "distributed"
        assert result.pending_points == 0

    def test_e4_random_stream_matches_serial(self, tmp_path):
        serial = run_experiment("e4", preset="quick")
        result = run_experiment("e4", preset="quick", executor="distributed",
                                workers=2, run_dir=tmp_path / "run")
        assert result.rows == serial.rows

    def test_adversity_sweep_matches_serial(self, tmp_path):
        overrides = {"adversity": "loss"}
        serial = run_experiment("e7", preset="quick", overrides=overrides)
        result = run_experiment("e7", preset="quick", overrides=overrides,
                                workers=2, run_dir=tmp_path / "run")
        assert result.rows == serial.rows

    def test_resume_reuses_checkpoints(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        spec, params, points, digest, run_dir, _ = _real_sweep(tmp_path)
        # one shard is already on disk from an earlier (interrupted) run
        plan = shard_indices(len(points), len(points))
        from repro.experiments.executors import execute_point

        write_checkpoint(run_dir, 0, len(points), plan[0],
                         [execute_point(spec, points[i]) for i in plan[0]],
                         0.5, digest)
        result = run_experiment("e2", preset="quick", workers=2, resume=True,
                                run_dir=run_dir)
        assert result.rows == serial.rows
        # the pre-existing shard's compute time was merged, not recomputed
        assert result.wall_seconds >= 0.5


@INTEGRATION
class TestWorkerFaults:
    def test_sigkilled_worker_shard_is_reassigned(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        spec, _, points, digest, run_dir, coordinator = _real_sweep(
            tmp_path, lease_timeout=0.75
        )
        host, port = coordinator.bind()
        ctx = multiprocessing.get_context("spawn")
        victim = ctx.Process(target=_suicide_worker_main, args=(host, port),
                             daemon=True)
        victim.start()
        coordinator.start()
        try:
            victim.join(timeout=60.0)
            assert victim.exitcode == -signal.SIGKILL
            healthy = ctx.Process(target=run_worker, args=(host, port),
                                  daemon=True)
            healthy.start()
            assert coordinator.await_finished(60.0), "sweep did not converge"
            healthy.join(timeout=30.0)
        finally:
            coordinator.stop()
        assert coordinator.stats["reassigned"] >= 1
        assert _merged_rows(run_dir, spec, points, digest) == serial.rows

    def test_hanging_worker_shard_is_reassigned(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        spec, _, points, digest, run_dir, coordinator = _real_sweep(
            tmp_path, lease_timeout=0.4
        )
        host, port = coordinator.start()
        hanging = HangingWorker((host, port), hang_seconds=1.2,
                                heartbeat_interval=60.0)
        hang_thread, _ = _start_worker(hanging)
        # wait until the hanging worker actually holds a lease before the
        # healthy worker joins, so the fault deterministically occurs
        deadline = time.monotonic() + 30.0
        while not hanging.hung:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        healthy_thread, healthy_outcome = _start_worker(ShardWorker((host, port)))
        try:
            assert coordinator.await_finished(60.0), "sweep did not converge"
            # let the hung worker wake up and submit its (duplicate) shard
            hang_thread.join(timeout=30.0)
            healthy_thread.join(timeout=30.0)
        finally:
            coordinator.stop()
        assert [type(value) for value in healthy_outcome] == [int]
        assert coordinator.stats["reassigned"] >= 1
        assert _merged_rows(run_dir, spec, points, digest) == serial.rows

    def test_corrupting_worker_retries_and_converges(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        spec, _, points, digest, run_dir, coordinator = _real_sweep(tmp_path)
        host, port = coordinator.start()
        thread, outcome = _start_worker(CorruptingWorker((host, port)))
        try:
            assert coordinator.await_finished(60.0), "sweep did not converge"
            thread.join(timeout=30.0)
        finally:
            coordinator.stop()
        assert [type(value) for value in outcome] == [int]
        assert coordinator.stats["rejected"] >= 1
        assert _merged_rows(run_dir, spec, points, digest) == serial.rows

    def test_worker_code_skew_refused(self, tmp_path):
        # the worker re-expands the sweep with its *own* code; when that
        # expansion disagrees with the coordinator's (a drifted checkout),
        # the recomputed identity no longer matches and the worker refuses
        # before computing anything
        spec, params, points, digest, run_dir, coordinator = _real_sweep(
            tmp_path
        )
        host, port = coordinator.start()

        class SkewedWorker(ShardWorker):
            def resolve_spec(self, experiment_id):
                real = get_experiment(experiment_id)

                def drifted_points(resolved):
                    return real.points(resolved) + [{"n": 999}]

                return ExperimentSpec(
                    id=real.id, title=real.title, columns=real.columns,
                    point_fn=real.point_fn, presets=real.presets,
                    topologies=real.topologies,
                    adversities=real.adversities,
                    points_fn=drifted_points,
                )

        try:
            with pytest.raises(DistributedProtocolError, match="digest"):
                SkewedWorker((host, port)).run()
        finally:
            coordinator.stop()

    def test_send_request_round_trip_over_socket(self, tmp_path):
        _, _, _, digest, _, coordinator = _real_sweep(tmp_path)
        address = coordinator.start()
        try:
            description = send_request(address, {"op": "describe"})
            assert description["op"] == "sweep"
            assert description["digest"] == digest
            error = send_request(address, {"op": "nonsense"})
            assert error["op"] == "error"
        finally:
            coordinator.stop()


class _ParkSignal(ShardCoordinator):
    """A coordinator that flags the moment a request parks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.parked = threading.Event()

    def _park(self, ready, timeout):
        self.parked.set()
        return super()._park(ready, timeout)


@INTEGRATION
class TestLongPollAndShutdown:
    def test_idle_stop_returns_without_waiting_for_a_poll(self, tmp_path):
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(1, 1, run_dir)
        stops = []
        for _ in range(20):
            coordinator = ShardCoordinator(spec, "quick", {}, points, 1,
                                           digest, run_dir)
            coordinator.start()
            start = time.perf_counter()
            coordinator.stop()
            stops.append(time.perf_counter() - start)
        # an accept loop that polled for the stop every 50 ms would take
        # about that long here; a woken one returns in well under a ms
        assert statistics.median(stops) < 0.025

    def test_parked_lease_wakes_on_rejected_submission(self, tmp_path):
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(1, 1, run_dir)
        coordinator = _ParkSignal(spec, "quick", {}, points, 1, digest,
                                  run_dir, lease_timeout=8.0)
        address = coordinator.start()
        window = coordinator.wait_window
        try:
            held = send_request(address, {"op": "lease", "worker": "holder"})
            assert held["op"] == "assign"
            replies = []
            waiter = threading.Thread(
                target=lambda: replies.append(send_request(
                    address, {"op": "lease", "worker": "parked"})),
                daemon=True,
            )
            waiter.start()
            assert coordinator.parked.wait(timeout=10.0)
            start = time.monotonic()
            rejected = send_request(address, submit_message(
                "holder", held["shard"], "0" * 64, held["indices"],
                rows_for(held["indices"])))
            assert rejected["op"] == "rejected"
            waiter.join(timeout=10.0)
            assert time.monotonic() - start < window / 2
        finally:
            coordinator.stop()
        assert replies[0]["op"] == "assign"
        assert replies[0]["shard"] == held["shard"]

    def test_parked_lease_wakes_when_the_lease_is_reaped(self, tmp_path):
        run_dir = tmp_path / "run"
        spec, points, digest = synthetic_sweep(1, 1, run_dir)
        coordinator = ShardCoordinator(spec, "quick", {}, points, 1, digest,
                                       run_dir, lease_timeout=1.2)
        address = coordinator.start()
        window = coordinator.wait_window
        try:
            start = time.monotonic()
            held = send_request(address, {"op": "lease", "worker": "silent"})
            waits = 0
            while True:
                reply = send_request(address, {"op": "lease", "worker": "next"})
                if reply["op"] != "wait":
                    break
                # a parked lease answers "re-lease now", never "sleep"
                assert reply["seconds"] == 0
                waits += 1
            elapsed = time.monotonic() - start
        finally:
            coordinator.stop()
        assert reply["op"] == "assign"
        assert reply["shard"] == held["shard"]
        # each wait was a full parked window, not a busy poll ...
        assert waits <= math.ceil(1.2 / window)
        # ... and the expiry was answered well inside the window it fell in
        assert 1.2 <= elapsed < 1.2 + window / 2

    def test_local_workers_exit_without_terminate(self, tmp_path, monkeypatch):
        terminated = []
        original = multiprocessing.process.BaseProcess.terminate

        def spy(process):
            terminated.append(process.name)
            original(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "terminate",
                            spy)
        result = run_experiment("e2", preset="quick", workers=2,
                                run_dir=tmp_path / "run")
        assert result.pending_points == 0
        assert terminated == []

    def test_external_workers_return_normally(self, tmp_path):
        serial = run_experiment("e2", preset="quick")
        spec = get_experiment("e2")
        params = spec.params_for("quick")
        points = spec.points(params)
        port = _free_port()
        # the workers back off until the coordinator below is bound; the
        # barrier holds both until each has described itself, since only a
        # worker the coordinator has seen is owed a ``done`` before it stops
        joined = threading.Barrier(2, timeout=30.0)
        started = [
            _start_worker(_JoinTogetherWorker(
                ("127.0.0.1", port), barrier=joined,
                worker_id=f"external-{index}",
            ))
            for index in range(2)
        ]
        outcome = DistributedExecutor(
            spawn_workers=False, wall_timeout=60.0, port=port,
            run_dir=tmp_path / "run",
        ).execute(spec, "quick", params, points)
        for thread, _ in started:
            thread.join(timeout=30.0)
        results = [result for _, result in started]
        assert [[type(value) for value in result] for result in results] == [
            [int], [int]
        ]
        assert sum(result[0] for result in results) == len(points)
        assert outcome.pending_points == 0
        assert outcome.rows == serial.rows
