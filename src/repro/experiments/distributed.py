"""Distributed sweep execution: a shard-leasing coordinator plus workers.

The ``distributed`` backend farms the sharded executor's deterministic
shards out to worker *processes* (local or across a LAN) instead of
executing them inline.  A :class:`ShardCoordinator` owns the shard queue and
leases shards over a tiny JSON-over-TCP protocol; :class:`ShardWorker`
processes lease, compute, and submit shards back, heartbeating while they
work and reconnecting with exponential backoff when the coordinator is
briefly unreachable.  :class:`DistributedExecutor` wires the two together
behind the unchanged :class:`~repro.experiments.executors.Executor`
protocol, so ``run_experiment(..., executor="distributed")`` is all it takes.

Fault model
-----------
Workers are assumed to fail arbitrarily: they may be SIGKILLed mid-shard,
hang past their lease, partition away from the coordinator, or submit stale
or corrupt payloads.  The design holds the merged result bit-identical to a
serial run through three mechanisms:

* **Leases + heartbeats.**  A leased shard must be heartbeat within
  ``lease_timeout`` seconds or the lease expires and the shard returns to
  the pending queue (*at-least-once* reassignment).  A worker whose lease
  was reassigned learns so from its next heartbeat reply.
* **Digest-checked submissions.**  Every submission must carry the sweep
  digest, the shard's exact point indices, and rows matching the spec's
  column schema — the same validation
  :func:`~repro.experiments.executors.load_checkpoint` applies to files on
  disk — before the coordinator writes the checkpoint.  A stale submission
  from a differently-parameterised sweep (or a worker running drifted code)
  is rejected and the shard re-queued.
* **Deterministic rows.**  Every sweep point carries its own seeds, so a
  shard computed twice (the at-least-once case) yields byte-identical rows;
  duplicate submissions of a completed shard are acknowledged and discarded.

Because accepted shards land as the *same* digest-checked checkpoint files
the sharded executor writes (and the merge reads every row back through the
JSON decoder), a distributed run directory is interchangeable with a
sharded one: ``--resume`` works across backends and the merged rows equal a
serial run bit-for-bit.  ``tests/test_distributed.py`` holds the
worker-fault harness proving all of this under SIGKILL, hangs, and corrupt
submissions.

Wire protocol
-------------
One JSON object per connection, newline-terminated, reply in kind
(connection-per-request keeps a partitioned or killed peer from wedging
either side).  Resolved sweep parameters cross the wire under the
tuple-preserving encoding of
:func:`~repro.experiments.serialization.encode_wire`, and workers recompute
the sweep digest from the decoded parameters — a codec or code-version skew
is refused before any shard runs.

=============  ==========================================================
request op     reply op
=============  ==========================================================
``describe``   ``sweep`` — experiment id, preset, wire-encoded params,
               point/shard counts, digest, lease timeout
``lease``      ``assign`` (shard + indices) / ``wait`` / ``done``; a lease
               with nothing to grant is parked server-side for up to one
               wait window and answered the moment a shard is re-queued or
               the sweep completes (``wait`` with ``seconds`` 0: re-lease)
``heartbeat``  ``ok`` with ``valid`` false once the lease was reassigned
``submit``     ``accepted`` (``duplicate`` true when already complete) /
               ``rejected`` with a reason, shard re-queued
=============  ==========================================================

Shutdown is an announcement, not a refused connection: once every shard is
complete the coordinator keeps answering ``done`` until each worker it has
seen has been told so (bounded by one wait window, so a dead worker cannot
hold it), and only then stops serving.  Local workers exit on their own.
The stop itself wakes the accept loop through a socket pair, so it costs no
poll interval.

Pending shards lease largest first: every preset lists its points in
ascending size, so the shard holding the latest point goes out first and
the sweep's longest point starts at once instead of behind a short one.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import selectors
import socket
import socketserver
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.experiments.executors import (
    ExecutionOutcome,
    ExecutorConfigError,
    execute_point,
    load_checkpoint,
    merged_outcome,
    open_run_dir,
    shard_indices,
    sweep_digest,
    valid_compute_seconds,
    write_checkpoint,
)
from repro.experiments.registry import (
    ExperimentSpec,
    PointParams,
    get_experiment,
)
from repro.experiments.serialization import (
    NestingError,
    decode_wire,
    encode_wire,
    read_json,
)

#: wire protocol version; bumped on incompatible message changes
PROTOCOL = 1

#: hard cap on one wire message (a quick-preset shard is a few KiB)
MAX_MESSAGE_BYTES = 32 * 1024 * 1024


class DistributedProtocolError(RuntimeError):
    """A worker/coordinator exchange failed in a way retries cannot fix.

    Raised for version or digest skew between the two sides, malformed
    replies, and a coordinator that stays unreachable past the backoff
    budget — conditions where continuing could only waste compute or
    (worse) submit rows for the wrong sweep.
    """


def send_request(
    address: Tuple[str, int],
    payload: Mapping[str, Any],
    timeout: float = 10.0,
) -> Dict[str, Any]:
    """Send one JSON request to ``address`` and return the JSON reply.

    One connection per request: connect, write a single newline-terminated
    JSON object, read a single reply line, close.  Raises ``OSError`` on
    connection/timeout trouble (the worker's backoff loop retries those)
    and :class:`DistributedProtocolError` on a malformed or oversized reply.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
        with sock.makefile("rb") as stream:
            line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        raise ConnectionError("peer closed the connection without replying")
    if len(line) > MAX_MESSAGE_BYTES:
        raise DistributedProtocolError("oversized reply from coordinator")
    try:
        reply = read_json(line.decode("utf-8"))
    except ValueError as error:
        raise DistributedProtocolError(f"malformed reply: {error}") from None
    if not isinstance(reply, dict):
        raise DistributedProtocolError("reply is not a JSON object")
    return reply


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
@dataclass
class _Lease:
    """One outstanding shard lease: who holds it and until when."""

    worker: str
    deadline: float


class _CoordinatorServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server dispatching wire messages to the coordinator.

    Its accept loop selects on the listening socket and on one end of a
    socket pair; :meth:`wake` writes to the other end, so a stop ends the
    loop at once instead of at the next poll.
    """

    allow_reuse_address = True
    daemon_threads = True
    coordinator: "ShardCoordinator"

    def __init__(self, address: Tuple[str, int], handler: type) -> None:
        """Bind and listen on ``address``, then open the wake-up pair."""
        super().__init__(address, handler)
        self._waker, self._wakeup = socket.socketpair()

    def serve_until_woken(self) -> None:
        """Accept and dispatch connections until :meth:`wake` is called."""
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wakeup, selectors.EVENT_READ)
            while True:
                ready = selector.select()
                if any(key.fileobj is self._wakeup for key, _ in ready):
                    return
                # the listening socket is readable: accept without blocking
                self._handle_request_noblock()

    def wake(self) -> None:
        """End :meth:`serve_until_woken` (callable from any thread)."""
        self._waker.send(b"\0")

    def server_close(self) -> None:
        """Close the listening socket and the wake-up pair."""
        super().server_close()
        self._waker.close()
        self._wakeup.close()


class _CoordinatorHandler(socketserver.StreamRequestHandler):
    """One request: read a JSON line, dispatch, write the JSON reply."""

    def setup(self) -> None:
        """Bound the read so a partitioned client cannot pin the thread."""
        self.request.settimeout(10.0)
        super().setup()

    def handle(self) -> None:
        """Dispatch one wire message to :meth:`ShardCoordinator.handle`."""
        try:
            line = self.rfile.readline(MAX_MESSAGE_BYTES + 1)
            if not line or len(line) > MAX_MESSAGE_BYTES:
                raise ValueError("missing or oversized request")
            message = read_json(line.decode("utf-8"))
            if not isinstance(message, dict):
                raise ValueError("request is not a JSON object")
        except (OSError, ValueError) as error:
            reply: Dict[str, Any] = {"op": "error", "reason": str(error)}
        else:
            reply = self.server.coordinator.handle(message, long_poll=True)
        try:
            self.wfile.write(json.dumps(reply).encode("utf-8") + b"\n")
        except OSError:
            pass  # client vanished mid-reply; its retry will re-ask


class ShardCoordinator:
    """Leases one sweep's shards to workers and checkpoints their results.

    The coordinator owns the pending-shard queue, the outstanding leases,
    and the completed set; every state transition happens under one lock
    inside :meth:`handle`, which is plain-callable (the fault-harness and
    property tests drive it directly, with an injected clock) and is what
    the TCP server invokes per request.  A condition over that lock is
    notified on every transition that can change a ``lease`` answer, so
    parked leases and the executor's wait loop wake on it instead of
    polling.  Completed shards are written
    through :func:`~repro.experiments.executors.write_checkpoint` into the
    standard run-directory layout, so everything downstream (resume, merge,
    ``repro serve``) is backend-agnostic.

    Attributes:
        stats: monotonic counters — ``leases_granted``, ``reassigned``,
            ``accepted``, ``rejected``, ``duplicates``, ``heartbeats`` —
            exposed for tests and operational logging.
    """

    def __init__(
        self,
        spec: ExperimentSpec,
        preset: str,
        params: Mapping[str, Any],
        points: List[PointParams],
        shard_count: int,
        digest: str,
        run_dir: Path,
        completed: Tuple[int, ...] = (),
        lease_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        """Set up coordinator state; call :meth:`start` to serve.

        Raises:
            ValueError: on a non-positive ``lease_timeout``.
        """
        if lease_timeout <= 0:
            raise ValueError(
                f"lease timeout must be positive, got {lease_timeout}"
            )
        self._spec = spec
        self._preset = preset
        self._params = dict(params)
        self._points = points
        self._shard_count = shard_count
        self._digest = digest
        self._run_dir = Path(run_dir)
        self._plan = shard_indices(len(points), shard_count)
        self._lease_timeout = lease_timeout
        self._clock = clock
        self._host = host
        self._port = port
        done = set(completed)
        # longest first (Graham's LPT rule): presets list their points in
        # ascending size, so the shard holding the latest point leases first
        # and the largest point never waits for a worker to free up
        self._pending = deque(
            sorted(
                (shard for shard in range(shard_count) if shard not in done),
                key=lambda shard: self._plan[shard][-1:],  # empty shards last
                reverse=True,
            )
        )
        self._leases: Dict[int, _Lease] = {}
        self._completed = done
        self._lock = threading.Lock()
        # notified on every transition that can change a lease answer
        self._changed = threading.Condition(self._lock)
        self._seen: Set[str] = set()
        self._told_done: Set[str] = set()
        self.stats: Dict[str, int] = {
            "leases_granted": 0,
            "reassigned": 0,
            "accepted": 0,
            "rejected": 0,
            "duplicates": 0,
            "heartbeats": 0,
        }
        self._server: Optional[_CoordinatorServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def bind(self) -> Tuple[str, int]:
        """Bind the TCP server (without serving yet) and return the address.

        Split from :meth:`start` so callers can learn the ephemeral port —
        and fork worker processes — *before* any server thread exists.
        """
        if self._server is None:
            self._server = _CoordinatorServer(
                (self._host, self._port), _CoordinatorHandler
            )
            self._server.coordinator = self
        return self.address

    def start(self) -> Tuple[str, int]:
        """Bind (if needed) and serve requests on a daemon thread."""
        self.bind()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_until_woken,
                name="repro-coordinator",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._server is not None:
            if self._thread is not None:
                self._server.wake()
                self._thread.join(timeout=5.0)
                self._thread = None
            self._server.server_close()
            self._server = None

    def __enter__(self) -> "ShardCoordinator":
        """Start serving on context entry."""
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Stop serving on context exit."""
        self.stop()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; binds the server if needed."""
        if self._server is None:
            self.bind()
        host, port = self._server.server_address[:2]
        return host, port

    # -- observability --------------------------------------------------
    @property
    def finished(self) -> bool:
        """True when every shard has a validated checkpoint."""
        with self._lock:
            return self._all_complete()

    @property
    def wait_window(self) -> float:
        """Seconds a ``lease`` with nothing to grant is parked (or waits)."""
        return min(1.0, self._lease_timeout / 4)

    # -- waiting --------------------------------------------------------
    def expect(self, worker: str) -> None:
        """Count ``worker`` as seen before it connects (a local worker)."""
        with self._lock:
            self._seen.add(worker)

    def await_finished(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds until every shard is complete.

        Expired leases are reaped on the way, at their deadlines.
        """
        with self._lock:
            return self._park(self._all_complete, timeout)

    def await_farewells(self, timeout: float) -> bool:
        """Block up to ``timeout`` seconds until every seen worker was told
        ``done`` — the coordinator's cue that stopping strands no one."""
        with self._lock:
            return self._park(lambda: self._seen <= self._told_done, timeout)

    def _all_complete(self) -> bool:
        """True when every shard has a checkpoint (lock held)."""
        return len(self._completed) == self._shard_count

    def _park(self, ready: Callable[[], bool], timeout: float) -> bool:
        """Wait (lock held) up to ``timeout`` seconds for ``ready()``.

        Wakes on every notification and at the earliest lease deadline, so
        an expiry re-queues its shard as promptly as any other transition.
        ``ready()`` and the wait are checked under one lock hold, so no
        notification is lost in between.
        """
        end = time.monotonic() + timeout
        while not ready():
            remaining = end - time.monotonic()
            if remaining <= 0:
                return False
            expiry = min(
                (lease.deadline for lease in self._leases.values()),
                default=math.inf,
            )
            # a lease expires strictly after its deadline: wake just past it
            until_expiry = max(expiry - self._clock(), 0.0) + 1e-3
            self._changed.wait(min(remaining, until_expiry))
            self._reap_expired(self._clock())
        return True

    # -- the protocol ---------------------------------------------------
    def handle(
        self, message: Mapping[str, Any], long_poll: bool = False
    ) -> Dict[str, Any]:
        """Process one wire message and return the reply object.

        With ``long_poll`` (the TCP server's mode) a ``lease`` that would
        answer ``wait`` is parked for up to :attr:`wait_window` seconds and
        re-answered as soon as a shard is re-queued or the sweep completes;
        without it every call returns at once (the fake-clock harness).

        Unknown or malformed operations yield an ``error`` reply instead of
        raising: a confused (or malicious) client must never take the
        coordinator down with it.
        """
        op = message.get("op")
        try:
            if op == "describe":
                return self._describe(message.get("worker"))
            if op == "lease":
                return self._lease(str(message.get("worker", "?")), long_poll)
            if op == "heartbeat":
                return self._heartbeat(
                    str(message.get("worker", "?")), message.get("shard")
                )
            if op == "submit":
                return self._submit(message)
        except (TypeError, ValueError, KeyError) as error:
            return {"op": "error", "reason": f"malformed {op}: {error}"}
        return {"op": "error", "reason": f"unknown op {op!r}"}

    def _describe(self, worker: Any) -> Dict[str, Any]:
        """The sweep identity a (possibly remote) worker needs to join."""
        if worker is not None:
            with self._lock:
                self._seen.add(str(worker))
        return {
            "op": "sweep",
            "protocol": PROTOCOL,
            "experiment": self._spec.id,
            "preset": self._preset,
            "params": encode_wire(self._params),
            "num_points": len(self._points),
            "shard_count": self._shard_count,
            "digest": self._digest,
            "lease_timeout": self._lease_timeout,
        }

    def _reap_expired(self, now: float) -> None:
        """Re-queue every lease whose deadline passed (lock held)."""
        expired = [
            shard for shard, lease in self._leases.items() if lease.deadline < now
        ]
        for shard in expired:
            del self._leases[shard]
            self._pending.append(shard)
            self.stats["reassigned"] += 1
        if expired:
            self._changed.notify_all()

    def _lease(self, worker: str, long_poll: bool) -> Dict[str, Any]:
        """Grant the next pending shard, or say wait/done."""
        with self._lock:
            self._seen.add(worker)
            reply = self._grant(worker)
            if reply["op"] == "wait" and long_poll:
                self._park(
                    lambda: bool(self._pending) or self._all_complete(),
                    self.wait_window,
                )
                reply = self._grant(worker)
                if reply["op"] == "wait":
                    reply["seconds"] = 0
            return reply

    def _grant(self, worker: str) -> Dict[str, Any]:
        """One non-blocking ``lease`` answer (lock held)."""
        now = self._clock()
        self._reap_expired(now)
        if self._all_complete():
            self._told_done.add(worker)
            self._changed.notify_all()
            return {"op": "done"}
        if not self._pending:
            # everything is leased out: ask again within the lease window
            # so an expiry is picked up promptly
            return {"op": "wait", "seconds": self.wait_window}
        shard = self._pending.popleft()
        self._leases[shard] = _Lease(worker, now + self._lease_timeout)
        self.stats["leases_granted"] += 1
        return {
            "op": "assign",
            "shard": shard,
            "indices": list(self._plan[shard]),
            "digest": self._digest,
        }

    def _heartbeat(self, worker: str, shard: Any) -> Dict[str, Any]:
        """Extend a live lease; tell a superseded worker to stand down."""
        with self._lock:
            now = self._clock()
            self._reap_expired(now)
            self.stats["heartbeats"] += 1
            lease = self._leases.get(shard) if isinstance(shard, int) else None
            valid = lease is not None and lease.worker == worker
            if valid:
                lease.deadline = now + self._lease_timeout
            return {"op": "ok", "valid": valid}

    def _submit(self, message: Mapping[str, Any]) -> Dict[str, Any]:
        """Validate a shard submission and persist it as a checkpoint."""
        worker = str(message.get("worker", "?"))
        shard = message.get("shard")
        with self._lock:
            now = self._clock()
            self._reap_expired(now)
            if not isinstance(shard, int) or not 0 <= shard < self._shard_count:
                return self._reject(worker, shard, "shard index out of range")
            if shard in self._completed:
                # at-least-once: a reassigned worker finishing late submits
                # rows identical to the accepted ones — acknowledge, discard
                self.stats["duplicates"] += 1
                return {"op": "accepted", "duplicate": True}
            if message.get("digest") != self._digest:
                return self._reject(worker, shard, "stale sweep digest")
            if message.get("indices") != list(self._plan[shard]):
                return self._reject(worker, shard, "shard indices mismatch")
            problem = self._checkpoint(shard, message)
            if problem is not None:
                return self._reject(worker, shard, problem)
            self._completed.add(shard)
            self._leases.pop(shard, None)
            self.stats["accepted"] += 1
            self._changed.notify_all()
            return {"op": "accepted", "duplicate": False}

    def _checkpoint(self, shard: int, message: Mapping[str, Any]) -> Optional[str]:
        """Check a submission's rows and time, then write its checkpoint.

        Lock held by the caller.  Returns the rejection reason, or ``None``
        once the checkpoint is written.
        """
        try:
            rows = decode_wire(message.get("rows"))
        except NestingError:
            return "rows nested too deeply"
        expected = len(self._plan[shard])
        if not isinstance(rows, list) or len(rows) != expected:
            return "row count mismatch"
        if any(
            not isinstance(row, dict) or set(self._spec.columns) - set(row)
            for row in rows
        ):
            return "row schema mismatch"
        compute_seconds = message.get("compute_seconds")
        if not valid_compute_seconds(compute_seconds):
            return "malformed compute_seconds"
        write_checkpoint(
            self._run_dir,
            shard,
            self._shard_count,
            self._plan[shard],
            rows,
            compute_seconds,
            self._digest,
        )
        return None

    def _reject(self, worker: str, shard: Any, reason: str) -> Dict[str, Any]:
        """Refuse a submission; re-queue the shard if this worker held it.

        Lock held by the caller.  Only the lease holder's rejection
        re-queues — a rejected submission from a worker whose lease was
        already reassigned must not duplicate the shard in the queue.
        """
        self.stats["rejected"] += 1
        if isinstance(shard, int):
            lease = self._leases.get(shard)
            if lease is not None and lease.worker == worker:
                del self._leases[shard]
                self._pending.append(shard)
                self._changed.notify_all()
        return {"op": "rejected", "reason": reason}


# ----------------------------------------------------------------------
# worker
# ----------------------------------------------------------------------
class ShardWorker:
    """One worker process's lease→compute→submit loop.

    The worker is stateless between shards and trusts nothing it cannot
    verify: it fetches the sweep description, re-resolves the spec from its
    own registry, decodes the parameters, and *recomputes the sweep digest*
    — refusing to compute anything when the two sides disagree (version
    skew).  While computing it heartbeats from a daemon thread; every
    request reconnects with exponential backoff so a briefly unreachable
    coordinator (restart, network blip) is ridden out, and a permanently
    gone one terminates the worker with
    :class:`DistributedProtocolError` after ``max_attempts`` tries.

    Subclasses may override :meth:`on_leased` (called between winning a
    lease and computing it) — the seam the fault-harness's ``FaultyWorker``
    doubles use to die, hang, or corrupt at the worst possible moment.
    """

    def __init__(
        self,
        address: Tuple[str, int],
        worker_id: Optional[str] = None,
        request_timeout: float = 10.0,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        max_attempts: int = 8,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        """Configure the worker; :meth:`run` does the work."""
        self.address = (address[0], int(address[1]))
        self.worker_id = worker_id or (
            f"worker-{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        )
        self.request_timeout = request_timeout
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_attempts = max_attempts
        self.heartbeat_interval = heartbeat_interval
        self.shards_computed = 0

    # -- overridable seams ---------------------------------------------
    def on_leased(self, shard: int) -> None:
        """Called after a lease is granted, before computing it (test seam)."""

    def resolve_spec(self, experiment_id: str) -> ExperimentSpec:
        """Resolve the sweep's spec from this worker's own registry."""
        return get_experiment(experiment_id)

    # -- the loop -------------------------------------------------------
    def run(self) -> int:
        """Serve the coordinator until the sweep is done.

        Returns the number of shards this worker computed and had accepted.

        Raises:
            DistributedProtocolError: on digest/protocol skew, a malformed
                reply, or a coordinator unreachable past the backoff budget.
        """
        description = self._request({"op": "describe", "worker": self.worker_id})
        if description.get("op") != "sweep":
            raise DistributedProtocolError(
                f"unexpected describe reply: {description!r}"
            )
        if description.get("protocol") != PROTOCOL:
            raise DistributedProtocolError(
                f"coordinator speaks protocol {description.get('protocol')!r}, "
                f"this worker speaks {PROTOCOL}"
            )
        spec = self.resolve_spec(description["experiment"])
        params = decode_wire(description["params"])
        points = spec.points(params)
        shard_count = int(description["shard_count"])
        digest = sweep_digest(
            spec.id, description["preset"], params, len(points), shard_count
        )
        if digest != description["digest"] or len(points) != int(
            description["num_points"]
        ):
            raise DistributedProtocolError(
                "sweep digest mismatch between coordinator and worker — "
                "mismatched code versions or a wire-codec fault; refusing "
                "to compute shards that could never be accepted"
            )
        plan = shard_indices(len(points), shard_count)
        interval = self.heartbeat_interval
        if interval is None:
            interval = max(float(description["lease_timeout"]) / 4.0, 0.05)

        while True:
            reply = self._request({"op": "lease", "worker": self.worker_id})
            op = reply.get("op")
            if op == "done":
                return self.shards_computed
            if op == "wait":
                time.sleep(float(reply.get("seconds", 0.1)))
                continue
            if op != "assign":
                raise DistributedProtocolError(
                    f"unexpected lease reply: {reply!r}"
                )
            shard = int(reply["shard"])
            self.on_leased(shard)
            rows, elapsed = self._compute(spec, points, plan[shard], shard, interval)
            outcome = self._request(
                {
                    "op": "submit",
                    "worker": self.worker_id,
                    "shard": shard,
                    "digest": digest,
                    "indices": list(plan[shard]),
                    "rows": encode_wire(rows),
                    "compute_seconds": round(elapsed, 6),
                }
            )
            if outcome.get("op") == "accepted":
                if not outcome.get("duplicate"):
                    self.shards_computed += 1
            # a rejected submission is not fatal: the coordinator re-queued
            # the shard (or already has it); keep leasing

    def _compute(
        self,
        spec: ExperimentSpec,
        points: List[PointParams],
        indices: List[int],
        shard: int,
        interval: float,
    ) -> Tuple[List[Dict[str, Any]], float]:
        """Execute one shard's points under a background heartbeat."""
        stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(shard, interval, stop),
            name=f"heartbeat-{shard}",
            daemon=True,
        )
        beat.start()
        try:
            start = time.perf_counter()
            rows = [execute_point(spec, points[index]) for index in indices]
            return rows, time.perf_counter() - start
        finally:
            stop.set()
            beat.join(timeout=self.request_timeout + 1.0)

    def _heartbeat_loop(
        self, shard: int, interval: float, stop: threading.Event
    ) -> None:
        """Heartbeat ``shard`` every ``interval`` seconds until stopped."""
        while not stop.wait(interval):
            try:
                send_request(
                    self.address,
                    {
                        "op": "heartbeat",
                        "worker": self.worker_id,
                        "shard": shard,
                    },
                    timeout=self.request_timeout,
                )
            except (OSError, DistributedProtocolError):
                # a missed heartbeat is survivable: the next one (or the
                # submit itself) may land before the lease expires, and an
                # expiry only costs a duplicate computation
                pass

    def _request(self, payload: Mapping[str, Any]) -> Dict[str, Any]:
        """Send one request, reconnecting with exponential backoff."""
        delay = self.backoff_base
        last: Optional[BaseException] = None
        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(delay)
                delay = min(delay * 2, self.backoff_cap)
            try:
                return send_request(
                    self.address, payload, timeout=self.request_timeout
                )
            except OSError as error:
                last = error
        raise DistributedProtocolError(
            f"coordinator at {self.address[0]}:{self.address[1]} unreachable "
            f"after {self.max_attempts} attempts ({last})"
        )


def run_worker(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    **kwargs: Any,
) -> int:
    """Run one :class:`ShardWorker` to completion (process entry point).

    This is what ``repro worker --connect HOST:PORT`` executes, and the
    target :class:`DistributedExecutor` spawns its local worker processes
    on; extra keyword arguments forward to :class:`ShardWorker`.
    """
    return ShardWorker((host, port), worker_id=worker_id, **kwargs).run()


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------
@dataclass
class DistributedExecutor:
    """Coordinator-backed executor: shards leased to worker processes.

    Attributes:
        workers: local worker processes to spawn (when ``spawn_workers``).
        run_dir: checkpoint directory (same default naming as the sharded
            backend, so the two are interchangeable on one directory).
        shard_count: shard layout; defaults to an existing manifest's count,
            else one shard per sweep point.
        resume: treat valid pre-existing checkpoints as completed shards
            instead of recomputing them.
        lease_timeout: seconds a shard lease survives without a heartbeat.
        host: coordinator bind address; ``0.0.0.0`` admits LAN workers
            (``repro worker --connect``), the default stays loopback-only.
        port: coordinator port (0 picks an ephemeral one).
        spawn_workers: when false, spawn nothing and rely on external
            workers connecting to the coordinator (``wall_timeout`` then
            bounds the wait).
        wall_timeout: optional overall deadline in seconds; on expiry the
            merged partial result is returned (``pending_points`` > 0),
            exactly like an interrupted sharded run — ``--resume`` finishes.
    """

    workers: int = 2
    run_dir: Optional[Path] = None
    shard_count: Optional[int] = None
    resume: bool = False
    lease_timeout: float = 30.0
    host: str = "127.0.0.1"
    port: int = 0
    spawn_workers: bool = True
    wall_timeout: Optional[float] = None
    name: str = field(default="distributed", init=False)

    def execute(
        self,
        spec: ExperimentSpec,
        preset: str,
        params: Mapping[str, Any],
        points: List[PointParams],
    ) -> ExecutionOutcome:
        """Coordinate workers over the sweep and merge their checkpoints.

        Raises:
            ExecutorConfigError: on a nonsensical configuration (no
                workers and nothing external to wait for, bad lease
                timeout) or a run directory belonging to a different sweep.
        """
        if self.spawn_workers and self.workers < 1:
            raise ExecutorConfigError(
                f"distributed executor needs at least one worker, got "
                f"{self.workers}"
            )
        if self.lease_timeout <= 0:
            raise ExecutorConfigError(
                f"lease timeout must be positive, got {self.lease_timeout}"
            )
        if not self.spawn_workers and self.wall_timeout is None:
            raise ExecutorConfigError(
                "spawn_workers=False needs a wall_timeout: with no local "
                "workers and no deadline the coordinator could wait forever"
            )
        run = open_run_dir(
            spec, preset, params, len(points), self.run_dir, self.shard_count
        )
        count = len(run.plan)
        completed = tuple(
            shard
            for shard in range(count)
            if self.resume
            and load_checkpoint(
                run.path, shard, run.plan[shard], spec.columns, run.digest
            )
            is not None
        )
        coordinator = ShardCoordinator(
            spec,
            preset,
            params,
            points,
            count,
            run.digest,
            run.path,
            completed=completed,
            lease_timeout=self.lease_timeout,
            host=self.host,
            port=self.port,
        )
        # bind before spawning so (a) workers know the ephemeral port and
        # (b) local workers fork while this process is still single-threaded
        host, port = coordinator.bind()
        procs: List[multiprocessing.process.BaseProcess] = []
        try:
            if self.spawn_workers and not coordinator.finished:
                context = multiprocessing.get_context()
                for index in range(self.workers):
                    worker_id = f"local-{index}-{uuid.uuid4().hex[:8]}"
                    coordinator.expect(worker_id)
                    proc = context.Process(
                        target=run_worker,
                        args=(host, port, worker_id),
                        daemon=True,
                    )
                    proc.start()
                    procs.append(proc)
            coordinator.start()
            window = coordinator.wait_window
            deadline = (
                None
                if self.wall_timeout is None
                else time.monotonic() + self.wall_timeout
            )
            while not coordinator.await_finished(
                window
                if deadline is None
                else min(window, deadline - time.monotonic())
            ):
                if deadline is not None and time.monotonic() > deadline:
                    break
                if procs and not any(proc.is_alive() for proc in procs):
                    # every local worker is gone (a worker exits only after
                    # its final submit round-trip): nothing will finish the
                    # remaining shards — return the partial result honestly
                    break
            if coordinator.finished:
                # announce the end before closing the socket, so no worker
                # is left retrying a stopped coordinator
                coordinator.await_farewells(window)
        finally:
            coordinator.stop()
            for proc in procs:
                proc.join(timeout=5.0)
                if proc.is_alive():
                    proc.terminate()
                    proc.join(timeout=5.0)
        return merged_outcome(spec, run)
