"""``repro serve``: a read-side JSON API over the results corpus.

The ROADMAP's production story is *precompute on a farm, serve from a
cache*: the distributed executor (:mod:`repro.experiments.distributed`)
covers the precompute half, and this module is the serving half — a thin
stdlib HTTP service (no new dependencies) exposing the experiment
catalog, the run-directory checkpoints, and the ``BENCH_core.json``
performance trajectory (the frozen record of labels ``before`` … ``pr10``)
as JSON:

===========================  =========================================
``GET /experiments``         the registered experiment catalog
``GET /runs``                run directories with completion status
``GET /runs/<name>``         one run's checkpoints merged into the
                             standard :class:`ExperimentResult` JSON
``GET /bench/trajectory``    the benchmark trajectory file, labels
                             ordered by sequence
``GET /bench/diff``          per-experiment speedups between two labels
                             (``?from=X&to=Y``; defaults to the last
                             two recorded labels)
===========================  =========================================

Every 200 reply is computed from the files on disk at request time and
carries a strong ``ETag`` (a hash of the exact body) with
``Cache-Control: no-cache``: clients revalidate with ``If-None-Match`` and
get an empty 304 while the body is unchanged, and the very next request
after a checkpoint lands sees it.  The service is read-only by
construction — it opens every file through the same digest-validated
readers the executors use, so a corrupt or foreign checkpoint is simply
absent from the served result, never an error page.

``ServeApp.respond`` is a plain function from request to
``(status, headers, body)``; ``tests/test_serve.py`` drives it directly
and over a real socket.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.experiments.executors import (
    ExecutionOutcome,
    RunDir,
    checkout_path,
    default_run_root,
    merged_outcome,
    read_manifest,
    shard_indices,
)
from repro.experiments.registry import all_experiments, get_experiment, load_all
from repro.experiments.runner import ExperimentResult
from repro.experiments.serialization import check_depth, read_json

JSON_TYPE = "application/json; charset=utf-8"


def _etag(body: bytes) -> str:
    """A strong ETag for an exact body (quoted, per RFC 9110)."""
    return '"' + hashlib.sha256(body).hexdigest()[:32] + '"'


class ServeApp:
    """The routing core of ``repro serve``, independent of any socket.

    Attributes:
        run_root: directory whose children are sharded/distributed run
            directories (default: the executors' ``.repro_runs/``).
        bench_path: the benchmark trajectory file (default:
            ``BENCH_core.json`` at the repo root).
    """

    def __init__(
        self,
        run_root: Optional[Path] = None,
        bench_path: Optional[Path] = None,
    ) -> None:
        """Configure paths; loads the registry."""
        load_all()
        self.run_root = Path(run_root) if run_root is not None else default_run_root()
        self.bench_path = (
            Path(bench_path) if bench_path is not None
            else checkout_path("BENCH_core.json")
        )

    # -- the request entry point ---------------------------------------
    def respond(
        self,
        path: str,
        query: str = "",
        if_none_match: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Answer one GET: returns ``(status, headers, body)``.

        A matching ``If-None-Match`` turns a 200 into an empty 304.
        """
        status, payload = self._route(path, parse_qs(query))
        if status != 200:
            return self._reply(status, payload)
        body = _body_bytes(payload)
        etag = _etag(body)
        headers = {
            "Content-Type": JSON_TYPE,
            "ETag": etag,
            "Cache-Control": "no-cache",
        }
        if if_none_match is not None and etag in (
            tag.strip() for tag in if_none_match.split(",")
        ):
            return 304, headers, b""
        return 200, headers, body

    def _reply(
        self, status: int, payload: Mapping[str, Any]
    ) -> Tuple[int, Dict[str, str], bytes]:
        """An uncached (error) reply."""
        return status, {"Content-Type": JSON_TYPE}, _body_bytes(payload)

    # -- routing --------------------------------------------------------
    def _route(
        self, path: str, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Dispatch a path to its payload builder."""
        path = path.rstrip("/") or "/"
        if path == "/":
            return 200, {
                "service": "repro serve",
                "endpoints": [
                    "/experiments",
                    "/runs",
                    "/runs/<name>",
                    "/bench/trajectory",
                    "/bench/diff?from=<label>&to=<label>",
                ],
            }
        if path == "/experiments":
            return self._experiments()
        if path == "/runs":
            return self._runs()
        if path.startswith("/runs/"):
            return self._run(path[len("/runs/"):])
        if path == "/bench/trajectory":
            return self._trajectory()
        if path == "/bench/diff":
            return self._diff(params)
        return 404, {"error": "unknown endpoint", "path": path}

    def _experiments(self) -> Tuple[int, Dict[str, Any]]:
        """The registered experiment catalog."""
        return 200, {
            "experiments": [
                {
                    "id": spec.id,
                    "description": spec.description,
                    "presets": sorted(spec.presets),
                    "columns": list(spec.columns),
                    "topologies": list(spec.topologies),
                    "adversities": list(spec.adversities),
                }
                for spec in all_experiments()
            ]
        }

    def _run_summaries(self) -> List[Dict[str, Any]]:
        """One summary per readable run directory under ``run_root``."""
        summaries = []
        if not self.run_root.is_dir():
            return summaries
        for run_dir in sorted(self.run_root.iterdir()):
            manifest = read_manifest(run_dir)
            if manifest is None:
                continue
            merged = self._merge(manifest, run_dir)
            summary = {
                "name": run_dir.name,
                "experiment": manifest["experiment"],
                "preset": manifest["preset"],
                "num_points": manifest["num_points"],
                "shard_count": manifest["shard_count"],
                "digest": manifest["digest"],
            }
            if merged is not None:
                summary["completed_points"] = len(merged.rows)
                summary["pending_points"] = merged.pending_points
            summaries.append(summary)
        return summaries

    def _runs(self) -> Tuple[int, Dict[str, Any]]:
        """The run-directory index."""
        return 200, {
            "run_root": str(self.run_root),
            "runs": self._run_summaries(),
        }

    def _run(self, name: str) -> Tuple[int, Dict[str, Any]]:
        """One run's checkpoints merged into ``ExperimentResult`` JSON."""
        if not name or "/" in name or name in (".", ".."):
            return 404, {"error": "unknown run", "run": name}
        run_dir = self.run_root / name
        manifest = read_manifest(run_dir)
        if manifest is None:
            return 404, {"error": "unknown run", "run": name}
        merged = self._merge(manifest, run_dir)
        if merged is None:
            return 404, {
                "error": "run references an unknown experiment",
                "run": name,
                "experiment": manifest["experiment"],
            }
        spec = get_experiment(manifest["experiment"])
        params = dict(manifest["params"])
        result = ExperimentResult(
            experiment_id=spec.id,
            title=spec.render_title(params),
            columns=spec.columns,
            rows=merged.rows,
            params=params,
            preset=manifest["preset"],
            wall_seconds=merged.compute_seconds,
            invocation_seconds=0.0,
            pending_points=merged.pending_points,
            executor="serve-merge",
        )
        return 200, result.to_json_dict()

    def _merge(
        self, manifest: Mapping[str, Any], run_dir: Path
    ) -> Optional[ExecutionOutcome]:
        """The executors' digest-validated checkpoint merge, read-only;
        ``None`` on an unknown spec.

        ``manifest`` is one :func:`read_manifest` accepted, so only the
        experiment id can still fail to resolve.
        """
        try:
            spec = get_experiment(manifest["experiment"])
        except KeyError:
            return None
        plan = shard_indices(manifest["num_points"], manifest["shard_count"])
        return merged_outcome(spec, RunDir(run_dir, plan, manifest["digest"]))

    def _read_trajectory(self) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any]]:
        """Return ``(data, error)``: the trajectory file's object, or ``None``
        and the 404 body saying why.

        The file must hold a JSON object whose ``runs`` (when present) maps
        each label to an object; anything else is answered like a missing
        file, never an error page.
        """
        data = _read_json(self.bench_path)
        if data is None:
            return None, {"error": "no trajectory file", "path": str(self.bench_path)}
        runs = data.get("runs", {}) if isinstance(data, dict) else None
        if not isinstance(runs, dict) or not all(
            isinstance(entry, dict) for entry in runs.values()
        ):
            return None, {
                "error": "malformed trajectory file",
                "path": str(self.bench_path),
            }
        return data, {}

    def _trajectory(self) -> Tuple[int, Dict[str, Any]]:
        """The benchmark trajectory, labels ordered by sequence."""
        data, error = self._read_trajectory()
        if data is None:
            return 404, error
        payload = dict(data)
        payload["labels"] = _label_order(data.get("runs", {}))
        return 200, payload

    def _diff(
        self, params: Mapping[str, List[str]]
    ) -> Tuple[int, Dict[str, Any]]:
        """Per-experiment speedups between two trajectory labels."""
        data, error = self._read_trajectory()
        if data is None:
            return 404, error
        runs = data.get("runs", {})
        ordered = _label_order(runs)
        before = params.get("from", ordered[-2:-1] or [None])[0]
        after = params.get("to", ordered[-1:] or [None])[0]
        if before is None or after is None:
            return 400, {
                "error": "need ?from=<label>&to=<label> "
                "(fewer than two labels recorded)",
                "labels": ordered,
            }
        missing = [label for label in (before, after) if label not in runs]
        if missing:
            return 404, {"error": "unknown label(s)", "labels": missing}
        return 200, {
            "from": before,
            "to": after,
            "speedups": _pair_speedups(
                runs[before].get("experiments", {}),
                runs[after].get("experiments", {}),
            ),
        }


def _label_order(runs: Dict[str, Dict[str, object]]) -> List[str]:
    """Trajectory labels ordered by recorded sequence (oldest first)."""
    return sorted(runs, key=lambda label: runs[label].get("sequence", 0))


def _pair_speedups(
    before: Dict[str, Dict[str, object]], after: Dict[str, Dict[str, object]]
) -> Dict[str, float]:
    """Per-experiment wall-clock speedups between two recorded runs.

    An entry missing from either run, or recorded without ``wall_seconds``
    on either side, is skipped.
    """
    speedups = {}
    for name, before_entry in before.items():
        before_seconds = before_entry.get("wall_seconds")
        after_seconds = after.get(name, {}).get("wall_seconds")
        if before_seconds and after_seconds:
            speedups[name] = round(before_seconds / after_seconds, 2)
    return speedups


def _body_bytes(payload: Mapping[str, Any]) -> bytes:
    """Serialize a payload deterministically (stable bodies → stable ETags)."""
    return json.dumps(payload, indent=2, sort_keys=True).encode("utf-8") + b"\n"


def _read_json(path: Path) -> Optional[Any]:
    """Read a JSON file; ``None`` when absent or unparseable."""
    try:
        return check_depth(read_json(path.read_text()))
    except (OSError, ValueError):
        return None


# ----------------------------------------------------------------------
# the HTTP shell
# ----------------------------------------------------------------------
class ServeServer(ThreadingHTTPServer):
    """Threaded HTTP server carrying the :class:`ServeApp` for its handlers."""

    daemon_threads = True
    allow_reuse_address = True
    app: ServeApp


class _ServeHandler(BaseHTTPRequestHandler):
    """GET-only handler delegating to :meth:`ServeApp.respond`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 (http.server naming contract)
        """Answer one GET request."""
        split = urlsplit(self.path)
        status, headers, body = self.server.app.respond(
            split.path, split.query, self.headers.get("If-None-Match")
        )
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if body:
            self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        """Silence per-request stderr logging (the service is a library too)."""


def create_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> ServeServer:
    """Bind a :class:`ServeServer` for ``app`` (port 0 picks an ephemeral one)."""
    server = ServeServer((host, port), _ServeHandler)
    server.app = app
    return server


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point (``python -m repro serve``)."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve the experiment/run/benchmark corpus as a JSON API.",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: loopback only)")
    parser.add_argument("--port", type=int, default=8035,
                        help="bind port (0 picks an ephemeral one)")
    parser.add_argument("--run-root", type=Path, default=None,
                        help="run-directory root (default: .repro_runs/)")
    parser.add_argument("--bench", type=Path, default=None,
                        help="trajectory file (default: BENCH_core.json)")
    args = parser.parse_args(argv)

    app = ServeApp(run_root=args.run_root, bench_path=args.bench)
    server = create_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}  (run_root={app.run_root}, "
          f"bench={app.bench_path}) — Ctrl-C stops")
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
