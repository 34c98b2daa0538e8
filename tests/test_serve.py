"""``repro serve`` tests: endpoint schemas, ETag revalidation.

The contract under test (see ``docs/architecture.md``, "Distributed
execution & serving"): every endpoint serves deterministic JSON, a run
endpoint's payload is exactly :class:`ExperimentResult`'s serialization
(so clients of result *files* and of the API share one schema), ETags are
strong hashes of the exact body honoured with 304s, and every request
reads the corpus afresh, so a changed file shows on the next request.
"""

from __future__ import annotations

import http.client
import json
import shutil
import threading

import pytest

from oracles import load_result
from repro.cli import main as cli_main
from repro.experiments.registry import all_experiments
from repro.experiments.runner import run_experiment
from repro.serve import ServeApp, create_server

RUN_NAME = "e2-quick"


def write_bench(path, labels):
    """A minimal trajectory file with the given ``{label: wall}`` entries."""
    runs = {
        label: {
            "sequence": sequence,
            "note": "",
            "experiments": {"e2": {"wall_seconds": wall}},
        }
        for sequence, (label, wall) in enumerate(labels.items(), start=1)
    }
    path.write_text(json.dumps({"schema": 1, "runs": runs}))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A served corpus: one completed sharded run plus a trajectory file."""
    root = tmp_path_factory.mktemp("serve")
    run_root = root / "runs"
    run_root.mkdir()
    serial = run_experiment("e2", preset="quick")
    run_experiment("e2", preset="quick", executor="sharded",
                   run_dir=run_root / RUN_NAME)
    bench = root / "BENCH_core.json"
    write_bench(bench, {"before": 2.0, "after": 1.0})
    return {"run_root": run_root, "bench": bench, "serial": serial}


def make_app(corpus, **kwargs):
    return ServeApp(run_root=corpus["run_root"], bench_path=corpus["bench"],
                    **kwargs)


def body_json(body):
    return json.loads(body.decode("utf-8"))


# each corruption turns the corpus run's valid manifest into one that
# every reader must treat as absent
MANIFEST_CORRUPTIONS = {
    "not_json": lambda manifest: "{",
    "not_a_dict": lambda manifest: [1, 2],
    "digest_not_str": lambda manifest: {**manifest, "digest": 7},
    "params_not_dict": lambda manifest: {**manifest, "params": [1, 2]},
    "negative_points": lambda manifest: {**manifest, "num_points": -3},
    "bool_points": lambda manifest: {**manifest, "num_points": True},
    "zero_shards": lambda manifest: {**manifest, "shard_count": 0},
    "no_experiment": lambda manifest: {
        key: value for key, value in manifest.items() if key != "experiment"
    },
}


@pytest.mark.parametrize("corruption", sorted(MANIFEST_CORRUPTIONS))
def test_corrupt_manifest_is_treated_as_absent(corpus, tmp_path, corruption):
    run_root = tmp_path / "runs"
    run_dir = run_root / RUN_NAME
    shutil.copytree(corpus["run_root"] / RUN_NAME, run_dir)
    manifest_path = run_dir / "manifest.json"
    corrupt = MANIFEST_CORRUPTIONS[corruption](json.loads(manifest_path.read_text()))
    manifest_path.write_text(corrupt if isinstance(corrupt, str) else json.dumps(corrupt))

    app = ServeApp(run_root=run_root, bench_path=corpus["bench"])
    assert app.respond(f"/runs/{RUN_NAME}")[0] == 404
    status, _, body = app.respond("/runs")
    assert status == 200 and body_json(body)["runs"] == []

    # the CLI either reuses the directory (rewriting the manifest) or
    # refuses it with a usage error; it never crashes
    code = cli_main(["run", "e2", "--preset", "quick", "--run-dir", str(run_dir),
                     "--quiet"])
    assert code in (0, 2)


# ----------------------------------------------------------------------
# endpoint payloads
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_index_lists_endpoints(self, corpus):
        status, _, body = make_app(corpus).respond("/")
        assert status == 200
        assert "/bench/trajectory" in body_json(body)["endpoints"]

    def test_experiments_catalog_matches_registry(self, corpus):
        status, _, body = make_app(corpus).respond("/experiments")
        assert status == 200
        catalog = body_json(body)["experiments"]
        assert [entry["id"] for entry in catalog] == [
            spec.id for spec in all_experiments()
        ]
        for entry in catalog:
            assert set(entry) == {"id", "description", "presets", "columns",
                                  "topologies", "adversities"}
            assert {"quick", "default", "hot"} <= set(entry["presets"])

    def test_runs_index_reports_completion(self, corpus):
        status, _, body = make_app(corpus).respond("/runs")
        assert status == 200
        payload = body_json(body)
        (entry,) = [r for r in payload["runs"] if r["name"] == RUN_NAME]
        assert entry["experiment"] == "e2"
        assert entry["preset"] == "quick"
        assert entry["pending_points"] == 0
        assert entry["completed_points"] == entry["num_points"]

    def test_run_payload_is_experiment_result_schema(self, corpus):
        status, _, body = make_app(corpus).respond(f"/runs/{RUN_NAME}")
        assert status == 200
        payload = body_json(body)
        # the payload *is* the result serialization: same keys, loadable by
        # the same deserializer, and the rows equal the serial run's
        reference = corpus["serial"].to_json_dict()
        assert set(payload) == set(reference)
        loaded = load_result(payload)
        assert loaded.rows == reference["rows"]
        assert loaded.pending_points == 0
        assert payload["rows"] == reference["rows"]
        assert payload["columns"] == reference["columns"]

    def test_unknown_run_and_traversal_rejected(self, corpus):
        app = make_app(corpus)
        assert app.respond("/runs/no-such-run")[0] == 404
        assert app.respond("/runs/..")[0] == 404
        assert app.respond("/runs/a/b")[0] == 404

    def test_trajectory_orders_labels_by_sequence(self, corpus):
        status, _, body = make_app(corpus).respond("/bench/trajectory")
        assert status == 200
        payload = body_json(body)
        assert payload["labels"] == ["before", "after"]
        assert payload["runs"]["after"]["experiments"]["e2"]["wall_seconds"] == 1.0

    def test_diff_defaults_to_last_two_labels(self, corpus):
        status, _, body = make_app(corpus).respond("/bench/diff")
        assert status == 200
        payload = body_json(body)
        assert (payload["from"], payload["to"]) == ("before", "after")
        assert payload["speedups"] == {"e2": 2.0}

    def test_diff_explicit_and_unknown_labels(self, corpus):
        app = make_app(corpus)
        status, _, body = app.respond("/bench/diff", "from=after&to=before")
        assert status == 200
        assert body_json(body)["speedups"] == {"e2": 0.5}
        status, _, body = app.respond("/bench/diff", "from=nope&to=after")
        assert status == 404
        assert body_json(body)["labels"] == ["nope"]

    def test_missing_trajectory_file_404s(self, corpus, tmp_path):
        app = ServeApp(run_root=corpus["run_root"],
                       bench_path=tmp_path / "absent.json")
        assert app.respond("/bench/trajectory")[0] == 404
        assert app.respond("/bench/diff")[0] == 404

    @pytest.mark.parametrize(
        "content",
        ("[1]", '"x"', '{"runs": []}', '{"runs": {"a": 1, "b": 2}}',
         '{"runs": {"a": {"sequence": 1}, "b": 2}}'),
        ids=("list", "string", "runs_list", "runs_of_numbers", "one_bad_entry"),
    )
    def test_malformed_trajectory_file_404s(self, corpus, tmp_path, content):
        bench = tmp_path / "BENCH_core.json"
        bench.write_text(content)
        app = ServeApp(run_root=corpus["run_root"], bench_path=bench)
        for route in ("/bench/trajectory", "/bench/diff"):
            status, _, body = app.respond(route)
            assert status == 404
            assert body_json(body)["error"] == "malformed trajectory file"

    def test_unknown_endpoint_404s(self, corpus):
        status, _, body = make_app(corpus).respond("/nope")
        assert status == 404
        assert body_json(body)["error"] == "unknown endpoint"


# ----------------------------------------------------------------------
# ETag revalidation
# ----------------------------------------------------------------------
class TestCaching:
    def test_etag_round_trip_304(self, corpus):
        app = make_app(corpus)
        status, headers, body = app.respond("/bench/trajectory")
        assert status == 200
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')
        status, headers, body = app.respond("/bench/trajectory", "", etag)
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_mismatched_etag_gets_full_body(self, corpus):
        app = make_app(corpus)
        _, headers, first = app.respond("/bench/trajectory")
        status, _, body = app.respond("/bench/trajectory", "", '"deadbeef"')
        assert status == 200
        assert body == first

    def test_etag_in_multi_value_if_none_match(self, corpus):
        app = make_app(corpus)
        _, headers, _ = app.respond("/bench/trajectory")
        status, _, _ = app.respond(
            "/bench/trajectory", "", f'"other", {headers["ETag"]}'
        )
        assert status == 304

    def test_changed_checkpoint_served_on_the_next_request(self, corpus,
                                                            tmp_path):
        run_root = tmp_path / "runs"
        run_experiment("e2", preset="quick", shard=(0, 2),
                       run_dir=run_root / RUN_NAME)
        app = ServeApp(run_root=run_root, bench_path=corpus["bench"])
        _, headers, body = app.respond(f"/runs/{RUN_NAME}")
        assert body_json(body)["pending_points"] == 1
        run_experiment("e2", preset="quick", shard=(1, 2),
                       run_dir=run_root / RUN_NAME)
        status, fresh_headers, fresh = app.respond(
            f"/runs/{RUN_NAME}", "", headers["ETag"]
        )
        assert status == 200
        assert fresh_headers["ETag"] != headers["ETag"]
        assert body_json(fresh)["rows"] == corpus["serial"].rows
        # clients are told to revalidate rather than reuse a stored body
        assert fresh_headers["Cache-Control"] == "no-cache"

    def test_distinct_queries_cached_separately(self, corpus):
        app = make_app(corpus)
        _, _, forward = app.respond("/bench/diff", "from=before&to=after")
        _, _, backward = app.respond("/bench/diff", "from=after&to=before")
        assert body_json(forward)["speedups"] != body_json(backward)["speedups"]

    def test_error_responses_not_cached(self, corpus, tmp_path):
        bench = tmp_path / "bench.json"
        app = ServeApp(run_root=corpus["run_root"], bench_path=bench)
        assert app.respond("/bench/trajectory")[0] == 404
        write_bench(bench, {"before": 2.0})
        assert app.respond("/bench/trajectory")[0] == 200


# ----------------------------------------------------------------------
# the real HTTP shell
# ----------------------------------------------------------------------
class TestHTTPServer:
    def test_etag_304_over_a_real_socket(self, corpus):
        server = create_server(make_app(corpus))
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05}, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            connection = http.client.HTTPConnection(host, port, timeout=10)
            connection.request("GET", "/bench/trajectory")
            first = connection.getresponse()
            body = first.read()
            assert first.status == 200
            etag = first.headers["ETag"]
            assert json.loads(body)["labels"] == ["before", "after"]
            connection.request("GET", "/bench/trajectory",
                               headers={"If-None-Match": etag})
            second = connection.getresponse()
            assert second.status == 304
            assert second.read() == b""
            assert second.headers["ETag"] == etag
            connection.request("GET", "/runs/" + RUN_NAME)
            run = connection.getresponse()
            payload = json.loads(run.read())
            assert run.status == 200
            assert load_result(payload).rows == (
                corpus["serial"].to_json_dict()["rows"]
            )
            connection.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)
            server.server_close()
