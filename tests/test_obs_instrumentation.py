"""Telemetry threaded through the service layers.

Covers the observer wiring the registry unit tests cannot: the
:class:`InstrumentedStore` proxy (timing without touching store
classes), the netstore's ``/metrics`` and ``/telemetry`` side-channels,
worker claim/outcome/heartbeat counters with error routing through the
event log.
"""

from __future__ import annotations

import io
import json
import time
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro import obs
from repro.obs import (
    InstrumentedStore,
    instrument_store,
    store_backend_label,
)
from repro.service import (
    JobStoreServer,
    ProtectionJob,
    RemoteJobStore,
    SqliteJobStore,
    Worker,
)
from repro.service.worker import ClaimHeartbeat, release_quietly

TOKEN = "s3cret"


@pytest.fixture(autouse=True)
def telemetry_on():
    """Enabled, empty registry and a capturable event stream per test."""
    registry = obs.enable()
    registry.reset()
    stream = io.StringIO()
    obs.configure_events(stream)
    yield stream
    obs.disable()
    registry.reset()
    obs.configure_events(None)


def events(stream: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in stream.getvalue().splitlines()]


def counter_value(name: str, **labels: str) -> float:
    for entry in obs.get_registry().snapshot()["counters"]:
        if entry["name"] == name and entry["labels"] == labels:
            return entry["value"]
    return 0.0


class TestInstrumentedStore:
    def test_timed_op_records_latency_with_backend_label(self, tmp_path):
        store = instrument_store(SqliteJobStore(tmp_path / "state" / "jobs.sqlite"))
        store.submit(ProtectionJob(dataset="flare", generations=2))
        store.records()
        histograms = {
            (h["name"], h["labels"]["op"]): h
            for h in obs.get_registry().snapshot()["histograms"]
            if h["name"] == "repro_store_op_seconds"
        }
        for op in ("submit", "records"):
            hist = histograms[("repro_store_op_seconds", op)]
            assert hist["labels"]["backend"] == "sqlite"
            assert hist["count"] == 1

    def test_non_protocol_attributes_forward_untouched(self, tmp_path):
        raw = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store = instrument_store(raw)
        assert store.cache_path == raw.cache_path
        assert store.root == raw.root
        assert store.wrapped is raw

    def test_errors_counted_and_propagated(self, tmp_path):
        class Exploding:
            def records(self):
                raise OSError("disk gone")

        store = instrument_store(Exploding(), backend="sqlite")
        with pytest.raises(OSError, match="disk gone"):
            store.records()
        assert counter_value("repro_store_op_errors_total",
                             op="records", backend="sqlite") == 1

    def test_instrument_is_idempotent(self, tmp_path):
        store = instrument_store(SqliteJobStore(tmp_path / "state" / "jobs.sqlite"))
        assert instrument_store(store) is store
        assert isinstance(store, InstrumentedStore)

    def test_results_pass_through_unchanged(self, tmp_path):
        raw = SqliteJobStore(tmp_path / "a" / "jobs.sqlite")
        wrapped = instrument_store(SqliteJobStore(tmp_path / "b" / "jobs.sqlite"))
        job = ProtectionJob(dataset="flare", generations=2)
        mine = wrapped.submit(job).to_dict()
        theirs = raw.submit(job).to_dict()
        mine.pop("submitted_at"), theirs.pop("submitted_at")
        assert mine == theirs

    def test_disabled_registry_records_nothing(self, tmp_path):
        obs.disable()
        store = instrument_store(SqliteJobStore(tmp_path / "state" / "jobs.sqlite"))
        store.records()
        assert obs.get_registry().snapshot()["histograms"] == []

    def test_backend_labels(self, tmp_path):
        assert store_backend_label(
            SqliteJobStore(tmp_path / "state" / "jobs.sqlite")) == "sqlite"
        assert store_backend_label(
            SimpleNamespace(base_url="http://x:1", spec="")) == "remote"
        assert store_backend_label(
            SimpleNamespace(spec="sqlite:/tmp/db")) == "sqlite"


class TestMetricsEndpoint:
    @pytest.fixture
    def server(self, tmp_path):
        store = instrument_store(SqliteJobStore(tmp_path / "state" / "jobs.sqlite"))
        with JobStoreServer(store, token=TOKEN) as live:
            yield live

    def fetch(self, server, token=TOKEN):
        request = urllib.request.Request(f"{server.url}/metrics")
        if token:
            request.add_header("Authorization", f"Bearer {token}")
        with urllib.request.urlopen(request, timeout=5) as response:
            return response.status, dict(response.headers), response.read().decode()

    def test_metrics_requires_token(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            self.fetch(server, token=None)
        assert err.value.code == 401

    def test_metrics_exposition_and_headers(self, server, tmp_path):
        client = RemoteJobStore(server.url, token=TOKEN,
                                spool=tmp_path / "spool", retries=1)
        client.submit(ProtectionJob(dataset="flare", generations=2))
        status, headers, body = self.fetch(server)
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        assert float(headers["X-Repro-Duration"]) >= 0
        assert headers["X-Repro-Cache-Status"] == "miss"
        assert "# TYPE repro_rpc_seconds histogram" in body
        assert 'repro_rpc_seconds_count{method="submit",status="200"}' in body
        assert 'repro_store_op_seconds_count{backend="sqlite",op="submit"}' in body

    def test_metrics_render_cached_within_ttl(self, server):
        # An empty exposition is never cached; record one series first.
        obs.get_registry().inc("repro_events_total", event="test")
        _, headers, first = self.fetch(server)
        assert headers["X-Repro-Cache-Status"] == "miss"
        _, headers, second = self.fetch(server)
        assert headers["X-Repro-Cache-Status"] == "hit"
        assert second == first

    def test_telemetry_push_rendered_with_source_label(self, server, tmp_path):
        client = RemoteJobStore(server.url, token=TOKEN,
                                spool=tmp_path / "spool", retries=1)
        worker_registry = obs.MetricsRegistry()
        worker_registry.inc("repro_worker_jobs_total", outcome="completed")
        client.push_telemetry("worker-a", worker_registry.snapshot())
        server._httpd.metrics_cache = (0.0, "")  # skip the render TTL
        _, _, body = self.fetch(server)
        assert ('repro_worker_jobs_total{outcome="completed",'
                'source="worker-a"} 1') in body

    def test_telemetry_rejects_garbage(self, server):
        request = urllib.request.Request(
            f"{server.url}/telemetry",
            data=json.dumps({"source": "", "snapshot": []}).encode(),
            headers={"Authorization": f"Bearer {TOKEN}",
                     "Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=5)
        assert err.value.code == 400

    def test_rpc_error_status_labelled(self, server, tmp_path):
        client = RemoteJobStore(server.url, token=TOKEN,
                                spool=tmp_path / "spool", retries=1)
        with pytest.raises(Exception):
            client.get("no-such-job")
        status, _, body = self.fetch(server)
        # Missing jobs surface as a 400-mapped ServiceError on the wire.
        assert 'repro_rpc_seconds_count{method="get",status="400"} 1' in body


class TestWorkerTelemetry:
    def test_claims_and_outcomes_counted(self, tmp_path, telemetry_on):
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store.submit(ProtectionJob(dataset="flare", generations=2, seed=3))
        worker = Worker(store, worker_id="w-test")
        outcomes = worker.run_once()
        assert len(outcomes) == 1 and outcomes[0].ok
        assert counter_value("repro_worker_claims_total", result="won") == 1
        assert counter_value("repro_worker_jobs_total", outcome="completed") == 1
        names = [e["event"] for e in events(telemetry_on)]
        assert "job_completed" in names
        assert "generation" in names

    def test_heartbeat_failure_counted_and_emitted(self, telemetry_on):
        class DeadStore:
            def heartbeat(self, job_id, owner):
                raise OSError("store unreachable")

        beat = ClaimHeartbeat(DeadStore(), ["j1"], "w-test", interval=30.0)
        beat.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:  # first beat fires immediately
            if counter_value("repro_heartbeat_total", result="error"):
                break
            time.sleep(0.01)
        beat.stop()
        assert counter_value("repro_heartbeat_total", result="error") >= 1
        (event,) = [e for e in events(telemetry_on)
                    if e["event"] == "heartbeat_error"][:1]
        assert event["job_id"] == "j1"
        assert "store unreachable" in event["error"]

    def test_lost_heartbeat_emitted(self, tmp_path, telemetry_on):
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store.submit(ProtectionJob(dataset="flare", generations=2))
        beat = ClaimHeartbeat(store, ["never-claimed"], "w-test", interval=30.0)
        beat.start()
        deadline = time.time() + 5.0
        while time.time() < deadline:
            if counter_value("repro_heartbeat_total", result="lost"):
                break
            time.sleep(0.01)
        beat.stop()
        assert counter_value("repro_heartbeat_total", result="lost") >= 1
        assert any(e["event"] == "heartbeat_lost" for e in events(telemetry_on))

    def test_failed_release_emitted_not_raised(self, telemetry_on):
        class DeadStore:
            def release(self, job_id, owner):
                raise OSError("gone")

        release_quietly(DeadStore(), ["j1", "j2"], "w-test")
        errors = [e for e in events(telemetry_on) if e["event"] == "release_error"]
        assert [e["job_id"] for e in errors] == ["j1", "j2"]
        assert counter_value("repro_errors_total", event="release_error") == 2

    def test_telemetry_push_failure_counted_not_raised(self, tmp_path):
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store.push_telemetry = lambda source, snapshot: (_ for _ in ()).throw(
            OSError("no server")
        )
        worker = Worker(store, worker_id="w-test")
        worker._maybe_push_telemetry(force=True)
        assert counter_value("repro_errors_total",
                             event="telemetry_push_error") == 1

    def test_push_throttled_between_forces(self, tmp_path):
        pushes = []
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        store.push_telemetry = lambda source, snapshot: pushes.append(source)
        worker = Worker(store, worker_id="w-test")
        worker._maybe_push_telemetry(force=True)
        worker._maybe_push_telemetry()  # inside min_interval: skipped
        worker._maybe_push_telemetry(force=True)
        assert pushes == ["w-test", "w-test"]


def histogram_count(name: str) -> int:
    return sum(
        entry["count"] for entry in obs.get_registry().snapshot()["histograms"]
        if entry["name"] == name
    )


class TestCheckpointTelemetry:
    @pytest.fixture()
    def checkpoint(self, tiny_dataset):
        from repro.core import EvolutionaryProtector
        from repro.core.operators import mutate
        from repro.metrics import ProtectionEvaluator

        evaluator = ProtectionEvaluator(tiny_dataset, tiny_dataset.attribute_names)
        protections = [
            mutate(tiny_dataset, tiny_dataset.attribute_names, seed=i, name=f"p{i}")
            for i in range(4)
        ]
        captured = []
        EvolutionaryProtector(evaluator, seed=1).run(
            protections, stopping=2, checkpoint_every=2, on_checkpoint=captured.append)
        return captured[-1]

    def test_manager_saves_counted_in_seconds_and_bytes(self, tmp_path, checkpoint):
        from repro.service import CheckpointManager

        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        manager = CheckpointManager(store, "job")
        manager.save(checkpoint)
        manager.save(checkpoint)
        assert histogram_count("repro_checkpoint_seconds") == 2
        assert counter_value("repro_checkpoint_bytes_total") == (
            2 * len(json.dumps(store.get_checkpoint("job")))
        )

    def test_each_save_encodes_once_and_counts_the_stored_blob(
            self, store_harness, checkpoint, monkeypatch):
        """The byte counter reads the store's own encode: no sizing re-encode."""
        from repro.service import CheckpointManager

        encodes: list[str] = []
        dumps = json.dumps

        def spy(obj, *args, **kwargs):
            text = dumps(obj, *args, **kwargs)
            if '"save-marker"' in text:
                encodes.append(text)
            return text

        monkeypatch.setattr(json, "dumps", spy)
        manager = CheckpointManager(store_harness.store, "job")
        stored = []
        for save in ("first", "second"):
            assert manager.save(checkpoint, marker={"save-marker": save})
            stored.append(store_harness.backing.get_checkpoint("job"))
        # One encode per hop: the sqlite store's, plus the client's
        # request body when the store sits behind the HTTP server.
        hops = 1 if store_harness.store is store_harness.backing else 2
        assert len(encodes) == 2 * hops
        assert counter_value("repro_checkpoint_bytes_total") == sum(
            len(dumps(payload)) for payload in stored)

    def test_island_saves_counted_in_seconds_and_bytes(self, tmp_path, checkpoint):
        from repro.service.islands import _persist_island_checkpoint, _state_payload

        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        job = ProtectionJob(dataset="flare", generations=2, seed=5)
        _persist_island_checkpoint(store, job, checkpoint, _state_payload({}))
        stored = store.get_checkpoint(job.job_id)
        assert stored["island_state"] == _state_payload({})
        assert histogram_count("repro_checkpoint_seconds") == 1
        assert counter_value("repro_checkpoint_bytes_total") == len(json.dumps(stored))

    def test_disabled_registry_records_nothing(self, tmp_path, checkpoint):
        from repro.service import CheckpointManager

        obs.disable()
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        CheckpointManager(store, "job").save(checkpoint)
        assert histogram_count("repro_checkpoint_seconds") == 0
        assert counter_value("repro_checkpoint_bytes_total") == 0
