"""Network job store: transport behaviour and cross-machine invariants.

The store *semantics* shared with the local sqlite store live in
``tests/test_store_contract.py``; this module covers what only the
network layer adds — token auth, retry/backoff into
``StoreUnavailableError``, the checkpoint spool, protocol hygiene — and
the acceptance end-to-end: two remote workers over real HTTP partition a
queue with zero double-executions and results byte-identical to a serial
run.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ServiceError, StoreUnavailableError
from repro.service import (
    JobRecord,
    JobRunner,
    JobStoreServer,
    ProtectionJob,
    RemoteJobStore,
    SqliteJobStore,
    Worker,
)

TOKEN = "s3cret"


@pytest.fixture
def backing(tmp_path):
    return SqliteJobStore(tmp_path / "state" / "jobs.sqlite")


@pytest.fixture
def server(backing):
    with JobStoreServer(backing, token=TOKEN) as live:
        yield live


def _client(server, tmp_path, name="spool", **kwargs):
    kwargs.setdefault("retries", 1)
    kwargs.setdefault("backoff", 0.02)
    return RemoteJobStore(server.url, token=TOKEN, spool=tmp_path / name, **kwargs)


class TestTransport:
    def test_health_endpoint_needs_no_token(self, server):
        with urllib.request.urlopen(f"{server.url}/health", timeout=5) as response:
            assert json.loads(response.read()) == {"ok": True}

    def test_ping_reports_protocol_version(self, server, tmp_path):
        assert _client(server, tmp_path).ping()["protocol"] == 1

    def test_wrong_token_rejected(self, server, tmp_path):
        client = RemoteJobStore(server.url, token="wrong", spool=tmp_path / "s",
                                retries=0)
        with pytest.raises(ServiceError, match="unauthorized"):
            client.records()

    def test_missing_token_rejected(self, server, tmp_path):
        client = RemoteJobStore(server.url, spool=tmp_path / "s", retries=0)
        with pytest.raises(ServiceError, match="unauthorized"):
            client.records()

    def test_unknown_method_rejected(self, server, tmp_path):
        with pytest.raises(ServiceError, match="unknown method"):
            _client(server, tmp_path)._call("drop_all_tables")

    def test_unknown_path_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/nope", timeout=5)
        assert excinfo.value.code == 404

    def test_unreachable_store_raises_after_retries(self, tmp_path):
        client = RemoteJobStore("http://127.0.0.1:9", spool=tmp_path / "s",
                                retries=2, backoff=0.01, timeout=0.5)
        with pytest.raises(StoreUnavailableError, match="after 3 attempt"):
            client.records()

    def test_stopped_server_raises_store_unavailable(self, backing, tmp_path):
        server = JobStoreServer(backing, token=TOKEN).start()
        client = _client(server, tmp_path)
        assert client.records() == []
        server.stop()
        with pytest.raises(StoreUnavailableError):
            client.records()

    def test_stop_returns_promptly(self, backing):
        # stop() waits out one poll of the serve loop, so the poll
        # interval bounds every server teardown.
        server = JobStoreServer(backing, token=TOKEN).start()
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.25

    def test_job_id_traversal_rejected_on_every_rpc(self, server, backing, tmp_path):
        # Job ids become file names in the served state directory; every
        # RPC that takes one — not just the checkpoint ops — must reject
        # an id that could escape it, before touching the disk.
        client = _client(server, tmp_path)
        evil = "../../../etc/passwd"
        for method in ("get", "claim", "release", "heartbeat", "claim_info"):
            with pytest.raises(ServiceError, match="invalid job id"):
                client._call(method, job_id=evil)
        with pytest.raises(ServiceError, match="invalid job id"):
            client._call("get_checkpoint", job_id=evil)
        with pytest.raises(ServiceError, match="invalid job id"):
            client._call("put_checkpoint", job_id=".hidden", payload={})
        # A record/job smuggling a traversal through its dataset field
        # (job ids are derived from it) is rejected the same way.
        record = JobRecord(job=ProtectionJob(dataset="../escape", generations=1))
        with pytest.raises(ServiceError, match="invalid job id"):
            client.save(record)
        with pytest.raises(ServiceError, match="invalid job id"):
            client.submit(record.job)
        assert not (backing.root.parent / "etc").exists()


class TestCheckpointSpool:
    def _checkpoint(self, version=1, fingerprint="fp", generation=3):
        return {"version": version, "fingerprint": fingerprint,
                "generation": generation}

    def test_winning_a_claim_downloads_server_checkpoint(self, server, backing, tmp_path):
        (backing.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint(generation=5)), encoding="utf-8"
        )
        client = _client(server, tmp_path)
        assert client.claim("job-1", owner="w")
        local = client.checkpoints_dir / "job-1.json"
        assert json.loads(local.read_text(encoding="utf-8"))["generation"] == 5

    def test_losing_a_claim_downloads_nothing(self, server, backing, tmp_path):
        (backing.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint()), encoding="utf-8"
        )
        backing.claim("job-1", owner="other")
        client = _client(server, tmp_path)
        assert not client.claim("job-1", owner="w")
        assert not (client.checkpoints_dir / "job-1.json").exists()

    def test_heartbeat_uploads_changed_checkpoint(self, server, backing, tmp_path):
        client = _client(server, tmp_path)
        assert client.claim("job-1", owner="w")
        (client.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint(generation=9)), encoding="utf-8"
        )
        assert client.heartbeat("job-1", owner="w")
        remote = backing.checkpoints_dir / "job-1.json"
        assert json.loads(remote.read_text(encoding="utf-8"))["generation"] == 9

    def test_release_uploads_final_checkpoint(self, server, backing, tmp_path):
        client = _client(server, tmp_path)
        assert client.claim("job-1", owner="w")
        (client.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint(generation=11)), encoding="utf-8"
        )
        assert client.release("job-1", owner="w")
        remote = backing.checkpoints_dir / "job-1.json"
        assert json.loads(remote.read_text(encoding="utf-8"))["generation"] == 11

    def test_lost_owner_cannot_clobber_new_owners_checkpoint(
        self, server, backing, tmp_path
    ):
        # Worker A's claim is recovered and re-granted to B; A's late
        # release must not overwrite the checkpoint B has uploaded.
        client_a = _client(server, tmp_path, name="spool-a")
        assert client_a.claim("job-1", owner="worker-a")
        (client_a.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint(generation=3)), encoding="utf-8"
        )
        backing.release("job-1")  # stale recovery
        backing.claim("job-1", owner="worker-b")
        (backing.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint(generation=8)), encoding="utf-8"
        )
        assert client_a.release("job-1", owner="worker-a") is False
        remote = backing.checkpoints_dir / "job-1.json"
        assert json.loads(remote.read_text(encoding="utf-8"))["generation"] == 8

    def test_unchanged_checkpoint_not_reuploaded(self, server, backing, tmp_path):
        (backing.checkpoints_dir / "job-1.json").write_text(
            json.dumps(self._checkpoint()), encoding="utf-8"
        )
        client = _client(server, tmp_path)
        assert client.claim("job-1", owner="w")
        server_mtime = (backing.checkpoints_dir / "job-1.json").stat().st_mtime
        assert client.heartbeat("job-1", owner="w")
        assert (backing.checkpoints_dir / "job-1.json").stat().st_mtime == server_mtime


class TestRemoteWorkers:
    def _jobs(self, seeds=(1, 2, 3, 4)):
        return [ProtectionJob(dataset="adult", generations=1, seed=s) for s in seeds]

    def test_remote_worker_runs_queued_job(self, server, backing, tmp_path):
        client = _client(server, tmp_path)
        (job,) = self._jobs(seeds=(7,))
        client.submit(job)
        (outcome,) = Worker(client, worker_id="remote", use_cache=False).run_once()
        assert outcome.ok
        assert backing.get(job.job_id).status == "completed"
        assert backing.claimed_job_ids() == []

    def test_two_http_workers_partition_queue_byte_identical_to_serial(
        self, server, backing, tmp_path
    ):
        # The acceptance invariant, over real HTTP: two workers on
        # separate client spools drain one server queue with zero
        # double-executions, and the fleet's results are byte-identical
        # to running the same jobs serially with no service at all.
        jobs = self._jobs()
        submit_client = _client(server, tmp_path, name="submitter")
        for job in jobs:
            submit_client.submit(job)

        executed: dict[str, list[str]] = {"w1": [], "w2": []}
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def drain(name: str) -> None:
            store = _client(server, tmp_path, name=f"spool-{name}", retries=3)
            worker = Worker(store, worker_id=name, use_cache=False)
            barrier.wait()
            try:
                executed[name] = [out.job_id for out in worker.run_once()]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drain, args=(n,)) for n in executed]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        assert set(executed["w1"]).isdisjoint(executed["w2"])
        assert sorted(executed["w1"] + executed["w2"]) == sorted(
            job.job_id for job in jobs
        )

        serial = JobRunner(backend="serial").run(jobs)
        for job, expected in zip(jobs, serial):
            record = backing.get(job.job_id)
            assert record.status == "completed"
            assert record.result.final_scores == expected.final_scores
            assert record.result.best_score == expected.best_score
        assert backing.claimed_job_ids() == []

    def test_local_and_remote_workers_share_one_queue(self, server, backing, tmp_path):
        # The server adds no state: a worker on the server's filesystem
        # and a remote worker over HTTP obey one claim protocol.
        jobs = self._jobs(seeds=(11, 12))
        client = _client(server, tmp_path)
        for job in jobs:
            client.submit(job)
        remote_worker = Worker(client, worker_id="remote", use_cache=False)
        local_worker = Worker(backing, worker_id="local", use_cache=False)
        remote_done = [out.job_id for out in remote_worker.run_once(max_jobs=1)]
        local_done = [out.job_id for out in local_worker.run_once()]
        assert sorted(remote_done + local_done) == sorted(j.job_id for j in jobs)
        for job in jobs:
            assert backing.get(job.job_id).status == "completed"
