"""Network job store: transport behaviour and cross-machine invariants.

The store *semantics* shared with the local sqlite store live in
``tests/test_store_contract.py``; this module covers what only the
network layer adds — token auth, retry/backoff into
``StoreUnavailableError``, checkpoints that bypass the client spool,
protocol hygiene — and the acceptance end-to-end: two remote workers
over real HTTP partition a queue with zero double-executions and results
byte-identical to a serial run.
"""

from __future__ import annotations

import json
import pickle
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.exceptions import ServiceError, StoreUnavailableError, WorkerError
from repro.obs.instrument import instrument_store
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


    @pytest.mark.parametrize("body", [b"[]", b'"Bad Gateway"', b'{"error": "boom"}'])
    def test_error_body_without_detail_maps_to_http_code(self, body):
        # A proxy in front of the server answers with its own body; any
        # JSON that is not {"error": {...}} means "no detail", not a crash.
        import io

        from repro.service.netstore import _mapped_error

        exc = urllib.error.HTTPError("http://store/rpc", 502, "Bad Gateway",
                                     {}, io.BytesIO(body))
        mapped = _mapped_error(exc)
        assert type(mapped) is ServiceError
        assert "HTTP 502" in str(mapped)


class TestPickling:
    @pytest.mark.parametrize("wrap", [False, True], ids=["bare", "instrumented"])
    def test_a_pickled_client_keeps_its_url_token_and_spool(self, server, tmp_path,
                                                            wrap):
        client = _client(server, tmp_path, retries=2)
        shipped = pickle.loads(pickle.dumps(instrument_store(client) if wrap else client))
        assert type(shipped) is RemoteJobStore
        assert (shipped.base_url, shipped.token, shipped.root, shipped.retries) == (
            server.url, TOKEN, tmp_path / "spool", 2)
        assert shipped.ping() == client.ping()


class TestCheckpointSpool:
    """Checkpoints bypass the client's spool: each save and load is one
    RPC against the server's copy, and nothing else moves them."""

    def _checkpoint(self, version=1, fingerprint="fp", generation=3):
        return {"version": version, "fingerprint": fingerprint,
                "generation": generation}

    def test_lost_owner_cannot_clobber_new_owners_checkpoint(
        self, server, backing, tmp_path
    ):
        # Worker A's claim is recovered and re-granted to B; A's late
        # save must not overwrite the checkpoint B has saved.
        client_a = _client(server, tmp_path, name="spool-a")
        assert client_a.claim("job-1", owner="worker-a")
        client_a.put_checkpoint("job-1", self._checkpoint(generation=3),
                                owner="worker-a")
        backing.release("job-1")  # stale recovery
        backing.claim("job-1", owner="worker-b")
        backing.put_checkpoint("job-1", self._checkpoint(generation=8),
                               owner="worker-b")
        with pytest.raises(WorkerError):
            client_a.put_checkpoint("job-1", self._checkpoint(generation=5),
                                    owner="worker-a")
        assert client_a.release("job-1", owner="worker-a") is False
        assert backing.get_checkpoint("job-1")["generation"] == 8

    def test_unchanged_checkpoint_not_reuploaded(self, server, backing, tmp_path):
        backing.put_checkpoint("job-1", self._checkpoint())

        def updated_at():
            with backing._lock:
                return backing._conn.execute(
                    "SELECT updated_at FROM checkpoints WHERE job_id = 'job-1'"
                ).fetchone()[0]

        client = _client(server, tmp_path)
        assert client.claim("job-1", owner="w")
        before = updated_at()
        assert client.heartbeat("job-1", owner="w")
        assert client.release("job-1", owner="w")
        assert updated_at() == before
        assert client.get_checkpoint("job-1") == self._checkpoint()
        assert not (client.root / "checkpoints").exists()


class TestSavesWhileTheServerIsDown:
    """A save runs on the GA's own thread, so an unreachable server must
    cost it one attempt at most — never the retry policy's backoff."""

    JOB = ProtectionJob(dataset="adult", generations=4, seed=3)

    def test_refused_saves_are_dropped_without_stalling_the_run(
        self, backing, tmp_path
    ):
        server = JobStoreServer(backing, token=TOKEN).start()
        url = server.url
        server.stop()
        # The CLI's client defaults: 4 attempts, 0.2 + 0.4 + 0.8 s backoff.
        client = RemoteJobStore(url, token=TOKEN, spool=tmp_path / "s")
        calls = []
        original = client._call

        def timed(method, **params):
            started = time.monotonic()
            try:
                return original(method, **params)
            finally:
                calls.append((method, time.monotonic() - started))

        client._call = timed
        (result,) = JobRunner(checkpoint_every=1, store=client,
                              owner="w1").run([self.JOB])
        (straight,) = JobRunner().run([self.JOB])
        assert result.final_scores == straight.final_scores
        assert [method for method, _ in calls] == (
            ["put_checkpoint"] * self.JOB.generations)
        assert max(seconds for _, seconds in calls) < 0.2

    def test_a_hung_server_costs_a_save_one_timeout(self, tmp_path):
        # Accepts connections (the kernel's backlog does) but never answers.
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen(8)
            host, port = listener.getsockname()
            client = RemoteJobStore(f"http://{host}:{port}", spool=tmp_path / "s",
                                    timeout=0.3, retries=3, backoff=0.2)
            started = time.monotonic()
            with pytest.raises(StoreUnavailableError, match="after 1 attempt"):
                client.put_checkpoint("job-1", {"generation": 1}, owner="w1")
            # With retries: 4 timeouts + 1.4 s of backoff, about 2.6 s.
            assert time.monotonic() - started < 0.9
            # Ownerless blobs (migrant buffers, traces) still retry.
            with pytest.raises(StoreUnavailableError, match="after 4 attempt"):
                client.put_checkpoint("job-1.migrants", {"rounds": {}})


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

    def test_a_process_pool_drains_through_the_shipped_client(self, server, backing,
                                                                tmp_path):
        # Each pool worker unpickles the client and talks to the server
        # itself: the checkpoints of both jobs land there.
        client = _client(server, tmp_path)
        jobs = [ProtectionJob(dataset="flare", generations=3, seed=s) for s in (1, 2)]
        for job in jobs:
            client.submit(job, extras={"checkpoint_every": 1})
        with Worker(client, backend="process", capacity=2, worker_id="pool",
                    use_cache=False) as worker:
            outcomes = worker.run_once()
        assert sorted(out.job_id for out in outcomes if out.ok) == sorted(
            job.job_id for job in jobs)
        for job in jobs:
            assert backing.get(job.job_id).status == "completed"
            assert backing.get_checkpoint(job.job_id)["generation"] == 3
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
