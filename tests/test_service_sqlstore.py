"""SqliteJobStore specifics the backend-agnostic contract cannot cover.

The conformance battery (``test_store_contract.py``) already runs
verbatim against the sqlite store, directly and behind the live HTTP
server.  What belongs here is what is *particular* to a transactional
database backend: crash rollback mid-claim (a killed claimer strands
nothing), cross-process claim exclusivity decided by ``BEGIN
IMMEDIATE``, checkpoint blobs riding in the database, worker fleets
partitioning an sqlite-backed queue byte-identically to a serial run,
and the ``store_from_spec`` / ``migrate_store`` plumbing around it all.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.exceptions import ServiceError
from repro.service import (
    JobRunner,
    ProtectionJob,
    RemoteJobStore,
    SqliteJobStore,
    Worker,
    migrate_store,
    store_from_spec,
)
from repro.service.store import STORE_PROTOCOL, LegacyFileStore


def _job(seed: int = 1) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=1, seed=seed)


@pytest.fixture
def store(tmp_path) -> SqliteJobStore:
    return SqliteJobStore(tmp_path / "state" / "jobs.sqlite")


class TestCrashMidClaim:
    """A claimer killed inside the claim transaction strands nothing."""

    def _crash_claimer(self, store: SqliteJobStore, job_id: str,
                       after_commit: bool) -> None:
        """Run a claim in a subprocess that dies with the transaction
        open (``after_commit=False``) or right after it commits but
        before any mark/heartbeat (``after_commit=True``).  ``os._exit``
        skips every destructor, like a SIGKILL would."""
        commit = "conn.execute('COMMIT')" if after_commit else "pass"
        script = (
            "import os, sqlite3, sys, time\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('PRAGMA busy_timeout=10000')\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "now = time.time()\n"
            "conn.execute('INSERT INTO claims "
            "(job_id, owner, pid, claimed_at, last_seen) "
            "VALUES (?, ?, ?, ?, ?)', "
            "(sys.argv[2], 'doomed-worker', os.getpid(), now, now))\n"
            f"{commit}\n"
            "os._exit(0)\n"
        )
        subprocess.run([sys.executable, "-c", script,
                        str(store.path), job_id], check=True, timeout=30)

    def test_death_before_commit_leaves_job_cleanly_queued(self, store):
        record = store.submit(_job())
        self._crash_claimer(store, record.job_id, after_commit=False)
        # The open transaction died with the process: rolled back.
        assert store.claim_info(record.job_id) is None
        assert store.get(record.job_id).status == "queued"
        # Nothing is stranded half-claimed: the next worker wins cleanly.
        assert store.claim(record.job_id, owner="survivor") is True
        assert store.recover_stale_claims(max_age_seconds=3600) == []

    def test_death_after_commit_leaves_job_cleanly_claimed(self, store):
        record = store.submit(_job())
        self._crash_claimer(store, record.job_id, after_commit=True)
        # The commit landed: the job is claimed by the dead worker,
        # exactly as if it crashed a moment later — the normal stale
        # path recovers it once the claim goes silent.
        assert store.claim_info(record.job_id)["owner"] == "doomed-worker"
        assert store.claim(record.job_id, owner="survivor") is False
        with store._lock:
            store._conn.execute(
                "UPDATE claims SET last_seen = last_seen - 7200 WHERE job_id = ?",
                (record.job_id,),
            )
        assert store.recover_stale_claims(max_age_seconds=3600) == [record.job_id]
        assert store.get(record.job_id).status == "queued"
        assert store.claim(record.job_id, owner="survivor") is True


class TestCrossProcessExclusivity:
    def test_claims_from_other_processes_are_mutually_exclusive(self, store):
        # Eight subprocesses — real processes, not threads, so SQLite's
        # own locking is what serializes them — contend for one job.
        record = store.submit(_job())
        script = (
            "import sys\n"
            "sys.path.insert(0, sys.argv[3])\n"
            "from repro.service import SqliteJobStore\n"
            "store = SqliteJobStore(sys.argv[1])\n"
            "won = store.claim(sys.argv[2], owner=f'proc-{sys.argv[4]}')\n"
            "sys.exit(0 if won else 7)\n"
        )
        import repro

        src = str(Path(repro.__file__).parents[1])
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(store.path),
                              record.job_id, src, str(i)])
            for i in range(8)
        ]
        codes = [proc.wait(timeout=60) for proc in procs]
        assert codes.count(0) == 1
        assert codes.count(7) == 7
        assert store.claim_info(record.job_id)["owner"].startswith("proc-")


class TestTransactionalBatch:
    def test_racing_claim_batches_partition_exactly(self, store):
        for seed in range(12):
            store.submit(_job(seed))
        wins: dict[str, list[str]] = {}
        barrier = threading.Barrier(4)

        def contend(name: str) -> None:
            barrier.wait()
            batch: list[str] = []
            while True:
                won = store.claim_batch(owner=name, limit=2)
                if not won:
                    break
                batch.extend(r.job_id for r in won)
            wins[name] = batch

        threads = [threading.Thread(target=contend, args=(f"w{i}",))
                   for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        all_wins = [job_id for batch in wins.values() for job_id in batch]
        assert len(all_wins) == len(set(all_wins)) == 12


class TestCheckpointBlobsInDatabase:
    def test_put_checkpoint_writes_the_table_only(self, store):
        store.put_checkpoint("job-x", {"generation": 5})
        with store._lock:
            (payload,) = store._conn.execute(
                "SELECT payload FROM checkpoints WHERE job_id = 'job-x'"
            ).fetchone()
        assert json.loads(payload) == {"generation": 5}
        assert not store.checkpoint_path("job-x").parent.exists()

    def test_claim_heartbeat_and_release_leave_checkpoints_alone(self, store):
        store.put_checkpoint("job-z", {"generation": 2})
        with store._lock:
            (before,) = store._conn.execute(
                "SELECT updated_at FROM checkpoints WHERE job_id = 'job-z'"
            ).fetchone()
        assert store.claim("job-z", owner="w") is True
        assert store.heartbeat("job-z", owner="w") is True
        assert store.release("job-z", owner="w") is True
        with store._lock:
            (after,) = store._conn.execute(
                "SELECT updated_at FROM checkpoints WHERE job_id = 'job-z'"
            ).fetchone()
        assert after == before
        assert store.get_checkpoint("job-z") == {"generation": 2}

    def test_checkpoint_is_serialized_outside_the_write_transaction(self, store,
                                                                   monkeypatch):
        from repro.service import sqlstore

        during: list[bool] = []
        dumps = sqlstore.json.dumps

        def recording(payload, *args, **kwargs):
            if isinstance(payload, dict) and payload.get("marker") == "checkpoint":
                during.append(store._conn.in_transaction)
            return dumps(payload, *args, **kwargs)

        monkeypatch.setattr(sqlstore.json, "dumps", recording)
        store.put_checkpoint("job-x", {"marker": "checkpoint"})
        assert during == [False]
        assert store.get_checkpoint("job-x") == {"marker": "checkpoint"}

    def test_unserializable_checkpoint_raises_before_any_transaction(self, store,
                                                                   monkeypatch):
        class Recording:
            """The store's connection, recording every statement it runs."""

            def __init__(self, conn) -> None:
                self.conn = conn
                self.statements: list[str] = []

            def execute(self, sql, *args):
                self.statements.append(sql)
                return self.conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self.conn, name)

        recording = Recording(store._conn)
        monkeypatch.setattr(store, "_conn", recording)
        with pytest.raises(TypeError):
            store.put_checkpoint("job-x", {"bad": object()})
        assert recording.statements == []
        assert not store._conn.in_transaction
        # The store still takes the next write.
        store.put_checkpoint("job-x", {"generation": 1})
        assert store.get_checkpoint("job-x") == {"generation": 1}

    def test_legacy_file_is_read_when_the_table_has_no_row(self, store):
        legacy = store.checkpoint_path("job-old")
        legacy.parent.mkdir()
        legacy.write_text(json.dumps({"generation": 7}), encoding="utf-8")
        assert store.get_checkpoint("job-old") == {"generation": 7}
        # The first save into the table supersedes the file.
        store.put_checkpoint("job-old", {"generation": 9})
        assert store.get_checkpoint("job-old") == {"generation": 9}


class TestWorkerFleet:
    def test_two_workers_partition_sqlite_queue_byte_identical_to_serial(
        self, store
    ):
        jobs = [_job(seed) for seed in (1, 2, 3, 4)]
        for job in jobs:
            store.submit(job)
        executed: dict[str, list[str]] = {"w1": [], "w2": []}
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        def drain(name: str) -> None:
            worker = Worker(SqliteJobStore(store.path), worker_id=name,
                            use_cache=False)
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
            record = store.get(job.job_id)
            assert record.status == "completed"
            assert record.result.final_scores == expected.final_scores
            assert record.result.best_score == expected.best_score
        assert store.claimed_job_ids() == []


class TestStoreFromSpec:
    def test_sqlite_spec_opens_the_database(self, tmp_path):
        path = tmp_path / "fleet" / "jobs.sqlite"
        opened = store_from_spec(f"sqlite:{path}")
        assert isinstance(opened, SqliteJobStore)
        assert opened.path == path
        assert opened.spec == f"sqlite:{path}"

    def test_bare_path_opens_its_jobs_sqlite(self, tmp_path):
        bare = store_from_spec(str(tmp_path / "b"))
        assert isinstance(bare, SqliteJobStore)
        assert bare.path == tmp_path / "b" / "jobs.sqlite"

    def test_empty_spec_uses_state_dir(self, tmp_path):
        opened = store_from_spec("", state_dir=tmp_path / "home")
        assert isinstance(opened, SqliteJobStore)
        assert opened.path == tmp_path / "home" / "jobs.sqlite"

    def test_empty_spec_defaults_to_repro_home(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
        assert store_from_spec("").path == tmp_path / "home" / "jobs.sqlite"

    def test_tilde_paths_expand_to_home(self, tmp_path, monkeypatch):
        # Shells do not tilde-expand after the colon, so `sqlite:~/x`
        # arrives verbatim; opening a literal ./~ directory would make
        # a migration look successful while copying nothing.
        monkeypatch.setenv("HOME", str(tmp_path))
        assert store_from_spec("~/state").root == tmp_path / "state"
        assert store_from_spec(
            "sqlite:~/db/jobs.sqlite"
        ).path == tmp_path / "db" / "jobs.sqlite"

    def test_http_spec_builds_a_remote_client(self, tmp_path):
        opened = store_from_spec("http://127.0.0.1:9", token="t",
                                 state_dir=tmp_path / "spool")
        assert isinstance(opened, RemoteJobStore)
        assert opened.base_url == "http://127.0.0.1:9"
        assert opened.root == tmp_path / "spool"

    def test_every_spec_satisfies_the_protocol(self, tmp_path):
        for spec in (str(tmp_path / "f"),
                     f"sqlite:{tmp_path / 'db' / 'jobs.sqlite'}",
                     "http://127.0.0.1:9"):
            opened = store_from_spec(spec, state_dir=tmp_path / "spool")
            for name in STORE_PROTOCOL:
                assert callable(getattr(opened, name)), (spec, name)

    def test_unknown_scheme_rejected_with_grammar(self, tmp_path):
        with pytest.raises(ServiceError) as excinfo:
            store_from_spec("sqllite:jobs.db")
        message = str(excinfo.value)
        assert "sqllite:" in message
        for grammar in ("directory path", "sqlite:PATH", "http(s)://"):
            assert grammar in message
        assert "shard:" not in message

    def test_existing_directory_with_colon_still_opens(self, tmp_path):
        # A user who really has a directory named like a scheme typo can
        # still open it: existence wins over the typo heuristic.
        weird = tmp_path / "odd:dir"
        weird.mkdir()
        store = store_from_spec(str(weird))
        assert isinstance(store, SqliteJobStore)
        assert store.path == weird / "jobs.sqlite"

    def test_bare_paths_still_work(self, tmp_path):
        store = store_from_spec(str(tmp_path / "plain"))
        assert isinstance(store, SqliteJobStore)
        assert store.path == tmp_path / "plain" / "jobs.sqlite"


class TestMigration:
    def _populate(self, source) -> dict[str, str]:
        queued = source.submit(_job(1))
        failed = source.submit(_job(2))
        source.mark_failed(failed, "boom")
        running = source.submit(_job(3))
        source.mark_running(running)
        source.put_checkpoint(running.job_id, {"generation": 11})
        return {"queued": queued.job_id, "failed": failed.job_id,
                "running": running.job_id}

    def _assert_mirrored(self, source, target, ids) -> None:
        assert {r.job_id for r in target.records()} == set(ids.values())
        for record in source.records():
            mirrored = target.get(record.job_id)
            assert mirrored.status == record.status
            assert mirrored.submitted_at == record.submitted_at
            assert mirrored.error == record.error
        assert target.get_checkpoint(ids["running"]) == {"generation": 11}
        # Claims never migrate; the stranded running record is exactly
        # what the first recovery pass on the target repairs.
        assert target.claimed_job_ids() == []
        assert target.recover_stale_claims() == [ids["running"]]
        assert target.get(ids["running"]).status == "queued"

    def test_file_to_sqlite_roundtrip(self, tmp_path):
        staged = SqliteJobStore(tmp_path / "staged" / "jobs.sqlite")
        ids = self._populate(staged)
        legacy = tmp_path / "dir"
        (legacy / "jobs").mkdir(parents=True)
        (legacy / "checkpoints").mkdir()
        for record in staged.records():
            (legacy / "jobs" / f"{record.job_id}.json").write_text(
                json.dumps(record.to_dict()), encoding="utf-8")
        (legacy / "checkpoints" / f"{ids['running']}.json").write_text(
            json.dumps({"generation": 11}), encoding="utf-8")
        target = SqliteJobStore(tmp_path / "db" / "jobs.sqlite")
        counts = migrate_store(LegacyFileStore(legacy), target)
        assert counts == {"records": 3, "checkpoints": 1, "traces": 0,
                          "migrants": 0}
        self._assert_mirrored(staged, target, ids)


class TestStreamingMigrate:
    def test_migrate_emits_progress_chunks(self, tmp_path):
        registry = obs.enable()
        stream = io.StringIO()
        obs.configure_events(stream)
        try:
            source = SqliteJobStore(tmp_path / "src.sqlite")
            for seed in range(7):
                source.submit(_job(seed))
            target = SqliteJobStore(tmp_path / "dst" / "jobs.sqlite")
            counts = migrate_store(source, target, chunk_size=3)
            assert counts == {"records": 7, "checkpoints": 0, "traces": 0,
                              "migrants": 0}
            progress = [json.loads(line) for line in
                        stream.getvalue().splitlines()
                        if json.loads(line)["event"] == "migrate_progress"]
            assert [p["records"] for p in progress] == [3, 6, 7]
            assert progress[-1].get("done") is True
        finally:
            obs.disable()
            obs.configure_events(None)
            registry.reset()

    def test_iter_records_streams_everything(self, tmp_path):
        store = SqliteJobStore(tmp_path / "db.sqlite")
        for seed in range(5):
            store.submit(_job(seed))
        streamed = sorted(r.job_id for r in store.iter_records())
        assert streamed == sorted(r.job_id for r in store.records())


class TestSqliteStoreBasics:
    def test_unknown_job_error_names_the_database(self, store):
        with pytest.raises(ServiceError, match="unknown job"):
            store.get("nope")

    def test_reopening_sees_persisted_state(self, tmp_path):
        path = tmp_path / "jobs.sqlite"
        first = SqliteJobStore(path)
        record = first.submit(_job())
        first.claim(record.job_id, owner="w")
        first.close()
        second = SqliteJobStore(path)
        assert second.get(record.job_id).status == "queued"
        assert second.claim_info(record.job_id)["owner"] == "w"

    def test_wal_mode_is_active(self, store):
        with store._lock:
            (mode,) = store._conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
