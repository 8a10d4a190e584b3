"""CLI over the sqlite store: --store sqlite:PATH end to end.

Drives ``repro`` exactly as an operator would run an sqlite-backed
fleet: detached submission, workers, status, kill-and-resume (bit
identical), ``repro serve`` with remote clients, and ``repro migrate``
from a legacy file state directory into a database.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import (
    JobRecord,
    JobStoreServer,
    ProtectionJob,
    SqliteJobStore,
)


def _spec(tmp_path) -> str:
    return f"sqlite:{tmp_path / 'state' / 'jobs.sqlite'}"


def _store(tmp_path) -> SqliteJobStore:
    return SqliteJobStore(tmp_path / "state" / "jobs.sqlite")


class TestSubmitWorkerStatus:
    def test_detached_submit_queues_in_the_database(self, tmp_path, capsys):
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seeds", "31,32", "--checkpoint-every", "0", "--detach",
                     "--store", _spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "queued 2 job(s)" in out
        assert f"--store {_spec(tmp_path)}" in out  # the worker hint
        store = _store(tmp_path)
        assert [r.status for r in store.records()] == ["queued", "queued"]

    def test_worker_once_drains_the_database_queue(self, tmp_path, capsys):
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seeds", "31,32", "--checkpoint-every", "0", "--detach",
                     "--store", _spec(tmp_path)]) == 0
        assert main(["worker", "--once", "--no-cache",
                     "--store", _spec(tmp_path)]) == 0
        assert "ran 2 job(s)" in capsys.readouterr().out
        store = _store(tmp_path)
        assert [r.status for r in store.records()] == ["completed", "completed"]
        assert store.claimed_job_ids() == []

    def test_status_reads_the_database(self, tmp_path, capsys):
        record = _store(tmp_path).submit(
            ProtectionJob(dataset="adult", generations=1, seed=5)
        )
        assert main(["status", "--store", _spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert record.job_id in out
        assert _spec(tmp_path) in out  # the table is titled by the spec

    def test_inline_submit_runs_against_sqlite(self, tmp_path, capsys):
        assert main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seed", "8", "--checkpoint-every", "0", "--no-cache",
                     "--store", _spec(tmp_path)]) == 0
        job_id = ProtectionJob(dataset="adult", generations=1, seed=8).job_id
        assert _store(tmp_path).get(job_id).status == "completed"


class TestResumeAfterKill:
    def test_resume_continues_bit_identically_after_a_worker_kill(
        self, tmp_path, capsys
    ):
        # Run a checkpointed job to completion for the reference result,
        # then "kill" the worker after its last checkpoint: the record
        # crashes back to running, the result is gone, only the
        # checkpoint blob in the database survives.  `repro resume
        # --store sqlite:` must finish it bit-identically.
        spec = _spec(tmp_path)
        assert main(["submit", "--dataset", "adult", "--generations", "3",
                     "--seed", "63", "--checkpoint-every", "2",
                     "--store", spec]) == 0
        job_id = ProtectionJob(dataset="adult", generations=3, seed=63).job_id
        store = _store(tmp_path)
        straight = store.get(job_id).result
        assert straight is not None
        assert store.get_checkpoint(job_id) is not None

        crashed = store.get(job_id)
        crashed.status = "running"
        crashed.result = None
        store.save(crashed)
        # The database blob is the only copy: no file was ever written.
        assert not store.checkpoint_path(job_id).parent.exists()
        capsys.readouterr()

        assert main(["resume", "--job", job_id, "--store", spec]) == 0
        resumed = _store(tmp_path).get(job_id)
        assert resumed.status == "completed"
        assert resumed.result.final_scores == straight.final_scores
        assert resumed.result.best_score == straight.best_score
        assert resumed.result.best_information_loss == straight.best_information_loss
        assert resumed.result.best_disclosure_risk == straight.best_disclosure_risk
        # It continued from the checkpoint, not from scratch.
        assert resumed.result.fresh_evaluations < straight.fresh_evaluations
        assert _store(tmp_path).claimed_job_ids() == []


class TestServeSqliteBackend:
    def test_remote_workers_drain_a_served_database(self, tmp_path, capsys):
        backing = _store(tmp_path)
        with JobStoreServer(backing, token="sql-tok") as server:
            assert main(["submit", "--dataset", "adult", "--generations", "1",
                         "--seed", "21", "--checkpoint-every", "0", "--detach",
                         "--store-url", server.url, "--token", "sql-tok",
                         "--state-dir", str(tmp_path / "spool-a")]) == 0
            assert main(["worker", "--once", "--no-cache",
                         "--store-url", server.url, "--token", "sql-tok",
                         "--state-dir", str(tmp_path / "spool-b")]) == 0
        job_id = ProtectionJob(dataset="adult", generations=1, seed=21).job_id
        assert backing.get(job_id).status == "completed"
        assert backing.claimed_job_ids() == []

    def test_serve_sqlite_defaults_db_into_the_state_dir(self, tmp_path,
                                                         capsys, monkeypatch):
        # Regression: without --db, the database must land in
        # --state-dir (as the --db help text promises), not in the
        # global $REPRO_HOME default.
        monkeypatch.setattr(
            "repro.service.netstore.JobStoreServer.serve_forever",
            lambda self: (_ for _ in ()).throw(KeyboardInterrupt),
        )
        assert main(["serve", "--port", "0", "--token", "t",
                     "--state-dir", str(tmp_path / "fleet")]) == 0
        out = capsys.readouterr().out
        assert f"sqlite:{tmp_path / 'fleet' / 'jobs.sqlite'}" in out
        assert (tmp_path / "fleet" / "jobs.sqlite").exists()

    def test_serve_has_no_backend_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--backend", "file",
                  "--db", str(tmp_path / "jobs.sqlite")])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestMigrateCommand:
    def test_migrate_file_store_to_database_not_back(self, tmp_path, capsys):
        record = JobRecord(job=ProtectionJob(dataset="adult", generations=1,
                                             seed=3), submitted_at=1.0)
        for name, payload in (("jobs", record.to_dict()),
                              ("checkpoints", {"generation": 1})):
            (tmp_path / "dir" / name).mkdir(parents=True)
            (tmp_path / "dir" / name / f"{record.job_id}.json").write_text(
                json.dumps(payload), encoding="utf-8")
        db_spec = f"sqlite:{tmp_path / 'db' / 'jobs.sqlite'}"

        assert main(["migrate", "--from", f"file:{tmp_path / 'dir'}",
                     "--to", db_spec]) == 0
        out = capsys.readouterr().out
        assert "migrated 1 job record(s), 1 checkpoint(s), 0 trace(s) and 0 migrant blob(s)" in out
        migrated = SqliteJobStore(tmp_path / "db" / "jobs.sqlite")
        assert migrated.get(record.job_id).status == "queued"
        assert migrated.get_checkpoint(record.job_id) == {"generation": 1}

        # The directory layout is an import source only.
        assert main(["migrate", "--from", db_spec,
                     "--to", f"file:{tmp_path / 'back'}"]) == 2
        assert "repro migrate --from file:" in capsys.readouterr().err
        assert not (tmp_path / "back").exists()

    def test_migrate_refuses_identical_specs(self, tmp_path, capsys):
        spec = _spec(tmp_path)
        assert main(["migrate", "--from", spec, "--to", spec]) == 2
        assert "different stores" in capsys.readouterr().err


class TestWorkerBackoffFlag:
    def test_poll_max_below_poll_seconds_rejected(self, tmp_path, capsys):
        code = main(["worker", "--poll-seconds", "2", "--poll-max", "1",
                     "--idle-exit", "1", "--store", _spec(tmp_path)])
        assert code == 2
        assert "poll_max" in capsys.readouterr().err

    def test_idle_worker_backs_off_and_exits(self, tmp_path, capsys):
        assert main(["worker", "--poll-seconds", "0.01", "--poll-max", "0.04",
                     "--idle-exit", "3", "--store", _spec(tmp_path)]) == 0
        assert "no claimable queued jobs" in capsys.readouterr().out


@pytest.fixture(autouse=True)
def _isolated_home(monkeypatch, tmp_path):
    # Every CLI invocation here must stay inside the test's tmp dir,
    # even where a default state dir would be consulted.
    monkeypatch.setenv("REPRO_HOME", str(tmp_path / "home"))
