"""CLI tests for the detached-submission flow: submit --detach / worker."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.service import ProtectionJob, SqliteJobStore


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("repro-worker-state"))


@pytest.fixture(scope="module")
def detached(state_dir):
    code = main([
        "submit",
        "--dataset", "adult",
        "--generations", "1",
        "--seeds", "51,52",
        "--checkpoint-every", "0",
        "--detach",
        "--state-dir", state_dir,
    ])
    assert code == 0
    return [
        ProtectionJob(dataset="adult", generations=1, seed=seed).job_id
        for seed in (51, 52)
    ]


class TestDetach:
    def test_records_left_queued(self, state_dir, detached):
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        for job_id in detached:
            assert store.get(job_id).status == "queued"

    def test_no_job_ran(self, state_dir, detached):
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        for job_id in detached:
            record = store.get(job_id)
            assert record.result is None and record.started_at is None

    def test_worker_once_drains_queue(self, state_dir, detached, capsys):
        assert main(["worker", "--once", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "ran 2 job(s)" in out
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        for job_id in detached:
            assert store.get(job_id).status == "completed"
        assert store.claimed_job_ids() == []

    def test_idle_worker_reports_empty_queue(self, state_dir, detached, capsys):
        assert main(["worker", "--once", "--state-dir", state_dir]) == 0
        assert "no claimable queued jobs" in capsys.readouterr().out


class TestDuplicateSeeds:
    def test_duplicates_deduped_with_notice(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        code = main([
            "submit",
            "--dataset", "adult",
            "--generations", "1",
            "--seeds", "7,7,8,7",
            "--detach",
            "--state-dir", state,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "dropped 2 duplicate seed(s)" in out
        assert "queued 2 job(s)" in out
        assert len(SqliteJobStore(Path(state) / "jobs.sqlite").queued()) == 2


class TestCacheBound:
    def test_max_entries_evicts(self, state_dir, detached, capsys):
        # The module-scoped worker run above populated the cache.
        main(["worker", "--once", "--state-dir", state_dir])
        capsys.readouterr()
        assert main(["cache", "--state-dir", state_dir]) == 0
        entries = int(
            capsys.readouterr().out.split("entries: ")[1].strip()
        )
        assert entries > 3
        assert main(["cache", "--max-entries", "3", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert f"evicted {entries - 3}" in out
        assert "entries: 3" in out


class TestClaimGuards:
    def test_inline_submit_skips_jobs_claimed_elsewhere(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        job_id = ProtectionJob(dataset="adult", generations=1, seed=61).job_id
        main(["submit", "--dataset", "adult", "--generations", "1",
              "--seed", "61", "--detach", "--state-dir", state])
        store = SqliteJobStore(Path(state) / "jobs.sqlite")
        store.claim(job_id, owner="another-worker")
        capsys.readouterr()
        code = main(["submit", "--dataset", "adult", "--generations", "1",
                     "--seed", "61", "--checkpoint-every", "0",
                     "--state-dir", state])
        assert code == 0
        assert "claimed by another worker, skipping" in capsys.readouterr().out
        assert store.get(job_id).status == "queued"

    def test_resume_force_takes_over_stale_claim(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        # Run one checkpointed job to completion so a real checkpoint exists.
        main(["submit", "--dataset", "adult", "--generations", "2",
              "--seed", "63", "--checkpoint-every", "1", "--state-dir", state])
        store = SqliteJobStore(Path(state) / "jobs.sqlite")
        job_id = ProtectionJob(dataset="adult", generations=2, seed=63).job_id
        # Simulate a crashed worker: running record + leftover claim.
        record = store.get(job_id)
        record.status = "running"
        record.result = None
        store.save(record)
        store.claim(job_id, owner="crashed-worker")
        capsys.readouterr()
        assert main(["resume", "--job", job_id, "--state-dir", state]) == 2
        assert "--force" in capsys.readouterr().err
        assert main(["resume", "--job", job_id, "--force",
                     "--state-dir", state]) == 0
        assert store.get(job_id).status == "completed"
        assert store.claimed_job_ids() == []

    def test_resume_refuses_claimed_job(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        store = SqliteJobStore(Path(state) / "jobs.sqlite")
        record = store.submit(ProtectionJob(dataset="adult", generations=1, seed=62))
        store.mark_running(record)
        store.claim(record.job_id, owner="another-worker")
        # The claim guard fires before the checkpoint is ever read, so a
        # placeholder file is enough to get past the existence check.
        (store.checkpoints_dir / f"{record.job_id}.json").write_text("{}")
        code = main(["resume", "--job", record.job_id, "--state-dir", state])
        assert code == 2
        assert "claimed by another worker" in capsys.readouterr().err


class TestWorkerFailures:
    def test_failed_job_sets_exit_code(self, tmp_path, capsys):
        state = str(tmp_path / "state")
        store = SqliteJobStore(Path(state) / "jobs.sqlite")
        store.submit(ProtectionJob(dataset="bogus", generations=1))
        code = main(["worker", "--once", "--state-dir", state])
        captured = capsys.readouterr()
        assert code == 1
        assert "failed" in captured.err
