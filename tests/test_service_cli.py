"""End-to-end CLI tests for the service subcommands (tiny budgets)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main
from repro.service import ProtectionJob, SqliteJobStore


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("repro-state"))


@pytest.fixture(scope="module")
def submitted(state_dir):
    code = main([
        "submit",
        "--dataset", "adult",
        "--generations", "3",
        "--seed", "21",
        "--checkpoint-every", "2",
        "--state-dir", state_dir,
    ])
    assert code == 0
    return ProtectionJob(dataset="adult", generations=3, seed=21).job_id


class TestSubmit:
    def test_job_completed(self, state_dir, submitted):
        record = SqliteJobStore(Path(state_dir) / "jobs.sqlite").get(submitted)
        assert record.status == "completed"
        assert record.result is not None
        assert record.result.generations == 3

    def test_checkpoint_written(self, state_dir, submitted):
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        assert (store.checkpoints_dir / f"{submitted}.json").exists()

    def test_cache_populated(self, state_dir, submitted):
        assert SqliteJobStore(Path(state_dir) / "jobs.sqlite").cache_path.exists()

    def test_resubmit_skips_completed(self, state_dir, submitted, capsys):
        code = main([
            "submit",
            "--dataset", "adult",
            "--generations", "3",
            "--seed", "21",
            "--state-dir", state_dir,
        ])
        assert code == 0
        assert "already completed" in capsys.readouterr().out

    def test_multi_seed_submission_runs_replicates(self, state_dir, capsys):
        code = main([
            "submit",
            "--dataset", "adult",
            "--generations", "2",
            "--seeds", "31,32",
            "--checkpoint-every", "0",
            "--state-dir", state_dir,
        ])
        assert code == 0
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        for seed in (31, 32):
            job_id = ProtectionJob(dataset="adult", generations=2, seed=seed).job_id
            assert store.get(job_id).status == "completed"

    def test_bad_seeds_rejected(self, state_dir, capsys):
        code = main([
            "submit", "--dataset", "adult", "--seeds", "1,x", "--state-dir", state_dir,
        ])
        assert code == 2
        assert "bad --seeds" in capsys.readouterr().err


class TestStatus:
    def test_table_lists_jobs(self, state_dir, submitted, capsys):
        assert main(["status", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert submitted in out
        assert "completed" in out

    def test_single_job_detail(self, state_dir, submitted, capsys):
        assert main(["status", "--job", submitted, "--state-dir", state_dir]) == 0
        assert submitted in capsys.readouterr().out

    def test_unknown_job_errors(self, state_dir, capsys):
        assert main(["status", "--job", "nope", "--state-dir", state_dir]) == 2
        assert "unknown job" in capsys.readouterr().err

    def test_empty_store(self, tmp_path, capsys):
        assert main(["status", "--state-dir", str(tmp_path / "empty")]) == 0
        assert "no jobs" in capsys.readouterr().out


class TestResume:
    def test_completed_job_requires_force(self, state_dir, submitted, capsys):
        assert main(["resume", "--job", submitted, "--state-dir", state_dir]) == 0
        assert "already completed" in capsys.readouterr().out

    def test_interrupted_job_resumes(self, state_dir, submitted, capsys):
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        record = store.get(submitted)
        completed_scores = record.result.final_scores
        # Simulate a crash after the last checkpoint: running, no result.
        record.status = "running"
        record.result = None
        store.save(record)

        assert main(["resume", "--job", submitted, "--state-dir", state_dir]) == 0
        repaired = store.get(submitted)
        assert repaired.status == "completed"
        assert repaired.result.final_scores == completed_scores

    def test_resume_without_checkpoint_errors(self, state_dir, capsys):
        store = SqliteJobStore(Path(state_dir) / "jobs.sqlite")
        job = ProtectionJob(dataset="adult", generations=2, seed=31)
        record = store.get(job.job_id)
        record.status = "running"
        store.save(record)
        assert main(["resume", "--job", job.job_id, "--state-dir", state_dir]) == 2
        assert "no checkpoint" in capsys.readouterr().err


class TestCache:
    def test_info_and_clear(self, state_dir, submitted, capsys):
        assert main(["cache", "--state-dir", state_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:" in out
        assert main(["cache", "--clear", "--state-dir", state_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "--state-dir", state_dir]) == 0
        assert "entries: 0" in capsys.readouterr().out
