"""Job store lifecycle on the local sqlite store: records, transitions,
idempotent submission."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.service import JobRecord, JobResult, ProtectionJob, SqliteJobStore


def _job(seed: int = 1) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=5, seed=seed)


def _result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=job.generations,
        best_score=1.0,
        best_information_loss=1.0,
        best_disclosure_risk=1.0,
        final_scores=(1.0, 2.0),
        mean_improvement_percent=5.0,
        fresh_evaluations=10,
        memo_hits=1,
        persistent_hits=0,
        wall_seconds=0.1,
    )


class TestJobStore:
    def test_layout_created(self, tmp_path):
        store = SqliteJobStore(tmp_path / "state" / "jobs.sqlite")
        assert store.path.is_file()
        assert store.checkpoints_dir.is_dir()
        assert store.cache_path.parent.is_dir()

    def test_submit_and_get(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        assert record.status == "queued"
        loaded = store.get(record.job_id)
        assert loaded.job == record.job
        assert loaded.submitted_at == pytest.approx(record.submitted_at)

    def test_lifecycle_transitions(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        store.mark_running(record)
        assert store.get(record.job_id).status == "running"
        store.mark_completed(record, _result(record.job))
        loaded = store.get(record.job_id)
        assert loaded.status == "completed"
        assert loaded.result is not None
        assert loaded.result.final_scores == (1.0, 2.0)

    def test_failed_records_error(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        store.mark_failed(record, "worker exploded")
        assert store.get(record.job_id).error == "worker exploded"

    def test_resubmit_completed_is_idempotent(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        store.mark_completed(record, _result(record.job))
        again = store.submit(_job())
        assert again.status == "completed"
        assert again.result is not None

    def test_resubmit_running_returns_existing(self, tmp_path):
        # Regression: resubmitting a running job used to reset it to
        # queued, clobbering started_at and orphaning the live worker.
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        store.mark_running(record)
        started_at = store.get(record.job_id).started_at
        again = store.submit(_job())
        assert again.status == "running"
        assert again.started_at == pytest.approx(started_at)
        assert store.get(record.job_id).status == "running"

    def test_resubmit_queued_returns_existing(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        again = store.submit(_job())
        assert again.status == "queued"
        assert again.submitted_at == pytest.approx(record.submitted_at)

    def test_resubmit_failed_requeues(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job())
        store.mark_failed(record, "boom")
        again = store.submit(_job())
        assert again.status == "queued" and again.error == ""

    def test_records_sorted_by_submission(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        first = store.submit(_job(1))
        second = store.submit(_job(2))
        # Force distinct, ordered timestamps regardless of clock resolution.
        first.submitted_at, second.submitted_at = 100.0, 200.0
        store.save(first)
        store.save(second)
        assert [r.job_id for r in store.records()] == [first.job_id, second.job_id]

    def test_get_unknown_raises(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        with pytest.raises(ServiceError, match="unknown job"):
            store.get("nope")
        assert store.get("nope", missing_ok=True) is None

    def test_bad_status_rejected(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        record = JobRecord(job=_job(), status="exploded")
        with pytest.raises(ServiceError):
            store.save(record)

    def test_record_dict_roundtrip(self, tmp_path):
        record = JobRecord(job=_job(), status="queued", submitted_at=1.0,
                           extras={"checkpoint_every": 5})
        back = JobRecord.from_dict(record.to_dict())
        assert back.job == record.job
        assert back.extras == {"checkpoint_every": 5}
