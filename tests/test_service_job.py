"""Unit tests for the service job model (fingerprints, round-trips)."""

from __future__ import annotations

import pytest

from repro.exceptions import ServiceError
from repro.experiments.runner import ExperimentConfig
from repro.service import JobRecord, JobResult, ProtectionJob


class TestProtectionJob:
    def test_fingerprint_is_stable(self):
        a = ProtectionJob(dataset="adult", generations=50, seed=7)
        b = ProtectionJob(dataset="adult", generations=50, seed=7)
        assert a.fingerprint() == b.fingerprint()
        assert a.job_id == b.job_id

    def test_fingerprint_changes_with_any_field(self):
        base = ProtectionJob(dataset="adult", generations=50, seed=7)
        assert base.fingerprint() != base.with_seed(8).fingerprint()
        other = ProtectionJob(dataset="adult", generations=51, seed=7)
        assert base.fingerprint() != other.fingerprint()

    def test_job_id_names_dataset_and_seed(self):
        job = ProtectionJob(dataset="flare", seed=3)
        assert job.job_id.startswith("flare-s3-")

    def test_dict_roundtrip(self):
        job = ProtectionJob(dataset="german", score="mean", generations=10, seed=2)
        assert ProtectionJob.from_dict(job.to_dict()) == job

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ServiceError):
            ProtectionJob.from_dict({"dataset": "adult", "bogus": 1})

    def test_config_roundtrip(self):
        config = ExperimentConfig(dataset="adult", score="max", generations=5, seed=9)
        job = ProtectionJob.from_config(config)
        assert job.to_config() == config

    def test_with_seed_preserves_everything_else(self):
        job = ProtectionJob(dataset="adult", score="mean", generations=77, seed=1)
        replica = job.with_seed(2)
        assert replica.seed == 2
        assert replica.dataset == job.dataset
        assert replica.score == job.score
        assert replica.generations == job.generations


class TestJobResult:
    def _result(self) -> JobResult:
        return JobResult(
            job_id="adult-s1-abc",
            dataset="adult",
            seed=1,
            generations=10,
            best_score=1.25,
            best_information_loss=1.0,
            best_disclosure_risk=1.5,
            final_scores=(1.25, 2.5, 3.75),
            mean_improvement_percent=12.5,
            fresh_evaluations=90,
            memo_hits=4,
            persistent_hits=2,
            wall_seconds=1.5,
        )

    def test_dict_roundtrip_preserves_scores_exactly(self):
        result = self._result()
        back = JobResult.from_dict(result.to_dict())
        assert back == result
        assert back.final_scores == (1.25, 2.5, 3.75)

    def test_json_roundtrip_preserves_floats(self):
        import json

        result = self._result()
        back = JobResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.final_scores == result.final_scores
        assert back.best_score == result.best_score

    def test_old_record_naming_a_checkpoint_file_still_loads(self):
        # Records written before checkpoints lived only in the store
        # carry the path of a file on the machine that ran the job.
        result = self._result()
        old = dict(result.to_dict(),
                   checkpoint_path="/home/w/.repro/checkpoints/adult-s1-abc.json")
        back = JobResult.from_dict(old)
        assert back == result
        assert "checkpoint_path" not in back.to_dict()
        record = JobRecord.from_dict({"job": ProtectionJob(dataset="adult").to_dict(),
                                      "status": "completed", "result": old})
        assert record.result == result
