"""Checkpoints live in the job store, and only there.

Every save goes straight into the store under the saver's claim, so on
every backend of the store contract (the ``store_harness`` params) a
job's latest save is readable the moment the run returns — with no
heartbeat after the first and no release to carry it — and a save from a
worker whose claim has moved on is refused, counted, and survived.

The one file a checkpoint is still read from is the legacy
``checkpoints/<job_id>.json`` of a sqlite state directory written before
the store held every save: such a directory resumes through ``repro
worker --once`` and ``repro resume`` bit for bit.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.core import EngineCheckpoint
from repro.experiments.runner import run_experiment
from repro.service import ProtectionJob, SqliteJobStore, Worker, checkpoint_to_dict

JOB = ProtectionJob(dataset="adult", generations=4, seed=3)
EVERY = 2


def _claimed(store, owner: str):
    record = store.submit(JOB, extras={"checkpoint_every": EVERY})
    assert store.claim(record.job_id, owner=owner)
    store.mark_running(record)
    return record


def _run_as(store, owner: str, record):
    runner = Worker(store, worker_id=owner, use_cache=False).runner
    (outcome,) = runner.run_settled([record.job], extras=[record.extras])
    assert outcome.ok, outcome.error
    return outcome.result


class TestSavesAreDurableOnReturn:
    def test_last_save_is_in_the_store_when_the_run_returns(self, store_harness):
        store = store_harness.store
        record = _claimed(store, "w1")
        assert store.heartbeat(record.job_id, owner="w1")  # the first and only beat
        result = _run_as(store, "w1", record)
        assert result.generations == JOB.generations
        backing = store_harness.backing
        payload = backing.get_checkpoint(record.job_id)
        assert payload is not None
        assert payload["generation"] == JOB.generations
        # Never released: the save did not wait for a release to land.
        assert store.claim_info(record.job_id)["owner"] == "w1"

    def test_save_after_the_claim_moved_is_dropped_and_counted(self, store_harness):
        store = store_harness.store
        record = _claimed(store, "w1")
        store.release(record.job_id)  # stale recovery ...
        assert store.claim(record.job_id, owner="w2")  # ... and a new owner
        store.put_checkpoint(record.job_id, {"saved_by": "w2"}, owner="w2")
        registry = obs.enable()
        registry.reset()
        try:
            result = _run_as(store, "w1", record)
            dropped = [c["value"] for c in registry.snapshot()["counters"]
                       if c["name"] == "repro_events_total"
                       and c["labels"] == {"event": "checkpoint_dropped"}]
        finally:
            obs.disable()
            registry.reset()
        assert result.generations == JOB.generations  # the run carried on
        backing = store_harness.backing
        assert backing.get_checkpoint(record.job_id) == {"saved_by": "w2"}
        assert dropped == [JOB.generations // EVERY]


@pytest.fixture(scope="module")
def legacy_run():
    """An uninterrupted run, and its generation-2 save as a pre-upgrade
    runner wrote it to ``checkpoints/<job_id>.json``."""
    job = ProtectionJob(dataset="adult", generations=4, seed=17)
    midway: list[EngineCheckpoint] = []
    straight = run_experiment(job.to_config(), checkpoint_every=2,
                              on_checkpoint=midway.append)
    assert midway[0].generation == 2
    # Stamped as this kernel stamps checkpoints; the same file stamped
    # by kernel 2 (the bare job hash) is refused, not resumed.
    return job, checkpoint_to_dict(midway[0], job.checkpoint_fingerprint()), straight


def _legacy_state_dir(tmp_path, job, payload) -> SqliteJobStore:
    store = SqliteJobStore(tmp_path / "jobs.sqlite")
    store.submit(job, extras={"checkpoint_every": 2})
    legacy = store.checkpoint_path(job.job_id)
    legacy.parent.mkdir()
    legacy.write_text(json.dumps(payload), encoding="utf-8")
    return store


def _assert_resumed_bit_identically(store, job, straight) -> None:
    result = store.get(job.job_id).result
    assert result.final_scores == tuple(
        float(ind.score) for ind in straight.result.population)
    assert result.best_score == float(straight.result.best.score)
    assert result.best_information_loss == float(straight.result.best.information_loss)
    assert result.best_disclosure_risk == float(straight.result.best.disclosure_risk)
    # Resumed from the file, not restarted: the initial population was
    # never rescored.
    assert result.fresh_evaluations < straight.evaluator.evaluations
    # The resumed run's own saves went to the table.
    assert store.get_checkpoint(job.job_id)["generation"] == job.generations


class TestLegacyCheckpointFile:
    def test_worker_once_resumes_a_legacy_file(self, tmp_path, legacy_run, capsys):
        job, payload, straight = legacy_run
        store = _legacy_state_dir(tmp_path, job, payload)
        assert main(["worker", "--once", "--state-dir", str(tmp_path)]) == 0
        _assert_resumed_bit_identically(store, job, straight)

    def test_repro_resume_resumes_a_legacy_file(self, tmp_path, legacy_run, capsys):
        job, payload, straight = legacy_run
        store = _legacy_state_dir(tmp_path, job, payload)
        store.mark_running(store.get(job.job_id))  # the killed run's record
        assert main(["resume", "--job", job.job_id,
                     "--state-dir", str(tmp_path)]) == 0
        assert store.get(job.job_id).status == "completed"
        _assert_resumed_bit_identically(store, job, straight)
