"""The job-store contract, as one executable battery.

Every test in this module runs once per backend via the
``store_harness`` fixture: against the transactional
:class:`SqliteJobStore`, against a :class:`RemoteJobStore` talking to a
live in-process :class:`JobStoreServer` over real HTTP fronting one
(both ends built directly, and both opened through ``store_from_spec``
as the CLI opens them), and against two sharded layouts (2x sqlite, and sqlite + an HTTP
child).  The suite *is* the claim protocol's contract — submit
idempotency, claim exclusivity, batch claims, owner-checked release,
heartbeat refresh, stale recovery, checkpoint blobs, and identical
exception types — so a change that breaks any implementation fails
here before it reaches a fleet.
"""

from __future__ import annotations

import time

import pytest

from repro.exceptions import ServiceError, WorkerError
from repro.service import JobRecord, JobResult, ProtectionJob
from repro.service.store import STORE_PROTOCOL


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


class TestProtocolSurface:
    def test_store_exposes_every_contract_method(self, store_harness):
        for name in STORE_PROTOCOL:
            assert callable(getattr(store_harness.store, name)), name

    def test_store_exposes_worker_locations(self, store_harness):
        # Workers build runners from these; both stores must provide them.
        store = store_harness.store
        assert store.checkpoints_dir.is_dir()
        assert store.cache_path.parent.is_dir()


class TestSubmitIdempotency:
    def test_submit_queues_and_roundtrips(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        assert record.status == "queued"
        loaded = store.get(record.job_id)
        assert loaded.job == record.job
        assert loaded.submitted_at == pytest.approx(record.submitted_at)

    def test_resubmit_queued_returns_existing(self, store_harness):
        store = store_harness.store
        first = store.submit(_job())
        again = store.submit(_job())
        assert again.status == "queued"
        assert again.submitted_at == pytest.approx(first.submitted_at)

    def test_resubmit_running_never_resets(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        again = store.submit(_job())
        assert again.status == "running"
        assert again.started_at is not None

    def test_resubmit_completed_keeps_result(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_completed(record, _result(record.job))
        again = store.submit(_job())
        assert again.status == "completed"
        assert again.result is not None
        assert again.result.final_scores == (1.0, 2.0)

    def test_submit_extras_land_in_the_initial_write(self, store_harness):
        # The cadence must be claimable-with the record from instant
        # one; a second save would race the first worker to claim it.
        store = store_harness.store
        record = store.submit(_job(), extras={"checkpoint_every": 9})
        assert record.extras == {"checkpoint_every": 9}
        assert store.get(record.job_id).extras == {"checkpoint_every": 9}
        # Resubmission keeps the original extras.
        again = store.submit(_job(), extras={"checkpoint_every": 1})
        assert again.extras == {"checkpoint_every": 9}

    def test_resubmit_failed_requeues_and_drops_leftover_claim(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.claim(record.job_id, owner="crashed-worker")
        store.mark_failed(record, "boom")
        again = store.submit(_job())
        assert again.status == "queued" and again.error == ""
        assert store.claimed_job_ids() == []
        assert store.claim(record.job_id, owner="next-worker") is True


class TestRecordOps:
    def test_get_unknown_raises_service_error(self, store_harness):
        store = store_harness.store
        with pytest.raises(ServiceError, match="unknown job"):
            store.get("nope")
        assert store.get("nope", missing_ok=True) is None

    def test_records_sorted_by_submission(self, store_harness):
        store = store_harness.store
        first = store.submit(_job(1))
        second = store.submit(_job(2))
        first.submitted_at, second.submitted_at = 200.0, 100.0
        store.save(first)
        store.save(second)
        assert [r.job_id for r in store.records()] == [second.job_id, first.job_id]

    def test_queued_filters_other_statuses(self, store_harness):
        store = store_harness.store
        queued = store.submit(_job(1))
        done = store.submit(_job(2))
        store.mark_completed(done, _result(done.job))
        assert [r.job_id for r in store.queued()] == [queued.job_id]

    def test_save_rejects_unknown_status(self, store_harness):
        record = JobRecord(job=_job(), status="exploded")
        with pytest.raises(ServiceError):
            store_harness.store.save(record)

    def test_update_roundtrips_extras(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        record.extras["checkpoint_every"] = 7
        store.save(record)
        assert store.get(record.job_id).extras == {"checkpoint_every": 7}


class TestTransitions:
    def test_mark_running_updates_caller_and_store(self, store_harness):
        # The local store mutates the caller's record in place; the
        # remote store must mirror the server's view back identically,
        # or a later save would clobber server-set timestamps.
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        assert record.status == "running" and record.started_at is not None
        loaded = store.get(record.job_id)
        assert loaded.status == "running"
        assert loaded.started_at == pytest.approx(record.started_at)

    def test_mark_completed_roundtrips_result(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        store.mark_completed(record, _result(record.job))
        loaded = store.get(record.job_id)
        assert loaded.status == "completed"
        assert loaded.result.final_scores == (1.0, 2.0)
        assert record.result is not None

    def test_mark_failed_records_error(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_failed(record, "worker exploded")
        assert store.get(record.job_id).error == "worker exploded"
        assert record.status == "failed"

    def test_stale_failure_never_clobbers_completed_result(self, store_harness):
        # A worker whose claim was stale-recovered may report failure
        # after the takeover worker completed the job; the finished
        # result wins, and the stale caller learns the truth.
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        stale_view = store.get(record.job_id)
        store.mark_completed(record, _result(record.job))
        store.mark_failed(stale_view, "stale worker reporting in")
        loaded = store.get(record.job_id)
        assert loaded.status == "completed"
        assert loaded.result is not None and loaded.error == ""
        assert stale_view.status == "completed"

    def test_requeue_clears_attempt_state(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        store.claim(record.job_id, owner="w")
        requeued = store.requeue(record)
        assert requeued.status == "queued"
        assert requeued.started_at is None and requeued.error == ""
        assert store.claimed_job_ids() == []

    def test_requeue_completed_refused_with_worker_error(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_completed(record, _result(record.job))
        with pytest.raises(WorkerError, match="refusing to requeue"):
            store.requeue(record)

    def test_requeue_checks_current_status_not_snapshot(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_running(record)
        stale_view = store.get(record.job_id)
        store.mark_completed(record, _result(record.job))
        with pytest.raises(WorkerError, match="refusing to requeue"):
            store.requeue(stale_view)
        assert store.get(record.job_id).status == "completed"


class TestClaimExclusivity:
    def test_claim_has_exactly_one_winner(self, store_harness):
        store = store_harness.store
        assert store.claim("j1", owner="a") is True
        assert store.claim("j1", owner="b") is False
        store.release("j1")
        assert store.claim("j1", owner="b") is True

    def test_claim_info_records_owner_and_liveness(self, store_harness):
        store = store_harness.store
        store.claim("j1", owner="worker-7")
        info = store.claim_info("j1")
        assert info["owner"] == "worker-7"
        assert info["claimed_at"] > 0
        assert info["last_seen"] >= info["claimed_at"]
        assert store.claim_info("unclaimed") is None

    def test_claimed_job_ids_sorted(self, store_harness):
        store = store_harness.store
        store.claim("b")
        store.claim("a")
        assert store.claimed_job_ids() == ["a", "b"]

    def test_reclaim_by_same_owner_is_idempotent(self, store_harness):
        # A retried network claim whose first response was lost must not
        # orphan the claim: asking again with the same identity says
        # "yes, you still own it".
        store = store_harness.store
        assert store.claim("j1", owner="worker-a") is True
        assert store.claim("j1", owner="worker-a") is True
        assert store.claim("j1", owner="worker-b") is False
        assert store.claim_info("j1")["owner"] == "worker-a"

    def test_anonymous_claims_stay_strictly_exclusive(self, store_harness):
        store = store_harness.store
        assert store.claim("j1") is True
        assert store.claim("j1") is False

    def test_claims_bulk_view_matches_claim_info(self, store_harness):
        store = store_harness.store
        store.claim("a", owner="w1")
        store.claim("b", owner="w2")
        bulk = store.claims()
        assert sorted(bulk) == ["a", "b"]
        for job_id, info in bulk.items():
            assert info["owner"] == store.claim_info(job_id)["owner"]
        store.release("a")
        assert sorted(store.claims()) == ["b"]


class TestOwnerCheckedRelease:
    def test_wrong_owner_cannot_release(self, store_harness):
        store = store_harness.store
        store.claim("j1", owner="worker-a")
        assert store.release("j1", owner="worker-b") is False
        assert store.claimed_job_ids() == ["j1"]
        assert store.release("j1", owner="worker-a") is True
        assert store.claimed_job_ids() == []

    def test_release_is_idempotent(self, store_harness):
        store = store_harness.store
        assert store.release("never-claimed") is False
        store.claim("j1", owner="a")
        assert store.release("j1") is True
        assert store.release("j1") is False

    def test_unowned_release_is_unconditional(self, store_harness):
        store = store_harness.store
        store.claim("j1", owner="worker-a")
        assert store.release("j1") is True

    def test_torn_claim_is_left_alone_by_owner_gates(self, store_harness):
        # A claim caught mid-rewrite (its true holder's heartbeat is
        # between truncate and write) has an unreadable owner; guessing
        # would let a stale worker unlink a live claim, so both
        # owner-gated operations refuse.  Unconditional release — the
        # recovery path — still works.
        store_harness.tear_claim("j1")
        store = store_harness.store
        assert store.release("j1", owner="anyone") is False
        assert store.heartbeat("j1", owner="anyone") is False
        assert "j1" in store.claimed_job_ids()
        assert store.release("j1") is True


class TestHeartbeat:
    def test_heartbeat_refreshes_last_seen(self, store_harness):
        store = store_harness.store
        store.claim("j1", owner="w")
        store_harness.age_claim("j1", seconds=500)
        aged = store.claim_info("j1")["last_seen"]
        assert store.heartbeat("j1", owner="w") is True
        refreshed = store.claim_info("j1")
        assert refreshed["last_seen"] > aged
        assert refreshed["last_seen"] == pytest.approx(time.time(), abs=5.0)
        # The original claim metadata survives the refresh.
        assert refreshed["owner"] == "w"
        assert refreshed["claimed_at"] == pytest.approx(time.time() - 500, abs=5.0)

    def test_heartbeat_is_owner_checked(self, store_harness):
        store = store_harness.store
        store.claim("j1", owner="worker-a")
        store_harness.age_claim("j1", seconds=500)
        before = store.claim_info("j1")["last_seen"]
        assert store.heartbeat("j1", owner="worker-b") is False
        assert store.claim_info("j1")["last_seen"] == pytest.approx(before)

    def test_heartbeat_without_claim_reports_loss(self, store_harness):
        assert store_harness.store.heartbeat("never-claimed", owner="w") is False


class TestClaimBatch:
    def test_claim_batch_wins_only_queued_unclaimed(self, store_harness):
        store = store_harness.store
        queued = store.submit(_job(1))
        done = store.submit(_job(2))
        store.mark_completed(done, _result(done.job))
        taken = store.submit(_job(3))
        store.claim(taken.job_id, owner="someone-else")
        won = store.claim_batch(owner="me")
        assert [r.job_id for r in won] == [queued.job_id]
        assert won[0].status == "queued"
        assert store_harness.backing.claim_info(queued.job_id)["owner"] == "me"

    def test_claim_batch_respects_limit_oldest_first(self, store_harness):
        store = store_harness.store
        records = [store.submit(_job(seed)) for seed in (1, 2, 3)]
        by_age = sorted(records, key=lambda r: (r.submitted_at, r.job_id))
        won = store.claim_batch(owner="w", limit=2)
        assert [r.job_id for r in won] == [r.job_id for r in by_age[:2]]
        assert sorted(store.claimed_job_ids()) == sorted(r.job_id for r in won)

    def test_claim_batch_on_empty_queue_returns_nothing(self, store_harness):
        assert store_harness.store.claim_batch(owner="w") == []

    def test_claim_batch_never_rewins_its_own_claims(self, store_harness):
        # claim() is idempotent per owner, but a batch pull must return
        # only *new* wins — otherwise a polling worker is handed its own
        # running jobs back on every pull, forever.
        store = store_harness.store
        record = store.submit(_job(1))
        assert [r.job_id for r in store.claim_batch(owner="w")] == [record.job_id]
        assert store.claim_batch(owner="w") == []

    def test_two_batches_partition_the_queue(self, store_harness):
        store = store_harness.store
        records = [store.submit(_job(seed)) for seed in (1, 2, 3, 4)]
        first = store.claim_batch(owner="w1", limit=3)
        second = store.claim_batch(owner="w2")
        won_ids = [r.job_id for r in first + second]
        assert sorted(won_ids) == sorted(r.job_id for r in records)
        assert len(set(won_ids)) == len(records)


class TestCheckpointBlobs:
    def test_missing_checkpoint_is_none(self, store_harness):
        assert store_harness.store.get_checkpoint("nowhere") is None

    def test_put_get_roundtrip(self, store_harness):
        store = store_harness.store
        payload = {"version": 3, "generation": 17, "rng": [1, 2, 3]}
        store.put_checkpoint("job-a", payload)
        assert store.get_checkpoint("job-a") == payload
        # And the backing store agrees: the blob is durable, not
        # client-local.
        assert store_harness.backing.get_checkpoint("job-a") == payload

    def test_owner_gated_put_requires_the_claim(self, store_harness):
        store = store_harness.store
        store.claim("job-b", owner="holder")
        with pytest.raises(WorkerError, match="rejected"):
            store.put_checkpoint("job-b", {"generation": 1}, owner="usurper")
        store.put_checkpoint("job-b", {"generation": 2}, owner="holder")
        assert store.get_checkpoint("job-b") == {"generation": 2}

    def test_owner_gated_put_without_any_claim_refused(self, store_harness):
        with pytest.raises(WorkerError, match="rejected"):
            store_harness.store.put_checkpoint("job-c", {"generation": 1},
                                               owner="anyone")


class TestStaleRecovery:
    def test_silent_claim_on_unfinished_job_requeued(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.claim(record.job_id, owner="crashed-worker")
        store.mark_running(record)
        store_harness.age_claim(record.job_id, seconds=7200)
        assert store.recover_stale_claims(max_age_seconds=3600) == [record.job_id]
        assert store.get(record.job_id).status == "queued"
        assert store.claimed_job_ids() == []

    def test_heartbeat_prevents_recovery(self, store_harness):
        # The satellite invariant: a long job whose worker keeps beating
        # is never stolen, however old its claim is.
        store = store_harness.store
        record = store.submit(_job())
        store.claim(record.job_id, owner="long-runner")
        store.mark_running(record)
        store_harness.age_claim(record.job_id, seconds=7200)
        assert store.heartbeat(record.job_id, owner="long-runner") is True
        assert store.recover_stale_claims(max_age_seconds=3600) == []
        assert store.get(record.job_id).status == "running"
        assert store.claimed_job_ids() == [record.job_id]

    def test_fresh_claim_left_alone(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.claim(record.job_id, owner="w")
        store.mark_running(record)
        assert store.recover_stale_claims(max_age_seconds=3600) == []
        assert store.claimed_job_ids() == [record.job_id]

    def test_claim_for_finished_job_dropped_without_requeue(self, store_harness):
        store = store_harness.store
        record = store.submit(_job())
        store.mark_failed(record, "boom")
        store.claim(record.job_id, owner="w")
        assert store.recover_stale_claims(max_age_seconds=3600) == [record.job_id]
        assert store.get(record.job_id).status == "failed"

    def test_running_record_with_no_claim_requeued(self, store_harness):
        # A worker that died between releasing its claim and marking the
        # record (or whose final mark failed) leaves `running` with no
        # claim — invisible to the claim scan, in no queue.  Recovery
        # must requeue it; finished and claimed records stay untouched.
        store = store_harness.store
        stranded = store.submit(_job(1))
        store.mark_running(stranded)
        healthy = store.submit(_job(2))
        store.claim(healthy.job_id, owner="live-worker")
        store.mark_running(healthy)
        done = store.submit(_job(3))
        store.mark_completed(done, _result(done.job))

        assert store.recover_stale_claims(max_age_seconds=3600) == [stranded.job_id]
        assert store.get(stranded.job_id).status == "queued"
        assert store.get(healthy.job_id).status == "running"
        assert store.get(done.job_id).status == "completed"
