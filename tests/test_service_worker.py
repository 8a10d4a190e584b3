"""Worker lifecycle: draining, failure marking, requeue, stale recovery."""

from __future__ import annotations

import time

import pytest

from repro.exceptions import WorkerError
from repro.service import ClaimHeartbeat, JobRunner, ProtectionJob, SqliteJobStore, Worker


def _job(seed: int = 1, generations: int = 1) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=generations, seed=seed)


@pytest.fixture
def store(tmp_path):
    return SqliteJobStore(tmp_path / "jobs.sqlite")


class TestRunOnce:
    def test_drains_queue_and_completes(self, store):
        first = store.submit(_job(1))
        second = store.submit(_job(2))
        outcomes = Worker(store).run_once()
        assert sorted(out.job_id for out in outcomes) == sorted(
            [first.job_id, second.job_id]
        )
        assert all(out.ok for out in outcomes)
        for record in (first, second):
            loaded = store.get(record.job_id)
            assert loaded.status == "completed"
            assert loaded.result is not None
        assert store.claimed_job_ids() == []

    def test_empty_queue_returns_nothing(self, store):
        assert Worker(store).run_once() == []

    def test_failure_marks_failed_and_releases(self, store):
        record = store.submit(ProtectionJob(dataset="no-such-dataset", generations=1))
        (outcome,) = Worker(store).run_once()
        assert not outcome.ok
        loaded = store.get(record.job_id)
        assert loaded.status == "failed"
        assert loaded.error
        assert store.claimed_job_ids() == []

    def test_honours_submit_time_checkpoint_cadence(self, store):
        record = store.submit(_job(3, generations=2))
        record.extras["checkpoint_every"] = 1
        store.save(record)
        (outcome,) = Worker(store).run_once()
        assert outcome.ok
        assert store.get_checkpoint(record.job_id)["generation"] == 2
        assert not (store.root / "checkpoints").exists()

    @pytest.mark.parametrize("every", [-1, None, "x"])
    def test_bad_stored_cadence_fails_alone(self, store, every):
        # Regression: a record whose stored cadence is negative, null or
        # not an integer raised out of every drain and stayed queued, so
        # the valid job behind it never ran.
        bad = store.submit(_job(1), extras={"checkpoint_every": every})
        good = store.submit(_job(2))
        outcomes = {out.job_id: out for out in Worker(store).run_once()}
        assert (f"checkpoint_every must be >= 0, got {every!r}"
                in outcomes[bad.job_id].error)
        assert outcomes[good.job_id].ok
        loaded = store.get(bad.job_id)
        assert loaded.status == "failed"
        assert "checkpoint_every must be >= 0" in loaded.error
        assert store.get(good.job_id).status == "completed"
        assert store.claimed_job_ids() == []

    def test_one_runner_and_backend_for_the_worker_lifetime(self, store, monkeypatch):
        from repro.service import backends, runner

        built, maps = [], []
        create = backends.create_backend

        def counting_create(*args, **kwargs):
            backend = create(*args, **kwargs)
            built.append(backend)
            mapper = backend.map
            backend.map = lambda fn, items: (maps.append(len(items)),
                                             mapper(fn, items))[1]
            return backend

        monkeypatch.setattr(runner, "create_backend", counting_create)
        worker = Worker(store, capacity=2)
        jobs = [store.submit(_job(seed), extras={"checkpoint_every": seed % 2})
                for seed in range(1, 5)]
        drained = worker.run_once()
        store.submit(_job(5), extras={"checkpoint_every": 1})
        drained += worker.run_once()
        assert len(drained) == 5 and all(out.ok for out in drained)
        assert store.get_checkpoint(jobs[0].job_id)["generation"] == 1
        assert store.get_checkpoint(jobs[1].job_id) is None
        assert len(built) == 1
        # Each claimed batch (2 + 2 + 1 jobs) reaches the backend once.
        assert maps == [2, 2, 1]

    def test_skips_jobs_claimed_elsewhere(self, store):
        record = store.submit(_job(1))
        store.claim(record.job_id, owner="someone-else")
        assert Worker(store).run_once() == []
        assert store.get(record.job_id).status == "queued"

    def test_process_skips_record_that_left_queue(self, store):
        record = store.submit(_job(1))
        stale_view = store.get(record.job_id)
        store.mark_running(record)
        assert Worker(store).process(stale_view) is None
        assert store.get(record.job_id).status == "running"
        assert store.claimed_job_ids() == []


class TestUnshippableStore:
    def test_the_process_backend_refuses_it_before_any_claim(self, store):
        class Proxy:
            """A store built in code: a local class, so it cannot be pickled."""

            def __getattr__(self, name):
                return getattr(store, name)

        record = store.submit(_job(1))
        before = store.get(record.job_id).to_dict()
        with pytest.raises(WorkerError, match="cannot ship job store"):
            Worker(Proxy(), backend="process", capacity=2)
        assert store.get(record.job_id).to_dict() == before
        assert store.claimed_job_ids() == []
        # The serial backend never pickles its store.
        (outcome,) = Worker(Proxy()).run_once()
        assert outcome.ok


class TestClose:
    def test_close_shuts_the_process_pool_down(self, store):
        for seed in (1, 2):
            store.submit(_job(seed))
        with Worker(store, backend="process", max_workers=2, capacity=2,
                    use_cache=False) as worker:
            outcomes = worker.run_once()
            backend = worker.runner.backend
            processes = list(backend._pool._processes.values())
        assert len(outcomes) == 2 and all(out.ok for out in outcomes)
        assert processes
        assert backend._pool is None
        assert not any(process.is_alive() for process in processes)
        worker.close()  # idempotent

    def test_serial_close_is_a_no_op(self, store):
        store.submit(_job(1))
        with Worker(store) as worker:
            (outcome,) = worker.run_once()
        assert outcome.ok
        assert worker.run_once() == []  # still usable after close


class TestRunLoop:
    def test_idle_exit_stops_polling(self, store):
        outcomes = Worker(store).run(poll_seconds=0.01, idle_exit=2)
        assert outcomes == []

    def test_max_jobs_stops_after_bound(self, store):
        store.submit(_job(1))
        store.submit(_job(2))
        outcomes = Worker(store).run(poll_seconds=0.01, max_jobs=1)
        assert len(outcomes) == 1
        statuses = sorted(r.status for r in store.records())
        assert statuses == ["completed", "queued"]

    def test_bad_parameters_rejected(self, store):
        with pytest.raises(WorkerError, match="stale_after"):
            Worker(store, stale_after=0)
        with pytest.raises(WorkerError, match="poll_seconds"):
            Worker(store).run(poll_seconds=0)
        with pytest.raises(WorkerError, match="poll_max"):
            Worker(store).run(poll_seconds=2.0, poll_max=1.0)

    def test_idle_polls_back_off_to_poll_max(self, store, monkeypatch):
        # An idle fleet must not hammer the store: each consecutive
        # empty poll doubles the sleep, capped at poll_max.
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.worker.time.sleep", sleeps.append)
        Worker(store).run(poll_seconds=1.0, poll_max=8.0, idle_exit=6)
        assert sleeps == [1.0, 2.0, 4.0, 8.0, 8.0]

    def test_claim_resets_the_backoff(self, store, monkeypatch):
        # Two empty polls grow the delay; then work appears, is run,
        # and the next sleep is back at the base cadence.
        sleeps: list[float] = []
        polls = {"count": 0}
        monkeypatch.setattr("repro.service.worker.time.sleep", sleeps.append)
        original_run_once = Worker.run_once

        def run_once_with_late_job(self, max_jobs=0):
            polls["count"] += 1
            if polls["count"] == 3:
                store.submit(_job(1))
            return original_run_once(self, max_jobs=max_jobs)

        monkeypatch.setattr(Worker, "run_once", run_once_with_late_job)
        outcomes = Worker(store, use_cache=False).run(
            poll_seconds=1.0, poll_max=8.0, idle_exit=3
        )
        assert len(outcomes) == 1
        # sleeps: two idle polls grow the delay (1, 2), the working
        # poll resets it (1), then the backoff restarts from the base
        # (1, 2) until the third consecutive idle poll exits.
        assert sleeps == [1.0, 2.0, 1.0, 1.0, 2.0]

    def test_no_poll_max_keeps_constant_cadence(self, store, monkeypatch):
        sleeps: list[float] = []
        monkeypatch.setattr("repro.service.worker.time.sleep", sleeps.append)
        Worker(store).run(poll_seconds=0.5, idle_exit=4)
        assert sleeps == [0.5, 0.5, 0.5]

    def test_bad_runner_config_fails_before_claiming(self, store):
        # Regression: a runner-construction error discovered only after
        # mark_running would strand the record in `running` forever.
        from repro.exceptions import ServiceError

        record = store.submit(_job(1))
        with pytest.raises(ServiceError):
            Worker(store, backend="quantum")
        with pytest.raises(WorkerError, match="cache_max_entries"):
            Worker(store, cache_max_entries=0)
        assert store.get(record.job_id).status == "queued"
        assert store.claimed_job_ids() == []


class TestRequeue:
    def test_requeue_clears_attempt_state(self, store):
        record = store.submit(_job(1))
        store.mark_running(record)
        store.claim(record.job_id)
        requeued = store.requeue(record)
        assert requeued.status == "queued"
        assert requeued.started_at is None and requeued.error == ""
        assert store.claimed_job_ids() == []

    def test_requeue_failed_record(self, store):
        record = store.submit(_job(1))
        store.mark_failed(record, "boom")
        assert store.requeue(record).status == "queued"

    def test_requeue_completed_refused(self, store):
        record = store.submit(_job(1))
        assert Worker(store).run_once()[0].ok
        completed = store.get(record.job_id)
        with pytest.raises(WorkerError, match="refusing to requeue"):
            store.requeue(completed)

    def test_requeue_checks_on_disk_status(self, store):
        # Regression: requeue with a stale 'running' snapshot must not
        # clobber a record another worker completed meanwhile.
        from repro.service import JobResult

        record = store.submit(_job(1))
        store.mark_running(record)
        stale_view = store.get(record.job_id)
        result = JobResult(
            job_id=record.job_id, dataset="adult", seed=1, generations=1,
            best_score=1.0, best_information_loss=1.0, best_disclosure_risk=1.0,
            final_scores=(1.0,), mean_improvement_percent=0.0,
            fresh_evaluations=1, memo_hits=0, persistent_hits=0, wall_seconds=0.1,
        )
        store.mark_completed(record, result)
        with pytest.raises(WorkerError, match="refusing to requeue"):
            store.requeue(stale_view)
        assert store.get(record.job_id).status == "completed"


def _age_claim(store, job_id, seconds):
    # A worker dead for `seconds` left both timestamps behind.
    then = time.time() - seconds
    with store._lock:
        store._conn.execute(
            "UPDATE claims SET claimed_at = ?, last_seen = ? WHERE job_id = ?",
            (then, then, job_id),
        )


class TestHeartbeats:
    def test_default_interval_is_quarter_of_stale_after(self, store):
        assert Worker(store, stale_after=100).heartbeat_every == 25.0
        assert Worker(store, stale_after=100, heartbeat_every=3).heartbeat_every == 3.0

    def test_default_worker_ids_unique_per_instance(self, store):
        # Same-owner re-claims are idempotent, so two workers — even in
        # one process, even across pid reuse — must never share an id.
        assert Worker(store).worker_id != Worker(store).worker_id

    def test_bad_capacity_and_interval_rejected(self, store):
        with pytest.raises(WorkerError, match="capacity"):
            Worker(store, capacity=0)
        with pytest.raises(WorkerError, match="heartbeat_every"):
            Worker(store, heartbeat_every=0)
        # Beating no faster than the staleness bound would let live jobs
        # look abandoned and get double-executed.
        with pytest.raises(WorkerError, match="smaller than stale_after"):
            Worker(store, stale_after=10, heartbeat_every=10)

    def test_claim_heartbeat_beats_immediately_on_start(self, store):
        # The first beat lands at start, not one interval later, so even
        # a job faster than the interval records liveness at least once.
        store.claim("j1", owner="w")
        _age_claim(store, "j1", seconds=500)
        aged = store.claim_info("j1")["last_seen"]
        beat = ClaimHeartbeat(store, ["j1"], "w", interval=3600.0).start()
        try:
            deadline = time.time() + 5.0
            # .get(): a poll can read the claim mid-rewrite and see {}.
            while store.claim_info("j1").get("last_seen", aged) == aged:
                assert time.time() < deadline, "no heartbeat landed"
                time.sleep(0.01)
        finally:
            beat.stop()
        assert store.claim_info("j1")["last_seen"] > aged

    def test_heartbeatless_claim_recovered_while_beating_one_kept(self, store):
        # Regression for the crash-between-claim-and-update hole: with
        # claimed_at as the only signal, a long job and a dead worker
        # looked identical.  Heartbeats split them: the silent claim is
        # recovered after stale_after, the actively beating one is not.
        dead = store.submit(_job(1))
        alive = store.submit(_job(2))
        for record, owner in ((dead, "crashed"), (alive, "long-runner")):
            store.claim(record.job_id, owner=owner)
            store.mark_running(record)
            _age_claim(store, record.job_id, seconds=7200)
        assert store.heartbeat(alive.job_id, owner="long-runner") is True

        recovered = store.recover_stale_claims(max_age_seconds=3600)

        assert recovered == [dead.job_id]
        assert store.get(dead.job_id).status == "queued"
        assert store.get(alive.job_id).status == "running"
        assert store.claimed_job_ids() == [alive.job_id]

    def test_worker_heartbeats_its_claims_while_running(self, tmp_path):
        beats = []

        class RecordingStore(SqliteJobStore):
            def heartbeat(self, job_id, owner=""):
                beats.append((job_id, owner))
                return super().heartbeat(job_id, owner)

        store = RecordingStore(tmp_path / "jobs.sqlite")
        record = store.submit(_job(1))
        worker = Worker(store, worker_id="beater", use_cache=False)
        (outcome,) = worker.run_once()
        assert outcome.ok
        assert (record.job_id, "beater") in beats


class TestClaimBatchSafety:
    def test_store_failure_mid_batch_releases_every_held_claim(self, tmp_path):
        # Regression: a transient store failure between claiming job A
        # and validating job B used to leak A's claim, stranding A
        # queued-but-claimed until stale recovery.
        from repro.exceptions import ServiceError
        from repro.service.worker import claim_queued

        class FlakyStore(SqliteJobStore):
            fail_after = None

            def get(self, job_id, missing_ok=False):
                if self.fail_after is not None:
                    if self.fail_after == 0:
                        raise ServiceError("store went away")
                    self.fail_after -= 1
                return super().get(job_id, missing_ok)

        store = FlakyStore(tmp_path / "jobs.sqlite")
        for seed in (1, 2):
            store.submit(_job(seed))
        store.fail_after = 1  # first post-claim re-read works, second fails
        with pytest.raises(ServiceError, match="went away"):
            claim_queued(store, store.queued(), "w")
        assert store.claimed_job_ids() == []


class TestCapacity:
    def test_capacity_batches_claims(self, store):
        for seed in (1, 2, 3):
            store.submit(_job(seed))
        worker = Worker(store, capacity=2, use_cache=False)
        batch = worker._claim_batch(worker.capacity)
        assert len(batch) == 2
        assert sorted(store.claimed_job_ids()) == sorted(r.job_id for r in batch)
        for record in batch:
            store.release(record.job_id, owner=worker.worker_id)

    def test_capacity_worker_drains_whole_queue(self, store):
        jobs = [store.submit(_job(seed)) for seed in (1, 2, 3)]
        worker = Worker(store, capacity=2)
        outcomes = worker.run_once()
        assert sorted(out.job_id for out in outcomes) == sorted(r.job_id for r in jobs)
        assert all(out.ok for out in outcomes)
        for record in jobs:
            assert store.get(record.job_id).status == "completed"
        assert store.claimed_job_ids() == []

    def test_capacity_respects_max_jobs(self, store):
        for seed in (1, 2, 3):
            store.submit(_job(seed))
        outcomes = Worker(store, capacity=3).run_once(max_jobs=2)
        assert len(outcomes) == 2
        statuses = sorted(r.status for r in store.records())
        assert statuses == ["completed", "completed", "queued"]


class TestStaleClaimRecovery:
    def test_old_claim_on_running_job_requeues(self, store):
        record = store.submit(_job(1))
        store.claim(record.job_id, owner="crashed-worker")
        store.mark_running(record)
        _age_claim(store, record.job_id, seconds=7200)
        recovered = store.recover_stale_claims(max_age_seconds=3600)
        assert recovered == [record.job_id]
        assert store.get(record.job_id).status == "queued"
        assert store.claimed_job_ids() == []

    def test_fresh_claim_left_alone(self, store):
        record = store.submit(_job(1))
        store.claim(record.job_id)
        store.mark_running(record)
        assert store.recover_stale_claims(max_age_seconds=3600) == []
        assert store.claimed_job_ids() == [record.job_id]

    def test_claim_for_finished_job_dropped(self, store):
        record = store.submit(_job(1))
        store.mark_failed(record, "boom")
        store.claim(record.job_id)
        recovered = store.recover_stale_claims(max_age_seconds=3600)
        assert recovered == [record.job_id]
        # The failed record itself is untouched — only the claim went.
        assert store.get(record.job_id).status == "failed"

    def test_recovered_job_is_rerun_by_next_worker(self, store):
        record = store.submit(_job(1))
        store.claim(record.job_id, owner="crashed-worker")
        store.mark_running(record)
        _age_claim(store, record.job_id, seconds=7200)
        worker = Worker(store, stale_after=3600)
        (outcome,) = worker.run_once()
        assert outcome.ok and outcome.job_id == record.job_id
        assert store.get(record.job_id).status == "completed"

    def test_recovered_job_resumes_from_checkpoint(self, store):
        # Regression: recovery used to re-run interrupted jobs from
        # scratch, discarding the checkpoint the crashed worker wrote.
        job = _job(7, generations=3)
        record = store.submit(job)
        record.extras["checkpoint_every"] = 2
        store.save(record)
        worker = Worker(store, use_cache=False)
        (full,) = worker.run_once()
        assert full.ok
        assert store.get_checkpoint(record.job_id) is not None

        # Simulate a crash after the last checkpoint and its recovery.
        crashed = store.get(record.job_id)
        crashed.status = "running"
        crashed.result = None
        store.save(crashed)
        store.requeue(crashed)
        fetches = []
        fetch = store.get_checkpoint
        store.get_checkpoint = lambda job_id: fetches.append(job_id) or fetch(job_id)
        (resumed,) = worker.run_once()
        assert resumed.ok
        # The claim reads the blob once: the job both decides and resumes.
        assert fetches == [record.job_id]
        assert resumed.result.final_scores == full.result.final_scores
        # Continuing from the checkpoint skips the work already done,
        # so the resumed attempt evaluates strictly less than a rerun.
        assert resumed.result.fresh_evaluations < full.result.fresh_evaluations

    def test_foreign_checkpoint_is_not_resumed(self, store):
        record = store.submit(_job(8, generations=2))
        store.put_checkpoint(record.job_id,
                             {"version": 1, "fingerprint": "someone-else"})
        (outcome,) = Worker(store, use_cache=False).run_once()
        (straight,) = JobRunner().run([record.job])
        assert outcome.ok
        assert outcome.result.final_scores == straight.final_scores
        assert outcome.result.fresh_evaluations == straight.fresh_evaluations

    def test_release_respects_ownership(self, store):
        # Regression: a worker's final release used to unlink claims it
        # no longer owned, cascading double-runs into triple-runs.
        store.claim("j1", owner="worker-a")
        assert store.release("j1", owner="worker-b") is False
        assert store.claimed_job_ids() == ["j1"]
        assert store.release("j1", owner="worker-a") is True
        assert store.claimed_job_ids() == []
        assert store.release("j1", owner="worker-a") is False

    def test_resubmit_failed_drops_leftover_claim(self, store):
        # Regression: a crash between mark_failed and release left a
        # claim that made the resubmitted job unclaimable for an hour.
        record = store.submit(_job(9))
        store.claim(record.job_id, owner="crashed-worker")
        store.mark_failed(record, "boom")
        again = store.submit(_job(9))
        assert again.status == "queued"
        assert store.claimed_job_ids() == []
        assert store.claim(record.job_id, owner="next-worker") is True
