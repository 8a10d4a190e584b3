"""Draining one store with ``claim_batch``, at every batch size a worker uses.

A fleet is one store: every worker pulls its capacity with
``claim_batch(owner, limit)`` until the queue is empty.  These tests
drain a queue at batch sizes that cover the shapes a pull can take — one
job per pull, sizes that divide the queue, one that leaves a remainder,
and one larger than the whole queue — against every ``store_harness``
backend (the sqlite store, and a ``RemoteJobStore`` over a live server,
built directly and through ``store_from_spec``).  Whatever the batch
size, a drain claims each job exactly once, in submission order, under
the drainer's owner, and hands a released job straight back.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import JobResult, ProtectionJob

QUEUE = 12
BATCHES = (1, 2, 3, 5, 25)


def _job(seed: int) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=3, seed=seed)


def _result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id, dataset=job.dataset, seed=job.seed,
        generations=job.generations, best_score=1.0,
        best_information_loss=1.0, best_disclosure_risk=1.0,
        final_scores=(1.0,), mean_improvement_percent=0.0,
        fresh_evaluations=1, memo_hits=0, persistent_hits=0,
        wall_seconds=0.01,
    )


def _fill(store) -> list[str]:
    """Submit ``QUEUE`` jobs; their ids in the store's claim order."""
    for seed in range(QUEUE):
        store.submit(_job(seed))
    return [record.job_id for record in store.queued()]


def _drain(store, owner: str, batch: int) -> list[list[str]]:
    """Pull ``batch`` at a time until the store hands out nothing."""
    pulls = []
    while True:
        won = store.claim_batch(owner=owner, limit=batch)
        if not won:
            return pulls
        pulls.append([record.job_id for record in won])


@pytest.mark.parametrize("batch", BATCHES)
class TestDrain:
    def test_every_job_is_claimed_exactly_once(self, store_harness, batch):
        store = store_harness.store
        order = _fill(store)
        pulls = _drain(store, "w", batch)
        claimed = [job_id for pull in pulls for job_id in pull]
        assert len(claimed) == len(set(claimed)) == QUEUE
        assert set(claimed) == set(order)

    def test_pulls_are_full_until_the_queue_runs_out(self, store_harness, batch):
        store = store_harness.store
        _fill(store)
        sizes = [len(pull) for pull in _drain(store, "w", batch)]
        full, rest = divmod(QUEUE, batch)
        assert sizes == [batch] * full + ([rest] if rest else [])

    def test_drain_follows_submission_order(self, store_harness, batch):
        store = store_harness.store
        order = _fill(store)
        claimed = [job_id for pull in _drain(store, "w", batch)
                   for job_id in pull]
        assert claimed == order

    def test_claims_name_the_drainer(self, store_harness, batch):
        store = store_harness.store
        order = _fill(store)
        _drain(store, "drainer-7", batch)
        assert store.claimed_job_ids() == sorted(order)
        claims = store_harness.backing.claims()
        assert {job_id: claim["owner"] for job_id, claim in claims.items()} \
            == {job_id: "drainer-7" for job_id in order}

    def test_released_job_is_handed_straight_back(self, store_harness, batch):
        # Oldest first: a job given back mid-drain (an island parked at
        # an exchange boundary, say) heads the very next pull.
        store = store_harness.store
        order = _fill(store)
        first = store.claim_batch(owner="w", limit=batch)
        parked = first[-1].job_id
        assert store.release(parked, owner="w") is True
        again = store.claim_batch(owner="w", limit=batch)
        assert again[0].job_id == parked
        claimed = [r.job_id for r in first[:-1] + again]
        claimed += [job_id for pull in _drain(store, "w", batch)
                    for job_id in pull]
        assert claimed == order

    def test_finished_jobs_are_never_handed_out_again(
        self, store_harness, batch
    ):
        store = store_harness.store
        _fill(store)
        for pull in _drain(store, "w", batch):
            for job_id in pull:
                record = store.get(job_id)
                store.mark_completed(record, _result(record.job))
                assert store.release(job_id, owner="w") is True
        assert store.claimed_job_ids() == []
        assert store.claim_batch(owner="w", limit=batch) == []
        assert {r.status for r in store.records()} == {"completed"}

    def test_racing_drainers_partition_the_queue(self, store_harness, batch):
        store = store_harness.store
        order = _fill(store)
        drainers = 3
        pulls: list[list[list[str]]] = [[] for _ in range(drainers)]
        errors: list[Exception] = []
        barrier = threading.Barrier(drainers)

        def drain(slot: int) -> None:
            barrier.wait()
            try:
                pulls[slot] = _drain(store, f"w{slot}", batch)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=drain, args=(slot,))
                   for slot in range(drainers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        claimed = [job_id for slot in pulls for pull in slot for job_id in pull]
        assert sorted(claimed) == sorted(order)
        assert len(claimed) == len(set(claimed))
        assert all(len(pull) <= batch for slot in pulls for pull in slot)
        claims = store_harness.backing.claims()
        for slot, slot_pulls in enumerate(pulls):
            for pull in slot_pulls:
                for job_id in pull:
                    assert claims[job_id]["owner"] == f"w{slot}"
