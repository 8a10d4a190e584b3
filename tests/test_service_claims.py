"""Claim protocol: atomic exclusivity, races, and worker partitioning."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.service import ProtectionJob, SqliteJobStore, Worker


def _job(seed: int = 1) -> ProtectionJob:
    return ProtectionJob(dataset="adult", generations=1, seed=seed)


class TestClaimProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        assert store.claim("j1", owner="a") is True
        assert store.claim("j1", owner="b") is False
        store.release("j1")
        assert store.claim("j1", owner="b") is True

    def test_claim_info_records_owner(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        store.claim("j1", owner="worker-7")
        info = store.claim_info("j1")
        assert info["owner"] == "worker-7"
        assert info["claimed_at"] > 0
        assert store.claim_info("unclaimed") is None

    def test_release_is_idempotent(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        store.release("never-claimed")
        store.claim("j1")
        store.release("j1")
        store.release("j1")
        assert store.claimed_job_ids() == []

    def test_claimed_job_ids_lists_holders(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        store.claim("b")
        store.claim("a")
        assert store.claimed_job_ids() == ["a", "b"]

    def test_racing_claims_have_one_winner(self, tmp_path):
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        winners = []
        barrier = threading.Barrier(8)

        def contend(worker: int) -> None:
            barrier.wait()
            if store.claim("contested", owner=str(worker)):
                winners.append(worker)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(winners) == 1


class TestRandomizedClaimRace:
    """Seeded fuzz of the claim race, against both store backends.

    N threads contend for one queue of claims, each visiting the jobs in
    its own RNG-derived order with RNG-derived pauses — a different
    interleaving per seed, reproducible for any given seed.  Whatever
    the interleaving, the invariant is total partition: every job
    claimed exactly once, none lost, none double-claimed.
    """

    SEED = 0xC1A17

    def test_threads_partition_queue_without_double_claims(self, store_harness):
        store = store_harness.store
        rng = random.Random(self.SEED)
        job_ids = [f"job-{i:02d}" for i in range(24)]
        n_threads = 6
        orders = [rng.sample(job_ids, len(job_ids)) for _ in range(n_threads)]
        pauses = [[rng.uniform(0, 0.002) for _ in job_ids] for _ in range(n_threads)]
        wins: list[list[str]] = [[] for _ in range(n_threads)]
        errors: list[Exception] = []
        barrier = threading.Barrier(n_threads)

        def contend(slot: int) -> None:
            barrier.wait()
            try:
                for job_id, pause in zip(orders[slot], pauses[slot]):
                    if store.claim(job_id, owner=f"w{slot}"):
                        wins[slot].append(job_id)
                    time.sleep(pause)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=contend, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        all_wins = [job_id for slot in wins for job_id in slot]
        # No double-claims, and no lost jobs: an exact partition.
        assert len(all_wins) == len(set(all_wins))
        assert sorted(all_wins) == sorted(job_ids)
        # Each claim on disk names the thread that won it.
        for slot, won in enumerate(wins):
            for job_id in won:
                assert store_harness.backing.claim_info(job_id)["owner"] == f"w{slot}"


@pytest.mark.stress
class TestClaimRaceStress:
    """The nightly-scale claim-race battery (deselected by default).

    Same invariant as :class:`TestRandomizedClaimRace` — exact
    partition, no double-claims, no lost jobs — but at fleet scale and
    with mixed claim styles: half the contenders walk the queue with
    single ``claim()`` calls in RNG-derived orders, the other half pull
    ``claim_batch`` capacity batches, against every store backend.
    Gated behind ``-m stress`` (CI runs it on the nightly schedule).
    """

    SEED = 0x57E55
    N_JOBS = 120
    N_THREADS = 12

    def test_mixed_claimers_partition_large_queue(self, store_harness):
        store = store_harness.store
        rng = random.Random(self.SEED)
        records = [
            store.submit(ProtectionJob(dataset="adult", generations=1, seed=seed))
            for seed in range(self.N_JOBS)
        ]
        job_ids = [record.job_id for record in records]
        orders = [rng.sample(job_ids, len(job_ids))
                  for _ in range(self.N_THREADS)]
        pauses = [[rng.uniform(0, 0.001) for _ in range(8)]
                  for _ in range(self.N_THREADS)]
        wins: list[list[str]] = [[] for _ in range(self.N_THREADS)]
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_THREADS)

        def claim_one_by_one(slot: int) -> None:
            for i, job_id in enumerate(orders[slot]):
                if store.claim(job_id, owner=f"w{slot}"):
                    wins[slot].append(job_id)
                time.sleep(pauses[slot][i % len(pauses[slot])])

        def claim_in_batches(slot: int) -> None:
            while True:
                batch = store.claim_batch(owner=f"w{slot}", limit=5)
                if not batch:
                    return
                wins[slot].extend(record.job_id for record in batch)
                time.sleep(pauses[slot][len(wins[slot]) % len(pauses[slot])])

        def contend(slot: int) -> None:
            barrier.wait()
            try:
                if slot % 2:
                    claim_in_batches(slot)
                else:
                    claim_one_by_one(slot)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(self.N_THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert errors == []
        all_wins = [job_id for slot in wins for job_id in slot]
        assert len(all_wins) == len(set(all_wins))
        assert sorted(all_wins) == sorted(job_ids)
        for slot, won in enumerate(wins):
            for job_id in won:
                info = store_harness.backing.claim_info(job_id)
                assert info["owner"] == f"w{slot}"


class TestConcurrentWorkers:
    def test_two_workers_partition_one_queue(self, tmp_path):
        # The acceptance invariant: two workers draining a shared state
        # directory never execute the same job, and together they drain
        # the whole queue.
        store = SqliteJobStore(tmp_path / "jobs.sqlite")
        jobs = [_job(seed) for seed in (1, 2, 3, 4)]
        for job in jobs:
            store.submit(job)

        executed: dict[str, list[str]] = {"w1": [], "w2": []}
        barrier = threading.Barrier(2)

        def drain(name: str) -> None:
            worker = Worker(SqliteJobStore(tmp_path / "jobs.sqlite"), worker_id=name)
            barrier.wait()
            executed[name] = [out.job_id for out in worker.run_once()]

        threads = [threading.Thread(target=drain, args=(n,)) for n in executed]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert set(executed["w1"]).isdisjoint(executed["w2"])
        assert sorted(executed["w1"] + executed["w2"]) == sorted(j.job_id for j in jobs)
        for job in jobs:
            assert store.get(job.job_id).status == "completed"
        assert store.claimed_job_ids() == []
