"""Job-store microbenchmark — one sqlite database vs two sqlite shards.

A fleet worker's hot path is the batch claim: ``claim_batch`` on a
single database, or the sharded store's ``steal_batch`` (drain the home
shard in one transaction, then steal backlog from the others).  This
bench drains the same 1000-job queue both ways in batches of 25 and
records both times and their ratio.

The assertion is exactly-once: each drain claims every job once and
none twice.  There is no speed floor — whether two shards on one box
beat one database file is what the recorded ratio shows, not an
assumption this bench makes.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_result

from repro.service import ProtectionJob, ShardedJobStore, SqliteJobStore

#: Override with REPRO_BENCH_STORE_JOBS (CI smoke runs use a toy size).
N_JOBS = int(os.environ.get("REPRO_BENCH_STORE_JOBS", "1000"))
BATCH = 25


def _jobs(n: int = N_JOBS) -> list[ProtectionJob]:
    return [ProtectionJob(dataset="adult", generations=1, seed=seed)
            for seed in range(n)]


def _drain(store, jobs, *, steal: bool) -> float:
    """Seconds to claim the whole queue in batches of ``BATCH``."""
    claim = store.steal_batch if steal else store.claim_batch
    start = time.perf_counter()
    claimed: list[str] = []
    while True:
        won = claim(owner="bench-worker", limit=BATCH)
        if not won:
            break
        claimed.extend(record.job_id for record in won)
    elapsed = time.perf_counter() - start
    assert sorted(claimed) == sorted(job.job_id for job in jobs)
    return elapsed


def test_bench_sharded_claim_drain_vs_single_sqlite_store(tmp_path):
    """The sharding leg: a 2-shard sqlite fleet drained through the
    worker fast path (``steal_batch``) next to a single sqlite store's
    ``claim_batch`` drain over the same jobs."""
    jobs = _jobs()

    single = SqliteJobStore(tmp_path / "single" / "jobs.sqlite")
    for job in jobs:
        single.submit(job)
    single_drain = _drain(single, jobs, steal=False)

    sharded = ShardedJobStore(
        [SqliteJobStore(tmp_path / "shard-a.sqlite"),
         SqliteJobStore(tmp_path / "shard-b.sqlite")],
        names=["a", "b"],
        root=tmp_path / "spool",
    )
    for job in jobs:
        sharded.submit(job)
    shard_drain = _drain(sharded, jobs, steal=True)

    ratio = single_drain / shard_drain if shard_drain else float("inf")
    record_result("store-sharded", "sqlite-claim-drain", single_drain)
    record_result("store-sharded", "shard-steal-drain", shard_drain,
                  ratio=min(ratio, 1e9))
    emit(
        f"sharded claim+drain — {len(jobs)} jobs, batches of {BATCH}, "
        "2 sqlite shards vs one sqlite store",
        f"{'sqlite claim_batch':<22} {single_drain:>9.3f}s\n"
        f"{'2-shard steal_batch':<22} {shard_drain:>9.3f}s\n"
        f"{'speedup':<22} {ratio:>9.1f}x",
    )
