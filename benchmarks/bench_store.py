"""Job-store microbenchmark — the claim rate one store sustains.

A fleet worker's hot path is the batch claim: one ``claim_batch`` per
drain round, a single transaction on the sqlite store and one RPC
through ``repro serve``.  This bench drains the same N-job queue with
``claim_batch`` at batch 1 and batch 25, once directly on a
``SqliteJobStore`` and once through a localhost ``JobStoreServer`` +
``RemoteJobStore``, and records claims/s for each leg.

The assertion is exactly-once: each drain claims every job once and
none twice.  There is no speed floor — the recorded rates are the
evidence for how many claims a fleet can make against one store, set
against the seconds each GA job runs.
"""

from __future__ import annotations

import os
import time

from conftest import emit, record_result

from repro.service import JobStoreServer, ProtectionJob, RemoteJobStore, SqliteJobStore

#: Override with REPRO_BENCH_STORE_JOBS (CI smoke runs use a toy size).
N_JOBS = int(os.environ.get("REPRO_BENCH_STORE_JOBS", "1000"))
BATCHES = (1, 25)


def _jobs(n: int = N_JOBS) -> list[ProtectionJob]:
    return [ProtectionJob(dataset="adult", generations=1, seed=seed)
            for seed in range(n)]


def _drain(store, jobs, batch: int) -> float:
    """Seconds to claim the whole queue, ``batch`` claims per call."""
    start = time.perf_counter()
    claimed: list[str] = []
    while True:
        won = store.claim_batch(owner="bench-worker", limit=batch)
        if not won:
            break
        claimed.extend(record.job_id for record in won)
    elapsed = time.perf_counter() - start
    assert sorted(claimed) == sorted(job.job_id for job in jobs)
    return elapsed


def test_bench_claim_rate_of_one_store(tmp_path):
    """Claims/s of ``claim_batch`` drains at batch 1 and 25, direct on
    sqlite and through a localhost ``repro serve`` endpoint."""
    jobs = _jobs()
    rows = []
    for batch in BATCHES:
        for via in ("sqlite", "remote"):
            backing = SqliteJobStore(tmp_path / f"{via}-b{batch}" / "jobs.sqlite")
            for job in jobs:
                backing.submit(job)
            server = None
            store = backing
            if via == "remote":
                server = JobStoreServer(backing).start()
                store = RemoteJobStore(server.url, spool=tmp_path / "spool")
            try:
                seconds = _drain(store, jobs, batch)
            finally:
                if server is not None:
                    server.stop()
            rate = len(jobs) / seconds if seconds else float("inf")
            record_result("store", f"{via}-claim-batch{batch}", seconds,
                          rate=min(rate, 1e12))
            rows.append(f"{via + ' claim_batch(' + str(batch) + ')':<24} "
                        f"{seconds:>8.3f}s {rate:>10.0f} claims/s")
    emit(f"claim drain — {len(jobs)} jobs through one store", "\n".join(rows))
