"""``migrate_store`` between every kind of store a fleet can hold state in.

Folding stores into one goes through ``repro migrate``: a sqlite
database, a ``repro serve`` endpoint (read through ``RemoteJobStore``,
which has no ``iter_records`` and so exercises the ``records()``
fallback) or a directory of the retired ``file:`` backend is copied
into a sqlite database or into a served one.  Each source and target
pairing must carry the same things across — every record byte for
byte, every engine checkpoint, trace blob and migrant buffer — leave
live claims and the source behind, and give the same result when run
twice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest

from repro.obs.trace import trace_blob_id
from repro.service import (
    JobRecord,
    JobResult,
    JobStoreServer,
    ProtectionJob,
    RemoteJobStore,
    SqliteJobStore,
    migrants_blob_id,
    migrate_store,
)
from repro.service.store import LegacyFileStore

TOKEN = "migrate-token"
JOB = ProtectionJob(dataset="flare", generations=4, seed=31)
RUNNING, QUEUED, COMPLETED, FAILED = (JOB.with_seed(seed)
                                      for seed in (31, 32, 33, 34))
BLOBS = {
    RUNNING.job_id: {"version": 2, "generation": 2, "fingerprint": "f"},
    trace_blob_id(COMPLETED.job_id): {"version": 1, "trace_id": "abc",
                                      "job_id": COMPLETED.job_id, "spans": []},
    migrants_blob_id(QUEUED.job_id): {"version": 1, "group": "ig",
                                      "island": 0, "rounds": {}},
}
COUNTS = {"records": 4, "checkpoints": 1, "traces": 1, "migrants": 1}


def _result(job: ProtectionJob) -> JobResult:
    return JobResult(
        job_id=job.job_id, dataset=job.dataset, seed=job.seed,
        generations=job.generations, best_score=1.25,
        best_information_loss=0.5, best_disclosure_risk=2.0,
        final_scores=(1.25, 1.5), mean_improvement_percent=4.0,
        fresh_evaluations=12, memo_hits=3, persistent_hits=1,
        wall_seconds=0.2,
    )


RECORDS = (
    JobRecord(job=RUNNING, status="running", submitted_at=1.0,
              started_at=2.0, extras={"checkpoint_every": 2}),
    JobRecord(job=QUEUED, status="queued", submitted_at=3.0,
              extras={"island_group": "ig"}),
    JobRecord(job=COMPLETED, status="completed", submitted_at=4.0,
              started_at=5.0, finished_at=6.0, result=_result(COMPLETED)),
    JobRecord(job=FAILED, status="failed", submitted_at=7.0, started_at=8.0,
              finished_at=9.0, error="boom"),
)


def _canonical(record: JobRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


@dataclass
class End:
    """One end of a migration: the store to hand ``migrate_store``, the
    sqlite store holding its state, and a picture of that state."""

    store: object
    state: object
    snapshot: Callable[[], object]


def _db_snapshot(store: SqliteJobStore) -> tuple:
    blobs = {blob_id: store.get_checkpoint(blob_id) for blob_id in BLOBS}
    records = sorted(_canonical(r) for r in store.records())
    return records, blobs, sorted(store.claims())


def _file_snapshot(root: Path) -> dict[str, str]:
    return {str(path.relative_to(root)): path.read_text(encoding="utf-8")
            for path in sorted(root.rglob("*.json"))}


def _served(backing: SqliteJobStore, servers: list, spool: Path) -> RemoteJobStore:
    server = JobStoreServer(backing, token=TOKEN).start()
    servers.append(server)
    return RemoteJobStore(server.url, token=TOKEN, spool=spool, retries=1,
                          backoff=0.05)


@pytest.fixture
def servers():
    running: list[JobStoreServer] = []
    yield running
    for server in running:
        server.stop()


@pytest.fixture(params=["sqlite", "remote", "file"])
def source(request, tmp_path, servers) -> End:
    """A store holding a record in every status, each kind of blob, and
    a live claim on the running job."""
    staged = SqliteJobStore(tmp_path / "source" / "jobs.sqlite")
    for record in RECORDS:
        staged.save(record)
    for blob_id, payload in BLOBS.items():
        staged.put_checkpoint(blob_id, payload)
    assert staged.claim(RUNNING.job_id, owner="old-worker")
    if request.param == "sqlite":
        return End(staged, staged, lambda: _db_snapshot(staged))
    if request.param == "remote":
        client = _served(staged, servers, tmp_path / "source-spool")
        return End(client, staged, lambda: _db_snapshot(staged))
    root = tmp_path / "legacy"
    for record in RECORDS:
        path = root / "jobs" / f"{record.job_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record.to_dict()), encoding="utf-8")
    for blob_id, payload in BLOBS.items():
        path = root / "checkpoints" / f"{blob_id}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload), encoding="utf-8")
    return End(LegacyFileStore(root), None, lambda: _file_snapshot(root))


@pytest.fixture(params=["sqlite", "remote"])
def target(request, tmp_path, servers) -> End:
    """An empty store to import into."""
    backing = SqliteJobStore(tmp_path / "target" / "jobs.sqlite")
    store = backing
    if request.param == "remote":
        store = _served(backing, servers, tmp_path / "target-spool")
    return End(store, backing, lambda: _db_snapshot(backing))


class TestMigrateBetweenStoreKinds:
    def test_counts_report_what_was_copied(self, source, target):
        assert migrate_store(source.store, target.store) == COUNTS

    def test_records_copy_byte_for_byte(self, source, target):
        migrate_store(source.store, target.store)
        assert sorted(_canonical(r) for r in target.state.records()) \
            == sorted(_canonical(r) for r in RECORDS)
        for record in RECORDS:
            assert target.store.get(record.job_id).to_dict() == record.to_dict()

    def test_every_blob_copies_verbatim(self, source, target):
        migrate_store(source.store, target.store)
        for blob_id, payload in BLOBS.items():
            assert target.state.get_checkpoint(blob_id) == payload

    def test_claims_stay_behind_and_recovery_requeues_the_running_job(
        self, source, target
    ):
        migrate_store(source.store, target.store)
        assert target.store.claimed_job_ids() == []
        assert target.store.recover_stale_claims() == [RUNNING.job_id]
        recovered = target.store.get(RUNNING.job_id)
        assert recovered.status == "queued"
        # The interrupted job resumes from its imported checkpoint.
        assert target.store.get_checkpoint(RUNNING.job_id) == BLOBS[RUNNING.job_id]

    def test_running_it_twice_changes_nothing(self, source, target):
        migrate_store(source.store, target.store)
        once = target.snapshot()
        assert migrate_store(source.store, target.store) == COUNTS
        assert target.snapshot() == once

    def test_source_is_left_as_it_was(self, source, target):
        before = source.snapshot()
        migrate_store(source.store, target.store)
        assert source.snapshot() == before
        if source.state is not None:
            assert source.state.claim_info(RUNNING.job_id)["owner"] == "old-worker"
