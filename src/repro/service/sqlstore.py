"""Transactional SQLite-backed job store: one database, indexed queues.

This is the one local store: the default ``repro`` state directory, a
bare directory spec and ``sqlite:PATH`` all open it.  It implements the
:data:`~repro.service.store.STORE_PROTOCOL` contract (enforced by
``tests/test_store_contract.py``) on one database:

- jobs, claims and checkpoint blobs live in indexed tables of a single
  SQLite database in WAL mode, so ``queued()``, ``claim_batch()``,
  ``recover_stale_claims()`` and ``repro status`` are indexed queries;
- :meth:`SqliteJobStore.claim` is one ``BEGIN IMMEDIATE`` transaction
  that checks and inserts the claim row atomically — safe under N
  concurrent workers in any number of processes, and a claimer killed
  between transaction start and commit rolls back cleanly (the job
  stays queued, never stranded half-claimed);
- :meth:`SqliteJobStore.claim_batch` claims a whole capacity batch in
  one transaction, so a worker's queue pull is a single indexed query
  however long the job table grows.

Checkpoint blobs live in the ``checkpoints`` table and nowhere else:
the runner saves each one straight into it (owner-gated on the claim),
so a save is durable when it returns and the database file is the one
artifact an operator backs up or migrates.  The only file a checkpoint
is ever read from is ``checkpoints/<job_id>.json`` next to the database,
the runner-written copy of state directories from before the table held
every save, so such a directory still resumes.

WAL caveat: SQLite's WAL mode requires shared memory between writers,
which network filesystems (NFS, SMB) do not reliably provide.  Put the
database on a local disk and front it with ``repro serve`` when workers
live on other machines, including fleets that share an NFS mount.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import ServiceError, WorkerError
from repro.service.job import JobResult, ProtectionJob
from repro.service.store import (
    COMPLETED,
    FAILED,
    QUEUED,
    RUNNING,
    STATUSES,
    JobRecord,
    default_state_dir,
)

SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    status TEXT NOT NULL,
    submitted_at REAL NOT NULL DEFAULT 0,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_status ON jobs (status, submitted_at);
CREATE TABLE IF NOT EXISTS claims (
    job_id TEXT PRIMARY KEY,
    owner TEXT,
    pid INTEGER,
    claimed_at REAL,
    last_seen REAL NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS claims_by_last_seen ON claims (last_seen);
CREATE TABLE IF NOT EXISTS checkpoints (
    job_id TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    updated_at REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


def default_db_path() -> Path:
    """The default database location: ``jobs.sqlite`` in the state dir."""
    return default_state_dir() / "jobs.sqlite"


class SqliteJobStore:
    """The :data:`~repro.service.store.STORE_PROTOCOL` on one SQLite file.

    ``path`` is the database file; its parent directory becomes the
    store root, holding the ``cache/`` directory for the shared
    evaluation cache — the same worker-facing location every store
    exposes, so
    :class:`~repro.service.worker.Worker`, the runner and the CLI run
    unchanged.  A single connection serves all threads (handler threads
    of a fronting :class:`~repro.service.netstore.JobStoreServer`
    included), serialized by a lock; cross-process safety comes from
    SQLite's own locking — every mutation runs inside ``BEGIN
    IMMEDIATE``, so concurrent claimers in different worker processes
    are decided by the database, atomically, with crash rollback.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        self.root = self.path.parent
        self.cache_dir = self.root / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # isolation_level=None: autocommit, with explicit BEGIN
        # IMMEDIATE transactions where multi-statement atomicity (and
        # cross-process exclusion) is the point.
        self._conn = sqlite3.connect(self.path, check_same_thread=False,
                                     isolation_level=None)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=10000")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )

    def __reduce__(self):
        # A pickled store is its path: the receiving process (a pool
        # worker) opens its own connection.
        return (SqliteJobStore, (self.path,))

    # -- locations -----------------------------------------------------------

    @property
    def spec(self) -> str:
        """The :func:`~repro.service.store.store_from_spec` spec."""
        return f"sqlite:{self.path}"

    @property
    def cache_path(self) -> Path:
        """The shared persistent evaluation cache file."""
        return self.cache_dir / "evaluations.sqlite"

    def checkpoint_path(self, job_id: str) -> Path:
        """The legacy checkpoint file :meth:`get_checkpoint` falls back to."""
        return self.root / "checkpoints" / f"{job_id}.json"

    # -- transactions --------------------------------------------------------

    @contextmanager
    def _tx(self):
        """One ``BEGIN IMMEDIATE`` transaction; rollback on any error.

        IMMEDIATE takes the database write lock up front, so the
        read-check-write sequences inside (claim, submit, recovery) are
        atomic against writers in *other processes*, not just other
        threads.  A process killed inside the block leaves no partial
        state: SQLite rolls the transaction back on next open.
        """
        self._conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        except BaseException:
            self._conn.execute("ROLLBACK")
            raise
        self._conn.execute("COMMIT")

    def _save_locked(self, record: JobRecord) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO jobs (job_id, status, submitted_at, payload) "
            "VALUES (?, ?, ?, ?)",
            (record.job_id, record.status, record.submitted_at,
             json.dumps(record.to_dict())),
        )

    def _get_locked(self, job_id: str) -> JobRecord | None:
        row = self._conn.execute(
            "SELECT payload FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return JobRecord.from_dict(json.loads(row[0])) if row else None

    def _requeue_locked(self, record: JobRecord) -> JobRecord:
        record.status = QUEUED
        record.started_at = None
        record.finished_at = None
        record.result = None
        record.error = ""
        self._save_locked(record)
        return record

    # -- record lifecycle ----------------------------------------------------

    def submit(self, job: ProtectionJob, extras: dict | None = None) -> JobRecord:
        """Register a job as queued (idempotent).

        Resubmission never clobbers live state: a ``completed``,
        ``queued`` or ``running`` record is returned untouched —
        resetting a running job to queued would orphan the worker that
        owns it.  Only a ``failed`` record is replaced by a fresh queued
        submission.  ``extras`` (e.g. the checkpoint cadence) ride in
        the queued write itself, so no polling worker can claim the
        record without them; resubmission keeps the existing extras.

        One transaction covers the existence check and the write, so
        two workers submitting the same job concurrently cannot both
        replace a failed record or interleave their writes.
        """
        with self._lock, self._tx():
            existing = self._get_locked(job.job_id)
            if existing is not None and existing.status != FAILED:
                return existing
            if existing is not None:
                # A worker that crashed between mark_failed and release
                # can leave a claim behind; drop it with the resubmit.
                self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                   (job.job_id,))
            record = JobRecord(job=job, status=QUEUED, submitted_at=time.time(),
                               extras=dict(extras or {}))
            self._save_locked(record)
            return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record``."""
        if record.status not in STATUSES:
            raise ServiceError(f"unknown job status {record.status!r}")
        with self._lock, self._tx():
            self._save_locked(record)

    def get(self, job_id: str, missing_ok: bool = False) -> JobRecord | None:
        """Load one record; raises :class:`ServiceError` unless ``missing_ok``."""
        with self._lock:
            record = self._get_locked(job_id)
        if record is None and not missing_ok:
            raise ServiceError(f"unknown job {job_id!r} (no record in {self.path})")
        return record

    def records(self) -> list[JobRecord]:
        """Every stored record, oldest submission first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM jobs ORDER BY submitted_at, job_id"
            ).fetchall()
        return [JobRecord.from_dict(json.loads(row[0])) for row in rows]

    def iter_records(self, batch_size: int = 256):
        """Yield records one at a time, in job-id order.

        The streaming sibling of :meth:`records` (not in
        :data:`STORE_PROTOCOL`; ``migrate_store`` feature-detects it).
        Pages through the table ``batch_size`` rows per query, keyed on
        the primary key rather than a long-lived cursor, so concurrent
        writers never block behind a reader holding the connection.
        """
        last = ""
        while True:
            with self._lock:
                rows = self._conn.execute(
                    "SELECT job_id, payload FROM jobs WHERE job_id > ? "
                    "ORDER BY job_id LIMIT ?",
                    (last, batch_size),
                ).fetchall()
            if not rows:
                return
            for job_id, payload in rows:
                yield JobRecord.from_dict(json.loads(payload))
            last = rows[-1][0]

    def queued(self) -> list[JobRecord]:
        """Queued records only, oldest first — one indexed query."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT payload FROM jobs WHERE status = ? "
                "ORDER BY submitted_at, job_id",
                (QUEUED,),
            ).fetchall()
        return [JobRecord.from_dict(json.loads(row[0])) for row in rows]

    def mark_running(self, record: JobRecord) -> None:
        """Transition to ``running`` and persist."""
        record.status = RUNNING
        record.started_at = time.time()
        self.save(record)

    def mark_completed(self, record: JobRecord, result: JobResult) -> None:
        """Transition to ``completed`` with its result and persist."""
        record.status = COMPLETED
        record.finished_at = time.time()
        record.result = result
        record.error = ""
        self.save(record)

    def mark_failed(self, record: JobRecord, error: str) -> None:
        """Transition to ``failed`` — unless the job completed meanwhile.

        A worker whose claim was stale-recovered mid-run may report its
        failure after the takeover worker already completed the job; a
        finished result is never clobbered, and the caller's record is
        refreshed to the completed truth instead.  The check and the
        write share one transaction, so a completion cannot land
        between them.
        """
        with self._lock, self._tx():
            current = self._get_locked(record.job_id)
            if current is not None and current.status == COMPLETED:
                record.status = current.status
                record.finished_at = current.finished_at
                record.result = current.result
                record.error = current.error
                return
            record.status = FAILED
            record.finished_at = time.time()
            record.error = error
            self._save_locked(record)

    def requeue(self, record: JobRecord) -> JobRecord:
        """Put a ``running`` or ``failed`` record back on the queue.

        Clears the previous attempt's timestamps, result and error and
        drops any claim.  Requeueing a ``completed`` record (checked
        against the stored one, not just the caller's snapshot) raises
        :class:`WorkerError`.  The guard, the rewrite and the claim drop
        commit together or not at all.
        """
        with self._lock, self._tx():
            current = self._get_locked(record.job_id) or record
            if COMPLETED in (record.status, current.status):
                raise WorkerError(
                    f"refusing to requeue completed job {record.job_id!r}"
                )
            self._requeue_locked(current)
            self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                               (record.job_id,))
            return current

    # -- worker claims -------------------------------------------------------

    def claim(self, job_id: str, owner: str = "") -> bool:
        """Atomically claim ``job_id`` for ``owner``.

        The check-and-insert is one ``BEGIN IMMEDIATE`` transaction:
        exactly one of N concurrent claimers — threads or processes —
        inserts the row, and a claimer that dies mid-transaction rolls
        back to "unclaimed", never to a half-claim.  Same-owner
        re-claims are idempotent for named owners (a retried network
        claim whose first response was lost); anonymous claims stay
        strictly exclusive.
        """
        now = time.time()
        with self._lock, self._tx():
            row = self._conn.execute(
                "SELECT owner FROM claims WHERE job_id = ?", (job_id,)
            ).fetchone()
            if row is not None:
                won = bool(owner) and row[0] == owner
            else:
                self._conn.execute(
                    "INSERT INTO claims (job_id, owner, pid, claimed_at, last_seen) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (job_id, owner, os.getpid(), now, now),
                )
                won = True
        return won

    def claim_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """Claim up to ``limit`` queued, unclaimed records in one transaction.

        One indexed query selects the oldest claimable records and the
        claim rows land in the same transaction — there is no window
        for another worker to slip in between "saw it queued" and
        "claimed it", so no re-read/release dance is needed.
        """
        now = time.time()
        query = (
            "SELECT job_id, payload FROM jobs WHERE status = ? "
            "AND job_id NOT IN (SELECT job_id FROM claims) "
            "ORDER BY submitted_at, job_id"
        )
        params: list[object] = [QUEUED]
        if limit:
            query += " LIMIT ?"
            params.append(int(limit))
        with self._lock, self._tx():
            rows = self._conn.execute(query, params).fetchall()
            for job_id, _ in rows:
                self._conn.execute(
                    "INSERT INTO claims (job_id, owner, pid, claimed_at, last_seen) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (job_id, owner, os.getpid(), now, now),
                )
        return [JobRecord.from_dict(json.loads(payload)) for _, payload in rows]

    def release(self, job_id: str, owner: str | None = None) -> bool:
        """Drop ``job_id``'s claim; owner-checked when ``owner`` is given.

        A torn claim (owner unreadable) never matches an owner check.
        """
        with self._lock, self._tx():
            if owner is None:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE job_id = ?", (job_id,)
                )
            else:
                cursor = self._conn.execute(
                    "DELETE FROM claims WHERE job_id = ? "
                    "AND owner IS NOT NULL AND owner = ?",
                    (job_id, owner),
                )
            return cursor.rowcount > 0

    def heartbeat(self, job_id: str, owner: str = "") -> bool:
        """Refresh claim liveness: one UPDATE.

        The UPDATE carries the whole owner-check contract: a torn claim
        (NULL owner) refuses every beat, an anonymous claim accepts any
        beater, and a named claim accepts its owner (or an ownerless
        beat).
        """
        with self._lock, self._tx():
            cursor = self._conn.execute(
                "UPDATE claims SET last_seen = ? WHERE job_id = ? "
                "AND owner IS NOT NULL AND (? = '' OR owner = '' OR owner = ?)",
                (time.time(), job_id, owner, owner),
            )
            return cursor.rowcount > 0

    def claim_info(self, job_id: str) -> dict | None:
        """The claim payload (owner, pid, claimed_at, last_seen), or ``None``."""
        with self._lock:
            row = self._conn.execute(
                "SELECT owner, pid, claimed_at, last_seen FROM claims "
                "WHERE job_id = ?",
                (job_id,),
            ).fetchone()
        if row is None:
            return None
        if row[0] is None:
            # Torn claim: held, metadata unreadable.
            return {}
        return {"owner": row[0], "pid": row[1], "claimed_at": row[2],
                "last_seen": row[3]}

    def claimed_job_ids(self) -> list[str]:
        """Every job id currently claimed by some worker."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id FROM claims ORDER BY job_id"
            ).fetchall()
        return [row[0] for row in rows]

    def claims(self) -> dict[str, dict]:
        """Every live claim's payload keyed by job id, in one query.

        Payloads gain ``age_seconds`` — seconds since the last
        heartbeat against this store's clock, which remote monitors
        must prefer over their own arithmetic on ``last_seen``.
        """
        now = time.time()
        with self._lock:
            rows = self._conn.execute(
                "SELECT job_id, owner, pid, claimed_at, last_seen FROM claims "
                "ORDER BY job_id"
            ).fetchall()
        payloads: dict[str, dict] = {}
        for job_id, owner, pid, claimed_at, last_seen in rows:
            if owner is None:
                payloads[job_id] = {}
                continue
            info: dict = {"owner": owner, "pid": pid, "claimed_at": claimed_at,
                          "last_seen": last_seen}
            seen = float(last_seen or claimed_at or 0.0)
            if seen:
                info["age_seconds"] = max(0.0, now - seen)
            payloads[job_id] = info
        return payloads

    def recover_stale_claims(self, max_age_seconds: float = 3600.0) -> list[str]:
        """Release claims whose worker is evidently gone — one transaction.

        Indexed queries find the three recoverable shapes (claims on
        finished or missing jobs, silent claims on unfinished jobs,
        records stranded ``running`` with no claim); the requeues and
        claim drops commit atomically, so a crashed recovery pass
        changes nothing.  A claim refreshed by a heartbeat after this
        transaction began cannot be stolen: IMMEDIATE transactions
        serialize against the beat's own write transaction.
        """
        recovered: list[str] = []
        now = time.time()
        with self._lock, self._tx():
            rows = self._conn.execute(
                "SELECT c.job_id, c.claimed_at, c.last_seen, j.status "
                "FROM claims c LEFT JOIN jobs j USING (job_id) "
                "ORDER BY c.job_id"
            ).fetchall()
            for job_id, claimed_at, last_seen, status in rows:
                if status is None or status in (COMPLETED, FAILED):
                    self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                       (job_id,))
                    recovered.append(job_id)
                    continue
                seen = float(last_seen or claimed_at or 0.0)
                if now - seen > max_age_seconds:
                    current = self._get_locked(job_id)
                    if current is not None and current.status not in (
                        COMPLETED, FAILED
                    ):
                        self._requeue_locked(current)
                    self._conn.execute("DELETE FROM claims WHERE job_id = ?",
                                       (job_id,))
                    recovered.append(job_id)
            stranded = self._conn.execute(
                "SELECT job_id, payload FROM jobs WHERE status = ? "
                "AND job_id NOT IN (SELECT job_id FROM claims) "
                "ORDER BY submitted_at, job_id",
                (RUNNING,),
            ).fetchall()
            for job_id, payload in stranded:
                if job_id in recovered:
                    continue
                self._requeue_locked(JobRecord.from_dict(json.loads(payload)))
                recovered.append(job_id)
        return recovered

    # -- checkpoints ---------------------------------------------------------

    def get_checkpoint(self, job_id: str) -> dict | None:
        """The durable checkpoint blob — table first, legacy file fallback.

        The table holds every save; the :meth:`checkpoint_path` fallback
        covers state directories whose runner wrote files the table
        never received.
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload FROM checkpoints WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is not None:
            try:
                payload = json.loads(row[0])
            except json.JSONDecodeError:
                payload = None
            if isinstance(payload, dict):
                return payload
        try:
            payload = json.loads(
                self.checkpoint_path(job_id).read_text(encoding="utf-8")
            )
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def put_checkpoint(self, job_id: str, payload: dict,
                       owner: str | None = None) -> int:
        """Store a checkpoint blob in the table (claim-gated with ``owner``).

        Returns the stored blob's length, so a saver can size the save
        without encoding the payload again.
        """
        if not isinstance(payload, dict):
            raise ServiceError("checkpoint payload must be a JSON object")
        # Encode before taking the write lock: claims, heartbeats and
        # other savers never wait out a payload's serialization.
        blob = json.dumps(payload)
        with self._lock, self._tx():
            if owner is not None:
                row = self._conn.execute(
                    "SELECT owner FROM claims WHERE job_id = ?", (job_id,)
                ).fetchone()
                if row is None or row[0] != owner:
                    raise WorkerError(
                        f"checkpoint upload rejected: {job_id!r} is not "
                        f"claimed by {owner!r}"
                    )
            self._conn.execute(
                "INSERT OR REPLACE INTO checkpoints (job_id, payload, updated_at) "
                "VALUES (?, ?, ?)",
                (job_id, blob, time.time()),
            )
        return len(blob)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the database handle (idempotent)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "SqliteJobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"SqliteJobStore({str(self.path)!r})"
