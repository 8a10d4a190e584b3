"""The job-store vocabulary every backend shares.

Job state lives in a :class:`~repro.service.sqlstore.SqliteJobStore`
(one database, which also holds every checkpoint; its directory holds
the shared ``cache/evaluations.sqlite``) and is served to other
machines by :class:`~repro.service.netstore.JobStoreServer` and
:class:`~repro.service.netstore.RemoteJobStore`.  This module holds
what they have in common: :class:`JobRecord` and its statuses, the
:func:`store_from_spec` selection grammar, and :func:`migrate_store`.

Records move through ``queued -> running -> completed | failed``; a
record stuck in ``running`` with a checkpoint is exactly the
interrupted-job case ``repro resume`` repairs.  Workers partition the
queue by claims: a worker owns a job exactly while it holds the job's
claim, keeps it alive with ``heartbeat``, and a claim whose worker has
gone silent is recovered by ``recover_stale_claims`` once its
``last_seen`` is older than the staleness bound.

The method surface below — :data:`STORE_PROTOCOL` — is the store
contract: every implementation must expose exactly these operations
with the same semantics, enforced by the parametrized conformance suite
in ``tests/test_store_contract.py``.

The directory backend that predates the database survives only as
:class:`LegacyFileStore`, the read-only source of ``repro migrate
--from file:DIR``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ServiceError
from repro.service.job import JobResult, ProtectionJob

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
STATUSES = (QUEUED, RUNNING, COMPLETED, FAILED)

#: The job-store contract: every store implementation (local or
#: networked) exposes exactly these operations, and the conformance
#: suite asserts their shared semantics against each implementation.
STORE_PROTOCOL = (
    "submit",
    "save",
    "get",
    "records",
    "queued",
    "mark_running",
    "mark_completed",
    "mark_failed",
    "requeue",
    "claim",
    "claim_batch",
    "release",
    "heartbeat",
    "claim_info",
    "claims",
    "claimed_job_ids",
    "recover_stale_claims",
    "get_checkpoint",
    "put_checkpoint",
)


def default_state_dir() -> Path:
    """The service state directory: ``$REPRO_HOME`` or ``~/.repro``."""
    env = os.environ.get("REPRO_HOME", "")
    return Path(env) if env else Path.home() / ".repro"


@dataclass
class JobRecord:
    """One job's lifecycle: specification, status, timestamps, outcome."""

    job: ProtectionJob
    status: str = QUEUED
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    result: JobResult | None = None
    error: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        """The job's content-derived identifier."""
        return self.job.job_id

    def to_dict(self) -> dict:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "job": self.job.to_dict(),
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "result": self.result.to_dict() if self.result is not None else None,
            "error": self.error,
            "extras": self.extras,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        result = payload.get("result")
        return cls(
            job=ProtectionJob.from_dict(payload["job"]),
            status=payload.get("status", QUEUED),
            submitted_at=payload.get("submitted_at", 0.0),
            started_at=payload.get("started_at"),
            finished_at=payload.get("finished_at"),
            result=JobResult.from_dict(result) if result else None,
            error=payload.get("error", ""),
            extras=payload.get("extras", {}),
        )


def store_from_spec(spec: str = "", *, token: str = "",
                    state_dir: str | Path | None = None):
    """Open a job store from its selection spec — the one factory the
    CLI, workers and tests share instead of ad-hoc backend branching.

    Spec grammar (the selection contract, recorded in the ROADMAP):

    - ``""`` — a :class:`~repro.service.sqlstore.SqliteJobStore` on
      ``jobs.sqlite`` in ``state_dir``, else in ``$REPRO_HOME`` or
      ``~/.repro``;
    - a bare directory path ``DIR`` — the same, on ``DIR/jobs.sqlite``;
    - ``sqlite:PATH`` — a :class:`~repro.service.sqlstore.SqliteJobStore`
      on the database file ``PATH`` (empty path: ``jobs.sqlite`` under
      the default state directory);
    - ``http://...`` / ``https://...`` — a
      :class:`~repro.service.netstore.RemoteJobStore` client of a
      ``repro serve`` endpoint, authenticated with ``token``, its
      worker-local evaluation cache under ``state_dir``.

    ``file:DIR`` names the retired directory backend and raises with
    the ``repro migrate`` command that imports it (see
    :class:`LegacyFileStore`); so does a state directory that still
    holds such records and no database, rather than opening an empty
    queue beside them.  ``shard:CHILD[,CHILD...]`` and
    ``shard:@MANIFEST`` name the retired sharded store and raise with
    one ``repro migrate`` command per child, each importing into the
    one database of ``state_dir`` (or the default state directory).

    Local paths are ``~``-expanded here: a spec like ``sqlite:~/db``
    reaches this factory verbatim (shells do not tilde-expand after the
    colon), and silently creating a literal ``./~`` directory instead
    of opening the home-dir store would make a migration look
    successful while copying nothing.

    An unrecognized ``scheme:`` prefix (say, a typo like
    ``sqllite:jobs.db``) is an error, not a store in a directory
    literally named that — a fleet quietly writing into
    ``./sqllite:jobs.db`` looks healthy while sharing state with
    no one.

    Every returned store exposes the full :data:`STORE_PROTOCOL`.
    """
    spec = (spec or "").strip()
    if spec.startswith(("http://", "https://")):
        from repro.service.netstore import RemoteJobStore

        return RemoteJobStore(spec, token=token,
                              spool=state_dir if state_dir else None)
    if spec.startswith("sqlite:"):
        from repro.service.sqlstore import SqliteJobStore

        path = spec[len("sqlite:"):]
        return SqliteJobStore(Path(path).expanduser() if path else None)
    if spec.startswith("shard:"):
        raise ServiceError(_shard_retired(
            spec[len("shard:"):],
            Path(state_dir).expanduser() if state_dir else default_state_dir()))
    if spec.startswith("file:"):
        directory = spec[len("file:"):]
        raise ServiceError(
            "the file: store backend was removed; import its state once with "
            + _migrate_hint(Path(directory).expanduser() if directory
                            else default_state_dir())
        )
    if _looks_like_unknown_scheme(spec):
        scheme = spec.split(":", 1)[0]
        raise ServiceError(
            f"unrecognized store scheme {scheme + ':'!r} in spec {spec!r} "
            "— valid specs: \"\" (the default state directory), a bare "
            "directory path, sqlite:PATH, and http(s)://HOST:PORT"
        )
    if spec:
        root = Path(spec).expanduser()
    else:
        root = Path(state_dir) if state_dir else default_state_dir()
    return _open_state_dir(root)


def _migrate_hint(directory: Path) -> str:
    """The command that imports a legacy ``file:`` directory."""
    return f"repro migrate --from file:{directory} --to sqlite:{directory}/jobs.sqlite"


def _shard_retired(body: str, directory: Path) -> str:
    """Why a ``shard:`` spec fails: one import command per child store."""
    target = f"sqlite:{directory}/jobs.sqlite"
    body = body.strip()
    if body.startswith("@"):
        return ("the shard: store backend was removed; import each child "
                f"store listed in {body[1:]} into one store with "
                f"repro migrate --from CHILD_SPEC --to {target}")
    commands = [f"  repro migrate --from {child.strip()} --to {target}"
                for child in body.split(",") if child.strip()]
    if not commands:
        return f"the shard: store backend was removed; use {target}"
    return ("the shard: store backend was removed; import its children "
            "into one store with:\n" + "\n".join(commands))


def _open_state_dir(root: Path):
    """The sqlite store of state directory ``root``.

    A directory with legacy ``jobs/*.json`` records and no database is
    refused: opening it would hand an upgraded deployment a fresh,
    empty queue while its jobs sit unread beside it.
    """
    from repro.service.sqlstore import SqliteJobStore

    db = root / "jobs.sqlite"
    if not db.exists() and any((root / "jobs").glob("*.json")):
        raise ServiceError(
            f"{root} holds job records of the removed file: store and no "
            f"jobs.sqlite; import them first with {_migrate_hint(root)}"
        )
    return SqliteJobStore(db)


def _looks_like_unknown_scheme(spec: str) -> bool:
    """Whether a spec reads as ``scheme:rest`` rather than a path.
    Alphabetic tokens of length >= 2 only, so Windows drive letters
    (``C:\\jobs``) and paths with colons deeper in (``a/b:c``) still
    open as state directories; an existing path always wins — the user
    demonstrably means that directory."""
    head, sep, _ = spec.partition(":")
    if not sep or not head.isalpha() or len(head) < 2:
        return False
    return not Path(spec).expanduser().exists()


class LegacyFileStore:
    """Read-only view of a state directory of the removed ``file:`` backend.

    That backend kept one :class:`JobRecord` per ``jobs/<job_id>.json``
    and every blob (engine checkpoints, ``.trace`` and ``.migrants``)
    as ``checkpoints/<blob_id>.json``.  This reader is the ``repro
    migrate --from file:DIR`` source and exposes only what
    :func:`migrate_store` reads: no claims, no writes.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        if not (self.root / "jobs").is_dir():
            raise ServiceError(
                f"{self.root} is not a file: state directory (no jobs/ in it)"
            )

    @property
    def spec(self) -> str:
        """How ``repro migrate`` names this source."""
        return f"file:{self.root}"

    def iter_records(self):
        """Yield each record, in record-file name order.

        An unreadable record stops the import: skipping it would drop a
        job from the migrated store without a trace.
        """
        for path in sorted((self.root / "jobs").glob("*.json")):
            try:
                record = JobRecord.from_dict(
                    json.loads(path.read_text(encoding="utf-8")))
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ServiceError(f"unreadable job record {path}: {exc}") from exc
            yield record

    def get_checkpoint(self, blob_id: str) -> dict | None:
        """The stored blob ``blob_id``, or ``None``."""
        path = self.root / "checkpoints" / f"{blob_id}.json"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None


def migrate_store(source, target, *, chunk_size: int = 100) -> dict[str, int]:
    """Copy every job record and checkpoint from ``source`` to ``target``.

    Works across any two :data:`STORE_PROTOCOL` stores (this is the
    ``repro migrate`` export/import pair: sqlite database -> server and
    back; a :class:`LegacyFileStore` is a source too).  Records
    keep their status, timestamps and results byte-for-byte;
    checkpoints ride along keyed by job id.  Live claims are
    deliberately *not* carried: migrate a quiesced fleet — a record
    mid-``running`` at snapshot time arrives with no claim and is
    requeued by the first ``recover_stale_claims`` pass on the target,
    which is exactly the crashed-worker repair path.

    The copy streams: a source exposing ``iter_records()`` (the sqlite
    store and the legacy reader do) is traversed one record at a time, so a
    million-job table never materializes in memory; other sources fall
    back to ``records()``.  Every ``chunk_size`` records a
    ``migrate_progress`` event is emitted — ``repro migrate
    --log-json`` on a large store shows a heartbeat, not an hour of
    silence.  Returns counts of what was copied.

    Durable trace blobs (``<job_id>.trace``, see
    :mod:`repro.obs.trace`) and island migrant buffers
    (``<job_id>.migrants``, see :mod:`repro.service.islands`) ride the
    same checkpoint path, so a migrated job keeps its waterfall and a
    migrated island group keeps its exchange history too.
    """
    from repro.obs import emit_event
    from repro.obs.trace import trace_blob_id
    from repro.service.island_plan import migrants_blob_id

    if chunk_size < 1:
        raise ServiceError(f"chunk_size must be >= 1, got {chunk_size}")
    iterator = getattr(source, "iter_records", None)
    stream = iterator() if callable(iterator) else source.records()
    copied = 0
    checkpoints = 0
    traces = 0
    migrants = 0
    for record in stream:
        target.save(record)
        copied += 1
        payload = source.get_checkpoint(record.job_id)
        if payload is not None:
            target.put_checkpoint(record.job_id, payload)
            checkpoints += 1
        blob = source.get_checkpoint(trace_blob_id(record.job_id))
        if blob is not None:
            target.put_checkpoint(trace_blob_id(record.job_id), blob)
            traces += 1
        buffer = source.get_checkpoint(migrants_blob_id(record.job_id))
        if buffer is not None:
            target.put_checkpoint(migrants_blob_id(record.job_id), buffer)
            migrants += 1
        if copied % chunk_size == 0:
            emit_event("migrate_progress", records=copied,
                       checkpoints=checkpoints, traces=traces,
                       migrants=migrants)
    emit_event("migrate_progress", records=copied, checkpoints=checkpoints,
               traces=traces, migrants=migrants, done=True)
    return {"records": copied, "checkpoints": checkpoints, "traces": traces,
            "migrants": migrants}
