"""Persistent evaluation cache — scores that survive the process.

The paper notes (and the engine's timing records confirm) that fitness
evaluation dominates GA wall-clock time.  The in-process memo cache of
:class:`~repro.metrics.evaluation.ProtectionEvaluator` already collapses
re-scoring *within* a run; :class:`EvaluationCache` extends that across
runs, restarts and worker processes with a disk-backed sqlite store.

Keys are the evaluator's :meth:`~repro.metrics.evaluation
.ProtectionEvaluator.cache_key` — a hash covering the original file, the
masked candidate and the full measure configuration — so a hit is exactly
as trustworthy as recomputing.  sqlite (WAL mode) gives safe concurrent
access from the thread and process execution backends; every worker
simply opens its own handle on the same file.

Long-lived deployments bound the file with ``max_entries``: every row
carries an ``accessed_at`` timestamp (refreshed on each hit), and when
the store exceeds its bound the least-recently-used rows are evicted.
Eviction only ever discards *cached* work — an evicted key is simply
recomputed on next use, so scores are unchanged and only the
``fresh_evaluations`` accounting of later runs goes up.  Caches created
before the ``accessed_at`` column existed are migrated in place on open.

Two hot-path costs are kept off the disk: the entry count each bounded
``put`` needs is maintained in memory (seeded with one ``COUNT`` on
open, corrected from actual delete counts, re-synced whenever
``len``/``stats`` run a real count), and ``accessed_at`` refreshes are
batched — hits record a pending touch that is flushed every
``_TOUCH_FLUSH_EVERY`` hits and always before an eviction decision, so
LRU ordering still sees every hit.  Both are per-handle bookkeeping;
because several worker processes may write one file, each handle also
re-runs the real ``COUNT`` every ``_COUNT_SYNC_EVERY`` of its own puts
(and on ``len``/``stats``/``close``), so a bounded store shared by N
handles can only overshoot its bound by the inserts other handles land
inside one sync window — transiently, and never changing a score.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from pathlib import Path

from repro.exceptions import ServiceError
from repro.metrics.evaluation import ProtectionScore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS evaluations (
    key TEXT PRIMARY KEY,
    payload TEXT NOT NULL,
    accessed_at REAL NOT NULL DEFAULT 0
)
"""


#: Tries at switching a cache file to WAL before giving up; sleeps
#: double from 10 ms between tries (~2.5 s in all).
_WAL_ATTEMPTS = 8


def _enable_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, retrying while it is busy.

    Processes opening one fresh file at once race on the journal-mode
    change, and SQLite fails the losers with SQLITE_BUSY immediately
    instead of waiting out the connection's busy timeout.
    """
    delay = 0.01
    for attempt in range(_WAL_ATTEMPTS):
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            busy = exc.sqlite_errorcode in (sqlite3.SQLITE_BUSY, sqlite3.SQLITE_LOCKED)
            if not busy or attempt == _WAL_ATTEMPTS - 1:
                raise
        time.sleep(delay)
        delay *= 2


def score_to_dict(score: ProtectionScore) -> dict:
    """JSON-ready representation of a :class:`ProtectionScore`."""
    return {
        "information_loss": score.information_loss,
        "disclosure_risk": score.disclosure_risk,
        "score": score.score,
        "il_components": dict(score.il_components),
        "dr_components": dict(score.dr_components),
    }


def score_from_dict(payload: dict) -> ProtectionScore:
    """Rebuild a :class:`ProtectionScore` from :func:`score_to_dict` output."""
    try:
        return ProtectionScore(
            information_loss=payload["information_loss"],
            disclosure_risk=payload["disclosure_risk"],
            score=payload["score"],
            il_components=dict(payload.get("il_components", {})),
            dr_components=dict(payload.get("dr_components", {})),
        )
    except (KeyError, TypeError) as exc:
        raise ServiceError(f"malformed cached score payload: {exc}") from exc


class EvaluationCache:
    """Disk-backed score store implementing the evaluator's cache protocol.

    Parameters
    ----------
    path:
        sqlite file location; parent directories are created on demand.
    readonly:
        When true, :meth:`put` becomes a no-op — useful for serving
        traffic from a pre-warmed cache without write contention.
    max_entries:
        When set, the store never holds more than this many rows: every
        :meth:`put` that would exceed the bound evicts the
        least-recently-used entries first.  ``None`` (the default) keeps
        the store unbounded.
    """

    def __init__(
        self,
        path: str | Path,
        readonly: bool = False,
        max_entries: int | None = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ServiceError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path)
        self.readonly = readonly
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._closed = False
        self._entries_at_close = 0
        self._pending_touches: dict[str, float] = {}
        self._puts_since_count = 0
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        with self._lock:
            _enable_wal(self._conn)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute(_SCHEMA)
            self._migrate_locked()
            self._conn.commit()
            self._entries = self._count_locked()

    #: Hits between ``accessed_at`` flushes; also flushed by eviction,
    #: ``len``/``stats`` and ``close``, so LRU order never misses a hit.
    _TOUCH_FLUSH_EVERY = 64

    #: Bounded puts between real ``COUNT`` re-syncs of the in-memory
    #: entry count — the cap on how long another process's inserts can
    #: go unseen by this handle's eviction decisions.
    _COUNT_SYNC_EVERY = 256

    def _count_locked(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM evaluations").fetchone()
        return int(count)

    def _flush_touches_locked(self) -> None:
        if not self._pending_touches:
            return
        self._conn.executemany(
            "UPDATE evaluations SET accessed_at = ? WHERE key = ?",
            [(stamp, key) for key, stamp in self._pending_touches.items()],
        )
        self._conn.commit()
        self._pending_touches.clear()

    def _migrate_locked(self) -> None:
        """Add ``accessed_at`` to stores created before it existed."""
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(evaluations)")
        }
        if "accessed_at" not in columns:
            self._conn.execute(
                "ALTER TABLE evaluations ADD COLUMN accessed_at REAL NOT NULL DEFAULT 0"
            )

    # -- ScoreCache protocol ------------------------------------------------

    def get(self, key: str) -> ProtectionScore | None:
        """Stored score for ``key``, or ``None`` on a miss: a one-key :meth:`get_many`."""
        return self.get_many([key]).get(key)

    #: SQLite's default host-parameter limit is 999; chunk IN-lists under it.
    _SELECT_CHUNK = 500

    def get_many(self, keys: "list[str] | tuple[str, ...]") -> dict[str, ProtectionScore]:
        """Stored scores for ``keys`` in one SELECT round (missing keys absent).

        One indexed ``IN`` query per ~500 keys; every key counts as one
        hit or one miss.  On a bounded handle each hit refreshes the
        row's ``accessed_at`` so recently-used entries survive LRU
        eviction — recorded as a pending touch and flushed in batches
        (and always before an eviction orders by ``accessed_at``), so
        the hit path pays a disk write once per
        :data:`_TOUCH_FLUSH_EVERY` hits, not per hit.  Unbounded handles
        keep the read path free of disk writes entirely — their rows
        carry the ``accessed_at`` of the last write, so an ``evict()``
        run against a store only ever touched unbounded is
        least-recently-*written* eviction, which is still
        oldest-work-first.
        """
        wanted = list(keys)
        rows: dict[str, str] = {}
        with self._lock:
            for start in range(0, len(wanted), self._SELECT_CHUNK):
                chunk = wanted[start : start + self._SELECT_CHUNK]
                placeholders = ",".join("?" * len(chunk))
                for key, payload in self._conn.execute(
                    f"SELECT key, payload FROM evaluations WHERE key IN ({placeholders})",
                    chunk,
                ):
                    rows[key] = payload
            hits = sum(1 for key in wanted if key in rows)
            self.hits += hits
            self.misses += len(wanted) - hits
            if rows and not self.readonly and self.max_entries is not None:
                now = time.time()
                for key in rows:
                    self._pending_touches[key] = now
                if len(self._pending_touches) >= self._TOUCH_FLUSH_EVERY:
                    self._flush_touches_locked()
        return {key: score_from_dict(json.loads(payload))
                for key, payload in rows.items()}

    def put_many(self, items: "list[tuple[str, ProtectionScore]]") -> None:
        """Store many scores in one transaction (last writer wins per key).

        One ``executemany`` + one commit for the whole batch.  With
        ``max_entries`` set, at most one LRU eviction pass at the end
        keeps the store within its bound after this call returns.
        """
        if self.readonly or not items:
            return
        now = time.time()
        payloads = [(key, json.dumps(score_to_dict(score)), now)
                    for key, score in items]
        with self._lock:
            new_keys = {key for key, _, _ in payloads}
            for start in range(0, len(payloads), self._SELECT_CHUNK):
                chunk = [key for key, _, _ in payloads[start : start + self._SELECT_CHUNK]]
                placeholders = ",".join("?" * len(chunk))
                for (key,) in self._conn.execute(
                    f"SELECT key FROM evaluations WHERE key IN ({placeholders})", chunk
                ):
                    new_keys.discard(key)
            self._conn.executemany(
                "INSERT OR REPLACE INTO evaluations (key, payload, accessed_at) "
                "VALUES (?, ?, ?)",
                payloads,
            )
            self._entries += len(new_keys)
            # The write stamps accessed_at itself; pending hit touches
            # for the same keys are superseded.
            for key, _, _ in payloads:
                self._pending_touches.pop(key, None)
            if self.max_entries is not None:
                self._puts_since_count += len(payloads)
                if self._puts_since_count >= self._COUNT_SYNC_EVERY:
                    # See the inserts other handles on this file made
                    # since the last sync, or a shared bound would only
                    # ever be enforced against our own writes.
                    self._entries = self._count_locked()
                    self._puts_since_count = 0
                self.evictions += self._evict_locked(self.max_entries)
            self._conn.commit()
            self.writes += len(payloads)

    def put(self, key: str, score: ProtectionScore) -> None:
        """Store ``score`` under ``key`` (last writer wins): a one-key :meth:`put_many`."""
        self.put_many([(key, score)])

    # -- maintenance --------------------------------------------------------

    def _evict_locked(self, bound: int) -> int:
        """Delete least-recently-used rows down to ``bound``; count removed."""
        excess = self._entries - bound
        if excess <= 0:
            return 0
        # LRU order must see every hit: flush batched touches first.
        self._flush_touches_locked()
        # Ties on accessed_at (e.g. never-touched migrated rows at 0)
        # break by rowid, i.e. insertion order — still oldest-first.
        cursor = self._conn.execute(
            "DELETE FROM evaluations WHERE key IN ("
            "SELECT key FROM evaluations ORDER BY accessed_at ASC, rowid ASC LIMIT ?)",
            (excess,),
        )
        # The actual delete count corrects any drift another process's
        # handle introduced into our in-memory count.
        removed = cursor.rowcount if cursor.rowcount >= 0 else excess
        self._entries -= removed
        return removed

    def evict(self, max_entries: int | None = None) -> int:
        """Evict least-recently-used entries down to a bound, now.

        Uses ``max_entries`` when given, else the instance bound; with
        neither this call cannot know a target and raises
        :class:`ServiceError`.  Returns how many entries were removed.
        """
        bound = max_entries if max_entries is not None else self.max_entries
        if bound is None:
            raise ServiceError("evict() needs a max_entries bound")
        if bound < 0:
            raise ServiceError(f"max_entries must be >= 0, got {bound}")
        with self._lock:
            removed = self._evict_locked(bound)
            self._conn.commit()
            self.evictions += removed
        return removed

    def __len__(self) -> int:
        with self._lock:
            if self._closed:
                return self._entries_at_close
            self._flush_touches_locked()
            # A real count, which also re-syncs the in-memory counter
            # with whatever other handles on this file have done.
            self._entries = self._count_locked()
            self._puts_since_count = 0
            return self._entries

    def clear(self) -> int:
        """Drop every stored evaluation; returns how many were removed."""
        with self._lock:
            removed = self._conn.execute("DELETE FROM evaluations").rowcount
            self._conn.commit()
            self._pending_touches.clear()
            self._entries = 0
        return int(removed)

    def stats(self) -> dict[str, int]:
        """Session counters plus the current on-disk entry count.

        Safe to call after :meth:`close`: the entry count is then the
        last value observed at close time.
        """
        return {
            "entries": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }

    def close(self) -> None:
        """Flush pending touches and close the sqlite handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._flush_touches_locked()
            self._entries_at_close = self._count_locked()
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "EvaluationCache":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EvaluationCache({str(self.path)!r}, hits={self.hits}, misses={self.misses})"
