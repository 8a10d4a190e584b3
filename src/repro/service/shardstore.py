"""Sharded job store: one ``STORE_PROTOCOL`` surface over N child stores.

One ``repro serve`` process over one database is a fleet's ceiling.
:class:`ShardedJobStore` removes it without teaching a single caller
about sharding: it composes any mix of child backends (``sqlite:``
or state directories / ``http(s)://``) behind the exact
:data:`~repro.service.store.STORE_PROTOCOL` surface, and the store
conformance suite (``tests/test_store_contract.py``) runs over it
verbatim.  Callers — workers, the CLI, ``migrate_store`` — cannot tell
a sharded fleet from a single store.

How the pieces fit:

**Placement** is a rendezvous (highest-random-weight) hash of the job
id against each shard's name.  Every client computes the same home
shard for a job independently, and — unlike modulo hashing — the
choice is stable when the shard list is reordered or extended: only
keys whose top-ranked shard changed move.  A job's record, its claim
and its checkpoint blob always live on the *same* shard, so the claim
protocol's atomicity still comes from one child store, never from
cross-shard coordination.

**Reads fan out.** ``records()`` / ``queued()`` / ``claims()`` /
``claimed_job_ids()`` / ``recover_stale_claims()`` merge child results
in one round trip per shard — ``repro status`` over a sharded fleet is
O(shards), not O(jobs).  Single-job operations locate the owning shard
by probing in rendezvous order (home first, so the common case is one
probe) and cache the location.

**Work-stealing.** :meth:`claim_batch` keeps the contract's global
oldest-first semantics: it merges every healthy shard's queue and
claims in submission order, routing each claim to the job's own shard.
:meth:`steal_batch` is the fleet fast path workers use: drain the
worker's *home* shard first with one child ``claim_batch`` (one
transaction on a database shard), then steal remaining capacity from
the most-backlogged healthy shards, oldest jobs first within each.
Every stolen job is counted in ``repro_shard_steals_total{shard}``
(labelled by the shard it was stolen from).

**Health.** Every ``StoreUnavailableError`` from a child opens a
circuit for that shard (``cooldown`` seconds, counted in
``repro_shard_unavailable_total{shard}``).  While open, the shard is
skipped by fan-out reads, by submission placement (new jobs route to
the next shard in their rendezvous order) and by stealing — the rest
of the fleet keeps claiming.  Jobs already *on* the dead shard are
deliberately not re-routed: their claims and records are unreachable,
and silently claiming them elsewhere would double-execute.  When the
shard returns, the first ``recover_stale_claims`` pass requeues its
strays through the existing crashed-worker repair path, and they
complete exactly once.

What degrades when a shard is down, by design: fan-out listings are a
partial view (surviving shards only), and submit idempotency is
best-effort — a job homed on the dead shard resubmitted meanwhile
lands on its next rendezvous shard, and the locate order makes the
recovered original win once both are visible again.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.exceptions import ServiceError, StoreUnavailableError
from repro.obs import emit_event, get_registry, trace
from repro.service.job import JobResult, ProtectionJob
from repro.service.store import (
    QUEUED,
    JobRecord,
    default_state_dir,
    store_from_spec,
)

#: Seconds a shard's circuit stays open after a ``StoreUnavailableError``
#: before fan-out reads and placement probe it again.
DEFAULT_COOLDOWN_SECONDS = 30.0


def parse_shard_spec(body: str) -> list[tuple[str, str]]:
    """Parse the body of a ``shard:`` spec into ``(name, child_spec)`` pairs.

    Two grammars:

    - a comma-separated child list — ``sqlite:a.db,sqlite:b.db`` — where
      each child is any non-shard :func:`store_from_spec` spec and the
      child's name is its spec string;
    - ``@PATH`` — a JSON fleet manifest: either a list, or an object
      with a ``"shards"`` list, whose entries are child spec strings or
      ``{"name": ..., "spec": ...}`` objects.  Names let operators keep
      metric labels stable while a shard's address changes.
    """
    body = (body or "").strip()
    if not body:
        raise ServiceError(
            "shard: spec needs at least one child store "
            "(shard:sqlite:a.db,sqlite:b.db or shard:@manifest.json)"
        )
    if body.startswith("@"):
        path = Path(body[1:]).expanduser()
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ServiceError(f"shard manifest not found: {path}")
        except json.JSONDecodeError as exc:
            raise ServiceError(f"shard manifest {path} is not valid JSON: {exc}")
        entries = manifest.get("shards") if isinstance(manifest, dict) else manifest
        if not isinstance(entries, list) or not entries:
            raise ServiceError(
                f"shard manifest {path} must be a JSON list of shards or an "
                "object with a non-empty \"shards\" list"
            )
        pairs: list[tuple[str, str]] = []
        for entry in entries:
            if isinstance(entry, str):
                pairs.append((entry, entry))
            elif isinstance(entry, dict) and isinstance(entry.get("spec"), str):
                pairs.append((str(entry.get("name") or entry["spec"]), entry["spec"]))
            else:
                raise ServiceError(
                    f"bad shard manifest entry {entry!r}: expected a spec "
                    "string or {\"name\": ..., \"spec\": ...}"
                )
    else:
        pairs = [(child.strip(), child.strip())
                 for child in body.split(",") if child.strip()]
    if not pairs:
        raise ServiceError("shard: spec names no child stores")
    for name, spec in pairs:
        if spec.startswith("shard:"):
            raise ServiceError(f"shards cannot nest: child spec {spec!r}")
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ServiceError(f"duplicate shard names in spec: {sorted(names)}")
    return pairs


class _Shard:
    """One child store plus its health state."""

    __slots__ = ("name", "store", "failures", "open_until")

    def __init__(self, name: str, store: object) -> None:
        self.name = name
        self.store = store
        self.failures = 0
        self.open_until = 0.0

    def __repr__(self) -> str:
        return f"_Shard({self.name!r}, failures={self.failures})"


def _hrw_score(shard_name: str, key: str) -> int:
    """Rendezvous weight of ``shard_name`` for ``key`` (higher wins).

    Depends only on the (shard name, key) pair, so every client ranks
    shards identically and reordering the shard list moves no keys.
    """
    digest = hashlib.sha256(f"{shard_name}\x00{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ShardedJobStore:
    """The :data:`~repro.service.store.STORE_PROTOCOL` over N shards.

    ``shards`` are already-open child stores; ``names`` (parallel,
    optional) are the stable identities placement hashes against —
    defaulting to each child's ``spec``/URL.  ``root`` is this client's
    local state directory (the evaluation cache), defaulting to a
    per-fleet directory under the state dir.  Open one from its spec with
    ``store_from_spec("shard:...")``.
    """

    def __init__(
        self,
        shards: list[object],
        names: list[str] | None = None,
        root: str | Path | None = None,
        cooldown: float = DEFAULT_COOLDOWN_SECONDS,
    ) -> None:
        if not shards:
            raise ServiceError("ShardedJobStore needs at least one shard")
        if names is None:
            names = [self._default_name(store, index)
                     for index, store in enumerate(shards)]
        if len(names) != len(shards):
            raise ServiceError(
                f"{len(shards)} shard(s) but {len(names)} name(s)"
            )
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate shard names: {sorted(names)}")
        self._shards = [_Shard(name, store)
                        for name, store in zip(names, shards)]
        self.cooldown = float(cooldown)
        if root is None:
            fleet = hashlib.sha256(
                "\x00".join(sorted(names)).encode("utf-8")
            ).hexdigest()[:12]
            root = default_state_dir() / f"shard-{fleet}"
        self.root = Path(root)
        self.cache_dir = self.root / "cache"
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        # job_id -> _Shard for jobs whose record we have seen.  Records
        # never move between shards (only migrate_store copies them), so
        # a hit is authoritative; misses fall back to rendezvous probing.
        self._locations: dict[str, _Shard] = {}

    @staticmethod
    def _default_name(store: object, index: int) -> str:
        spec = getattr(store, "spec", "") or getattr(store, "base_url", "")
        return str(spec) if spec else f"shard-{index}"

    @classmethod
    def from_spec(
        cls,
        body: str,
        token: str = "",
        state_dir: str | Path | None = None,
        cooldown: float = DEFAULT_COOLDOWN_SECONDS,
    ) -> "ShardedJobStore":
        """Open the fleet a ``shard:`` spec body describes.

        Child stores open through :func:`store_from_spec` (so every
        child grammar — and every future one — works unchanged);
        ``token`` is shared by any HTTP children.  ``state_dir``
        becomes this client's local state root.
        """
        pairs = parse_shard_spec(body)
        stores = [store_from_spec(spec, token=token) for _, spec in pairs]
        store = cls(stores, names=[name for name, _ in pairs],
                    root=state_dir, cooldown=cooldown)
        store._spec_body = body  # preserve the operator's own spelling
        return store

    # -- identity ------------------------------------------------------------

    @property
    def spec(self) -> str:
        """The :func:`store_from_spec` spec that reopens this fleet."""
        body = getattr(self, "_spec_body", None)
        if body is None:
            body = ",".join(shard.name for shard in self._shards)
        return f"shard:{body}"

    @property
    def shard_names(self) -> list[str]:
        """Every shard's stable name, in configuration order."""
        return [shard.name for shard in self._shards]

    @property
    def cache_path(self) -> Path:
        """The local persistent evaluation cache file."""
        return self.cache_dir / "evaluations.sqlite"

    # -- health --------------------------------------------------------------

    def _available(self, shard: _Shard) -> bool:
        return time.monotonic() >= shard.open_until

    def _mark_failure(self, shard: _Shard, error: Exception) -> None:
        shard.failures += 1
        shard.open_until = time.monotonic() + self.cooldown
        get_registry().inc("repro_shard_unavailable_total", shard=shard.name)
        emit_event("shard_unavailable", shard=shard.name,
                   failures=shard.failures, error=repr(error))

    def _mark_success(self, shard: _Shard) -> None:
        if shard.failures:
            emit_event("shard_recovered", shard=shard.name,
                       failures=shard.failures)
        shard.failures = 0
        shard.open_until = 0.0

    def shard_health(self) -> dict[str, dict]:
        """Each shard's circuit state, for monitoring surfaces."""
        now = time.monotonic()
        return {
            shard.name: {
                "available": now >= shard.open_until,
                "consecutive_failures": shard.failures,
                "cooldown_remaining": max(0.0, shard.open_until - now),
            }
            for shard in self._shards
        }

    # -- placement -----------------------------------------------------------

    def _rendezvous_order(self, key: str) -> list[_Shard]:
        """Every shard, best placement first, identically on any client."""
        return sorted(self._shards,
                      key=lambda shard: _hrw_score(shard.name, key),
                      reverse=True)

    def _find_shard(self, job_id: str) -> _Shard | None:
        """The shard holding ``job_id``'s record, or ``None`` if absent.

        Probes in rendezvous order, home first, so a normally-placed
        job costs one child ``get``.  ``None`` is only returned when
        every shard answered — if any shard is unreachable (or
        circuit-open) and the job was not found elsewhere, the honest
        answer is "unknown", and pretending absence could requeue or
        double-run a live job, so :class:`StoreUnavailableError` is
        raised instead.
        """
        cached = self._locations.get(job_id)
        if cached is not None:
            return cached
        unknown = 0
        for shard in self._rendezvous_order(job_id):
            if not self._available(shard):
                unknown += 1
                continue
            try:
                record = shard.store.get(job_id, missing_ok=True)
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                unknown += 1
                continue
            self._mark_success(shard)
            if record is not None:
                self._locations[job_id] = shard
                return shard
        if unknown:
            raise StoreUnavailableError(
                f"cannot locate job {job_id!r}: {unknown} shard(s) unreachable"
            )
        return None

    def _shard_for(self, job_id: str) -> _Shard:
        """Where ``job_id`` lives — or, absent any record, would live.

        Claims for ids with no record (the raw claim protocol) land on
        the id's rendezvous home, so every contending client agrees on
        one shard and the child's atomicity decides the winner.
        """
        found = self._find_shard(job_id)
        if found is not None:
            return found
        return self._rendezvous_order(job_id)[0]

    def shard_for(self, job_id: str) -> object:
        """The child store that owns ``job_id`` (tests and tooling)."""
        return self._shard_for(job_id).store

    def shard_name_for(self, job_id: str) -> str:
        """The owning shard's name, without a network probe.

        Serves monitoring tables: answers from the location cache (a
        preceding ``records()`` fan-out fills it) or the rendezvous
        home, never a fresh per-job round trip.
        """
        cached = self._locations.get(job_id)
        if cached is not None:
            return cached.name
        return self._rendezvous_order(job_id)[0].name

    def _placement_shard(self, job_id: str) -> _Shard:
        """Where a *new* record for ``job_id`` goes: the first healthy
        shard in rendezvous order (routing submissions around a dead
        home shard)."""
        for shard in self._rendezvous_order(job_id):
            if self._available(shard):
                return shard
        raise StoreUnavailableError(
            f"no shard available to place job {job_id!r} "
            f"({len(self._shards)} circuit-open)"
        )

    def _healthy_shards(self) -> list[_Shard]:
        return [shard for shard in self._shards if self._available(shard)]

    # -- record lifecycle ----------------------------------------------------

    def submit(self, job: ProtectionJob, extras: dict | None = None) -> JobRecord:
        """Register a job as queued on its shard (idempotent fleet-wide).

        Locates an existing record first so resubmission keeps the
        child-store idempotency contract wherever the record lives;
        a genuinely new job goes to its rendezvous home (or, with the
        home circuit-open, the next shard in its order).
        """
        try:
            shard = self._find_shard(job.job_id)
        except StoreUnavailableError:
            # The unreachable shard may hold an old record, but refusing
            # every submission during a shard outage would stall the
            # fleet; place on the healthiest candidate and let locate
            # order make the recovered original win later.
            shard = None
        if shard is None:
            shard = self._placement_shard(job.job_id)
        record = shard.store.submit(job, extras)
        self._locations[job.job_id] = shard
        # The submit-side span cannot know the shard; tag it from here.
        trace.annotate_span(shard=shard.name)
        return record

    def save(self, record: JobRecord) -> None:
        """Atomically persist ``record`` on its shard."""
        self._shard_for(record.job_id).store.save(record)
        self._locations[record.job_id] = self._shard_for(record.job_id)

    def get(self, job_id: str, missing_ok: bool = False) -> JobRecord | None:
        """Load one record from whichever shard holds it."""
        shard = self._find_shard(job_id)
        if shard is None:
            if missing_ok:
                return None
            raise ServiceError(
                f"unknown job {job_id!r} (no record on any of "
                f"{len(self._shards)} shard(s))"
            )
        return shard.store.get(job_id, missing_ok=missing_ok)

    def _fan_out_records(self, method: str) -> list[tuple[_Shard, JobRecord]]:
        """``(shard, record)`` pairs from every reachable shard."""
        out: list[tuple[_Shard, JobRecord]] = []
        for shard in self._shards:
            if not self._available(shard):
                continue
            try:
                records = getattr(shard.store, method)()
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                continue
            self._mark_success(shard)
            for record in records:
                self._locations[record.job_id] = shard
                out.append((shard, record))
        return out

    def records(self) -> list[JobRecord]:
        """Every shard's records merged, oldest submission first."""
        merged = [record for _, record in self._fan_out_records("records")]
        return sorted(merged, key=lambda r: (r.submitted_at, r.job_id))

    def queued(self) -> list[JobRecord]:
        """The fleet-wide work queue, oldest submission first.

        Also refreshes ``repro_shard_backlog{shard}`` so scrapes see
        per-shard queue depth from any client that polls.
        """
        registry = get_registry()
        by_shard: dict[str, int] = {shard.name: 0 for shard in self._shards}
        merged = []
        for shard, record in self._fan_out_records("queued"):
            by_shard[shard.name] += 1
            merged.append(record)
        for name, backlog in by_shard.items():
            registry.set_gauge("repro_shard_backlog", backlog, shard=name)
        return sorted(merged, key=lambda r: (r.submitted_at, r.job_id))

    def mark_running(self, record: JobRecord) -> None:
        """Transition to ``running`` on the record's shard."""
        self._shard_for(record.job_id).store.mark_running(record)

    def mark_completed(self, record: JobRecord, result: JobResult) -> None:
        """Transition to ``completed`` on the record's shard."""
        self._shard_for(record.job_id).store.mark_completed(record, result)

    def mark_failed(self, record: JobRecord, error: str) -> None:
        """Transition to ``failed`` on the record's shard (the child
        store protects a completed result from stale failures)."""
        self._shard_for(record.job_id).store.mark_failed(record, error)

    def requeue(self, record: JobRecord) -> JobRecord:
        """Requeue on the record's shard (completed records refuse)."""
        return self._shard_for(record.job_id).store.requeue(record)

    # -- worker claims -------------------------------------------------------

    def claim(self, job_id: str, owner: str = "") -> bool:
        """Claim ``job_id`` on the one shard that owns it.

        A record's claim lives with the record; an id with no record
        claims on its rendezvous home.  Either way every contender
        routes to the same shard, so the child's atomic claim protocol
        keeps the one-winner invariant without any cross-shard locking.
        """
        return self._shard_for(job_id).store.claim(job_id, owner=owner)

    def claim_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """Win up to ``limit`` claims fleet-wide, oldest submission first.

        The contract path: every healthy shard's queue merges into one
        globally-ordered list and each claim routes to the job's own
        shard.  A shard that dies mid-batch is circuit-broken and its
        remaining candidates skipped — claims already won on surviving
        shards are kept, not thrown away.  (Workers prefer
        :meth:`steal_batch`, which trades global ordering for one-
        transaction home-shard drains.)
        """
        candidates: list[tuple[float, str, _Shard]] = []
        for shard, record in self._fan_out_records("queued"):
            candidates.append((record.submitted_at, record.job_id, shard))
        candidates.sort(key=lambda item: (item[0], item[1]))
        won: list[JobRecord] = []
        held: list[tuple[_Shard, str]] = []
        try:
            for _, job_id, shard in candidates:
                if limit and len(won) >= limit:
                    break
                if not self._available(shard):
                    continue
                try:
                    record = self._claim_validated(shard, job_id, owner)
                except StoreUnavailableError as error:
                    self._mark_failure(shard, error)
                    continue
                if record is not None:
                    held.append((shard, job_id))
                    won.append(record)
        except BaseException:
            for shard, job_id in held:
                try:
                    shard.store.release(job_id, owner=owner)
                except Exception as error:  # noqa: BLE001 - stale recovery backstops
                    # The claim now clears only via stale recovery; say so.
                    emit_event("release_error", job_id=job_id, owner=owner,
                               shard=shard.name, error=repr(error))
            raise
        return won

    def _claim_validated(self, shard: _Shard, job_id: str,
                         owner: str) -> JobRecord | None:
        """One claim-and-re-read on ``shard``; ``None`` when not won.

        Skip jobs someone (including this owner) already holds, claim,
        then re-read inside the claim — a record that left the queue
        meanwhile is released, not returned.
        """
        if shard.store.claim_info(job_id) is not None:
            return None
        if not shard.store.claim(job_id, owner=owner):
            return None
        current = shard.store.get(job_id, missing_ok=True)
        if current is None or current.status != QUEUED:
            shard.store.release(job_id, owner=owner)
            return None
        self._locations[job_id] = shard
        return current

    def steal_batch(self, owner: str = "", limit: int = 0) -> list[JobRecord]:
        """The worker fast path: drain home, then steal from the backlog.

        The ``owner``'s home shard (its own rendezvous placement) is
        drained first with one child ``claim_batch`` — a single
        transaction on a database shard.  Remaining capacity is stolen
        from the other healthy shards, most-backlogged first, so load
        rebalances toward wherever jobs pile up; each steal is counted
        in ``repro_shard_steals_total{shard}`` against the shard it was
        stolen *from*.  Dead shards are circuit-broken and skipped —
        the surviving fleet keeps claiming.
        """
        registry = get_registry()
        won: list[JobRecord] = []
        home = None
        for shard in self._rendezvous_order(owner or "anonymous-worker"):
            if self._available(shard):
                home = shard
                break
        if home is not None:
            won.extend(self._steal_from(home, owner, limit))
            if limit and len(won) >= limit:
                return won
        backlogged: list[tuple[int, int, _Shard]] = []
        for index, shard in enumerate(self._shards):
            if shard is home or not self._available(shard):
                continue
            try:
                backlog = len(shard.store.queued())
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                continue
            self._mark_success(shard)
            registry.set_gauge("repro_shard_backlog", backlog, shard=shard.name)
            if backlog:
                backlogged.append((-backlog, index, shard))
        for _, _, shard in sorted(backlogged, key=lambda item: item[:2]):
            need = limit - len(won) if limit else 0
            if limit and need <= 0:
                break
            stolen = self._steal_from(shard, owner, need)
            if stolen:
                registry.inc("repro_shard_steals_total", len(stolen),
                             shard=shard.name)
                emit_event("shard_steal", shard=shard.name, owner=owner,
                           jobs=len(stolen))
            won.extend(stolen)
        return won

    def _steal_from(self, shard: _Shard, owner: str,
                    limit: int) -> list[JobRecord]:
        """One child ``claim_batch`` with health accounting."""
        try:
            batch = shard.store.claim_batch(owner=owner, limit=limit)
        except StoreUnavailableError as error:
            self._mark_failure(shard, error)
            return []
        self._mark_success(shard)
        for record in batch:
            self._locations[record.job_id] = shard
        return batch

    def release(self, job_id: str, owner: str | None = None) -> bool:
        """Drop ``job_id``'s claim on its shard (owner-checked when given)."""
        return self._shard_for(job_id).store.release(job_id, owner=owner)

    def heartbeat(self, job_id: str, owner: str = "") -> bool:
        """Refresh claim liveness on the owning shard."""
        return self._shard_for(job_id).store.heartbeat(job_id, owner=owner)

    def claim_info(self, job_id: str) -> dict | None:
        """The claim payload from the owning shard, or ``None``."""
        return self._shard_for(job_id).store.claim_info(job_id)

    def claimed_job_ids(self) -> list[str]:
        """Every claimed job id across all reachable shards, sorted."""
        ids: list[str] = []
        for shard in self._healthy_shards():
            try:
                ids.extend(shard.store.claimed_job_ids())
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                continue
            self._mark_success(shard)
        return sorted(ids)

    def claims(self) -> dict[str, dict]:
        """Every live claim fleet-wide, one bulk read per shard.

        Each payload gains a ``shard`` field naming its home, which is
        what lets ``repro status`` and ``repro top`` render a sharded
        fleet as one table with per-shard rows.
        """
        merged: dict[str, dict] = {}
        for shard in self._healthy_shards():
            try:
                bulk = shard.store.claims()
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                continue
            self._mark_success(shard)
            for job_id, info in bulk.items():
                payload = dict(info)
                payload["shard"] = shard.name
                merged[job_id] = payload
        return merged

    def recover_stale_claims(self, max_age_seconds: float = 3600.0) -> list[str]:
        """Run every reachable shard's own recovery pass and merge.

        This is also how a revived shard's strays rejoin the fleet: its
        silent claims and stranded-running records requeue through the
        child store's existing crashed-worker repair, and the next
        worker poll (or steal) picks them up — each exactly once.
        """
        recovered: list[str] = []
        for shard in self._healthy_shards():
            try:
                recovered.extend(
                    shard.store.recover_stale_claims(max_age_seconds)
                )
            except StoreUnavailableError as error:
                self._mark_failure(shard, error)
                continue
            self._mark_success(shard)
        return recovered

    # -- checkpoints ---------------------------------------------------------

    @staticmethod
    def _blob_placement_id(blob_id: str) -> str:
        """Placement key for a checkpoint-path blob id.

        A job's trace blob (``<job_id>.trace``) and island migrant
        buffer (``<job_id>.migrants``) must live on the shard that
        holds the record — ``_shard_for`` on the raw blob id would
        rendezvous-hash the suffixed string to a different shard.  The
        suffix literal is kept in :mod:`repro.service.islands`; it is
        duplicated here only through that import, never retyped.
        """
        from repro.service.islands import MIGRANTS_BLOB_SUFFIX

        if blob_id.endswith(trace.TRACE_BLOB_SUFFIX):
            return blob_id[: -len(trace.TRACE_BLOB_SUFFIX)]
        if blob_id.endswith(MIGRANTS_BLOB_SUFFIX):
            return blob_id[: -len(MIGRANTS_BLOB_SUFFIX)]
        return blob_id

    def get_checkpoint(self, job_id: str) -> dict | None:
        """The durable checkpoint blob from the owning shard."""
        shard = self._shard_for(self._blob_placement_id(job_id))
        return shard.store.get_checkpoint(job_id)

    def put_checkpoint(self, job_id: str, payload: dict,
                       owner: str | None = None) -> None:
        """Store the blob on the owning shard (claim-gated with ``owner``)."""
        shard = self._shard_for(self._blob_placement_id(job_id))
        shard.store.put_checkpoint(job_id, payload, owner=owner)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close every child store that has a ``close`` (idempotent)."""
        for shard in self._shards:
            close = getattr(shard.store, "close", None)
            if callable(close):
                close()

    def __enter__(self) -> "ShardedJobStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ShardedJobStore({len(self._shards)} shard(s): "
                f"{', '.join(shard.name for shard in self._shards)})")
