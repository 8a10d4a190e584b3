"""Queue worker: claims queued jobs from a shared store and executes them.

:class:`Worker` is the one executor of claimed jobs.  ``repro submit
--detach`` only *writes* ``queued`` records; a ``repro worker`` process
(any number of them, on one local database or against a
:class:`~repro.service.netstore.RemoteJobStore` over HTTP) later claims
each record via the store's atomic claim protocol, runs it through the
existing :class:`~repro.service.runner.JobRunner`, and marks it
``completed`` or ``failed``.  Inline ``repro submit`` and ``repro
resume`` are an in-process worker over the same code
(:meth:`Worker.process` and :meth:`Worker.run_claimed`), so every job
gets the same heartbeats, marks, events, counters and trace spans
however it is driven.  Because a claim either exists or does not —
there is no in-between state the store can expose — two workers
draining one queue never execute the same job, which is the invariant
cross-machine distribution builds on.

The claim protocol, spelled out:

1. list queued records, oldest first;
2. for each, try ``store.claim(job_id)`` — losing the race simply means
   another worker owns that job, move on — until up to ``capacity``
   claims are won;
3. after winning, *re-read the record*: a job that finished between the
   listing and the claim is skipped, not re-run;
4. heartbeat every claim from a background thread while the jobs run,
   so the store knows this worker is still alive however long they take;
5. run, mark, and release the claims in a ``finally`` block.

A worker that dies between claiming and releasing leaves a claim whose
heartbeats have stopped;
:meth:`~repro.service.sqlstore.SqliteJobStore.recover_stale_claims` (run at every
worker start and poll) requeues such jobs once the claim's ``last_seen``
outlives ``stale_after`` seconds.  An *actively heartbeating* claim is
never recovered, no matter how long its job runs.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import uuid

from repro.exceptions import ServiceError, WorkerError
from repro.obs import emit_event, get_registry, trace
from repro.service.islands import member_job_ids, park_record, parked_signature
from repro.service.runner import JobOutcome, JobRunner
from repro.service.sqlstore import SqliteJobStore
from repro.service.store import QUEUED, JobRecord


def unique_owner(prefix: str = "") -> str:
    """A claim-owner identity that is unique per caller, not just per host.

    ``claim()`` treats a same-owner re-claim as "you already own it", so
    owner identities must never collide: host-pid alone is shared by two
    workers in one process and can be recycled onto a crashed worker's
    pid.  The random suffix rules both out.
    """
    label = f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
    return f"{prefix}-{label}" if prefix else label


class ClaimHeartbeat:
    """Background thread keeping a set of claims alive while jobs run.

    Beats once immediately on :meth:`start` (so even a job faster than
    the interval records liveness) and then every ``interval`` seconds
    until :meth:`stop`.  A beat that fails — store briefly unreachable,
    claim recovered from under us — never kills the thread: liveness is
    advisory, and the run loop's owner-checked marks and releases are
    what protect correctness.  But a *silent* dying heartbeat would only
    surface once its claims went stale, so every failed beat is routed
    through the event log (``heartbeat_error``) and counted in
    ``repro_heartbeat_total{result="error"}``.
    """

    def __init__(self, store: SqliteJobStore, job_ids: list[str], owner: str,
                 interval: float) -> None:
        self.store = store
        self.job_ids = list(job_ids)
        self.owner = owner
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="claim-heartbeat", daemon=True
        )

    def _run(self) -> None:
        registry = get_registry()
        while True:
            for job_id in self.job_ids:
                try:
                    alive = self.store.heartbeat(job_id, self.owner)
                except Exception as error:  # noqa: BLE001 - any dead beat < dead thread
                    # A missed beat just lets last_seen age one tick —
                    # but it must be *visible* before the claim goes stale.
                    registry.inc("repro_heartbeat_total", result="error")
                    emit_event("heartbeat_error", job_id=job_id,
                               owner=self.owner, error=repr(error))
                else:
                    registry.inc("repro_heartbeat_total",
                                 result="ok" if alive else "lost")
                    if not alive:
                        emit_event("heartbeat_lost", job_id=job_id,
                                   owner=self.owner)
            if self._stop.wait(self.interval):
                return

    def start(self) -> "ClaimHeartbeat":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def claim_queued(
    store: SqliteJobStore,
    candidates: list[JobRecord],
    owner: str,
    limit: int = 0,
    on_skipped=None,
) -> list[JobRecord]:
    """Win claims over still-queued ``candidates`` for ``owner``.

    The claim-validate step behind :meth:`Worker.process` (and a
    stalled drain's explicit queue walk): try to claim each record
    (losing just means someone else owns it), then *re-read*
    inside the claim — a record that stopped being queued in the
    meantime is released again, not run.  Stops after ``limit`` wins
    when positive.  On any error, every claim already held is released
    (best-effort) before the error propagates, so a transient store
    failure cannot strand claimed-but-unrun jobs until stale recovery.

    ``on_skipped(record, reason)`` is called for records passed over,
    with reason ``"claimed"`` (someone else holds it) or ``"not-queued"``
    (it left the queue before our claim landed).
    """
    registry = get_registry()
    mine: list[JobRecord] = []
    held: list[str] = []
    try:
        for record in candidates:
            if limit and len(mine) >= limit:
                break
            if not store.claim(record.job_id, owner=owner):
                registry.inc("repro_worker_claims_total", result="lost")
                if on_skipped is not None:
                    on_skipped(record, "claimed")
                continue
            held.append(record.job_id)
            current = store.get(record.job_id, missing_ok=True)
            if current is None or current.status != QUEUED:
                store.release(record.job_id, owner=owner)
                held.pop()
                if on_skipped is not None:
                    on_skipped(record, "not-queued")
                continue
            mine.append(current)
            registry.inc("repro_worker_claims_total", result="won")
    except BaseException:
        release_quietly(store, held, owner)
        raise
    return mine


def release_quietly(store: SqliteJobStore, job_ids: list[str], owner: str) -> None:
    """Release each claim, best-effort.

    Cleanup paths must release *every* claim they can: one failed
    release (store briefly unreachable) aborting the rest would leak
    sibling claims and crash callers whose jobs all succeeded.  A claim
    that could not be released ages out via stale recovery.
    """
    for job_id in job_ids:
        try:
            store.release(job_id, owner=owner)
        except Exception as error:  # noqa: BLE001 - stale recovery is the backstop
            # The leak is survivable but must not be silent: the claim
            # now only clears via stale recovery, which an operator
            # should see coming.
            emit_event("release_error", job_id=job_id, owner=owner,
                       error=repr(error))


class Worker:
    """Claims and executes queued jobs from a job store.

    Parameters
    ----------
    store:
        Any :data:`~repro.service.store.STORE_PROTOCOL` implementation —
        a local :class:`~repro.service.sqlstore.SqliteJobStore` or a
        :class:`~repro.service.netstore.RemoteJobStore`; multiple
        workers may point at one.
    backend / max_workers:
        Execution backend (``serial`` or ``process``) of the one runner
        (:attr:`runner`) every claimed batch goes through; ``process``
        keeps its pool until :meth:`close`.  With the default (``serial``)
        parallelism comes from running more workers; with ``capacity``
        above 1, pick ``process`` so a batch actually runs concurrently.
    use_cache:
        Thread the store's persistent evaluation cache through each job
        (worker-local when the store is remote).
    cache_max_entries:
        LRU bound for worker-opened cache handles (``None`` = unbounded).
    worker_id:
        Identity recorded in its claims; defaults to
        :func:`unique_owner` (host-pid plus a random suffix, so two
        workers never share one identity).  If you set it yourself,
        keep it unique per live worker — claims are idempotent per
        owner.
    stale_after:
        Claims whose last heartbeat is older than this many seconds are
        treated as abandoned and their jobs requeued (must be positive).
        Heartbeats decouple this from job length: a long job stays safe
        as long as its worker keeps beating.
    capacity:
        How many jobs this worker claims per batch (its share of the
        queue); each batch is executed on the configured backend.  A
        batch that holds every member of an island group runs the group
        in lockstep (see :mod:`repro.service.islands`).  In a
        :meth:`run_once` drain a group counts as one slot: winning a
        member also claims its still-queued siblings.  :meth:`run`'s
        poll loop, the mode a fleet runs, claims members one slot each,
        so peer workers split a group and its members park.
    heartbeat_every:
        Seconds between claim heartbeats; defaults to ``stale_after / 4``
        so a single missed beat never looks like a death.
    eval_workers:
        Default in-run parallel fitness evaluation (threads) for jobs
        that did not pin their own (pure throughput — results are
        bit-identical whatever the worker count).
    """

    def __init__(
        self,
        store: SqliteJobStore,
        backend: str = "serial",
        max_workers: int | None = None,
        use_cache: bool = True,
        cache_max_entries: int | None = None,
        worker_id: str = "",
        stale_after: float = 3600.0,
        capacity: int = 1,
        heartbeat_every: float | None = None,
        eval_workers: int = 0,
    ) -> None:
        if stale_after <= 0:
            raise WorkerError(f"stale_after must be positive, got {stale_after}")
        if capacity < 1:
            raise WorkerError(f"capacity must be >= 1, got {capacity}")
        if heartbeat_every is not None and heartbeat_every <= 0:
            raise WorkerError(
                f"heartbeat_every must be positive, got {heartbeat_every}"
            )
        self.store = store
        self.worker_id = worker_id or unique_owner()
        self.stale_after = float(stale_after)
        self.capacity = int(capacity)
        self.heartbeat_every = (
            float(heartbeat_every) if heartbeat_every is not None
            else self.stale_after / 4.0
        )
        if self.heartbeat_every >= self.stale_after:
            # Beating slower than the staleness bound means this
            # worker's live jobs look abandoned and get double-executed.
            raise WorkerError(
                f"heartbeat_every ({self.heartbeat_every}) must be smaller "
                f"than stale_after ({self.stale_after})"
            )
        # The one runner every claimed batch goes through, built here so
        # a bad setting fails before any claim (discovering it after
        # marking a job running would strand the record).  Checkpoints
        # and island exchanges go straight to this worker's store, gated
        # on its claims; each job's cadence comes with its record.
        try:
            self.runner = JobRunner(
                backend=backend,
                max_workers=max_workers,
                cache_path=str(store.cache_path) if use_cache else None,
                cache_max_entries=cache_max_entries,
                eval_workers=eval_workers,
                store=store,
                owner=self.worker_id,
            )
        except ServiceError as exc:
            raise WorkerError(str(exc)) from exc
        self._last_telemetry_push = 0.0
        # (start, duration) of the most recent claim round; feeds the
        # ``repro.claim`` span of every record won in that round.
        self._last_claim = (0.0, 0.0)
        # True while :meth:`run` polls: its drains claim no siblings.
        self._polling = False

    def close(self) -> None:
        """Shut down the runner's job-level pool (idempotent).

        A ``process`` pool otherwise outlives every drain until the
        interpreter's exit hook reaps it; a later drain starts a new one.
        A ``Worker`` is also a context manager that closes on exit.
        """
        self.runner.backend.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _claim_batch(
        self, limit: int, candidates: list[JobRecord] | None = None,
        on_skipped=None,
    ) -> list[JobRecord]:
        """Win up to ``limit`` claims (0 = no limit) over still-queued records.

        Without explicit candidates the store's own ``claim_batch``
        does the whole queue-walk-and-claim — one transaction on a
        database store, one round trip on a remote one.  With
        candidates (the :meth:`process` path) the claim loop runs here
        over exactly those records, reporting passed-over ones to
        ``on_skipped`` (see :func:`claim_queued`).
        """
        claim_started = time.time()
        if candidates is None:
            batch = self.store.claim_batch(owner=self.worker_id, limit=limit)
            if batch:
                # claim_batch reports only wins; losses stay inside the
                # store transaction (claim_queued counts both sides).
                get_registry().inc("repro_worker_claims_total",
                                   len(batch), result="won")
        else:
            batch = claim_queued(self.store, candidates, self.worker_id,
                                 limit=limit, on_skipped=on_skipped)
        self._last_claim = (claim_started, max(0.0, time.time() - claim_started))
        return batch

    def _claim_siblings(self, batch: list[JobRecord], limit: int | None) -> list[JobRecord]:
        """Claim the still-queued island members of the groups ``batch`` holds.

        At most ``limit`` of them (``None``: all).  The claim round's
        span (see :meth:`_claim_batch`) is extended to cover this one.
        """
        held = {record.job_id for record in batch}
        wanted: list[str] = []
        for record in batch:
            job = record.job
            if job.islands >= 2 and job.island_index < job.islands:
                for job_id in member_job_ids(job):
                    if job_id not in held:
                        held.add(job_id)
                        wanted.append(job_id)
        records = [self.store.get(job_id, missing_ok=True) for job_id in wanted]
        candidates = [record for record in records
                      if record is not None and record.status == QUEUED]
        if not candidates:
            return []
        won = claim_queued(self.store, candidates, self.worker_id,
                           limit=0 if limit is None else limit)
        claim_started = self._last_claim[0]
        self._last_claim = (claim_started, max(0.0, time.time() - claim_started))
        return won

    def run_claimed(
        self, records: list[JobRecord], resume: bool | None = None,
        checkpoints: dict[str, dict] | None = None,
        claim: tuple[float, float] | None = None,
    ) -> list[JobOutcome]:
        """Execute records this worker owns; marks, heartbeats, releases.

        The whole batch is one
        :meth:`~repro.service.runner.JobRunner.run_settled` call on this
        worker's runner, each job at the checkpoint cadence its record
        stores; a bad stored cadence fails only that job.  With the
        default ``resume=None`` a job left behind by an interrupted
        worker continues from its (fingerprint-validated) checkpoint
        instead of restarting; ``resume=True`` (``repro resume``)
        requires one.
        ``checkpoints`` maps job ids to blobs the caller already read,
        which those jobs resume from without fetching them again.
        All claims beat from one background thread for the whole batch
        and are released in the ``finally``, whatever happens mid-run;
        each traced record's spans are flushed after the release.
        ``claim`` is the ``(start, duration)`` of a claim the caller made
        itself (``repro resume``); it defaults to this worker's last
        claim round.
        """
        claim = self._last_claim if claim is None else claim
        beat = ClaimHeartbeat(
            self.store, [r.job_id for r in records], self.worker_id,
            self.heartbeat_every,
        ).start()
        outcomes: dict[str, JobOutcome] = {}
        try:
            for record in records:
                self.store.mark_running(record)
            settled = self.runner.run_settled(
                [record.job for record in records],
                # None: each job resumes iff the store holds a resumable
                # checkpoint for it, read once by the job.
                resume=resume,
                extras=[record.extras for record in records],
                checkpoints=[(checkpoints or {}).get(record.job_id) for record in records],
            )
            for record, outcome in zip(records, settled):
                outcomes[record.job_id] = self._settle(record, outcome)
        finally:
            beat.stop()
            release_started = time.time()
            release_quietly(self.store, [r.job_id for r in records],
                            self.worker_id)
            # Flush after the release so the release span makes the
            # trace (trace-blob writes are owner-ungated, so losing the
            # claim first does not block them).
            self._flush_traces(
                records, outcomes, claim,
                release=(release_started,
                         max(0.0, time.time() - release_started)),
            )
        return [outcomes[r.job_id] for r in records if r.job_id in outcomes]

    def _settle(self, record: JobRecord, outcome: JobOutcome) -> JobOutcome:
        """Mark ``record`` by its outcome: completed, parked or failed."""
        registry = get_registry()
        if outcome.ok:
            self.store.mark_completed(record, outcome.result)
            registry.inc("repro_worker_jobs_total", outcome="completed")
            emit_event("job_completed", job_id=record.job_id,
                       worker=self.worker_id,
                       wall_seconds=round(outcome.result.wall_seconds, 3))
        elif outcome.parked is not None:
            # An island job yielded at an exchange boundary: its state
            # is durably checkpointed — requeue it (behind the queue)
            # rather than mark it failed.
            park_record(self.store, record, outcome.parked)
            registry.inc("repro_worker_jobs_total", outcome="parked")
            emit_event("job_parked", job_id=record.job_id,
                       worker=self.worker_id,
                       round=outcome.parked.get("round"),
                       generation=outcome.parked.get("generation"),
                       waiting_on=outcome.parked.get("waiting_on"))
        else:
            self.store.mark_failed(record, outcome.error)
            registry.inc("repro_worker_jobs_total", outcome="failed")
            emit_event("job_failed", job_id=record.job_id,
                       worker=self.worker_id, error=str(outcome.error))
        return outcome

    def _flush_traces(
        self,
        records: list[JobRecord],
        outcomes: dict[str, JobOutcome],
        claim: tuple[float, float],
        release: tuple[float, float],
    ) -> None:
        """Persist each traced record's spans to its durable trace blob.

        Synthesizes the boundary spans only the worker can see — queue
        wait (submit to claim), the claim round, the batch release —
        merges the runner's spans (run / generations / evaluation
        batches), and leaves the root span plus the head-sampling
        decision to :func:`repro.obs.trace.flush_job_trace` (failed
        jobs always persist).  Telemetry: flush failures are swallowed
        and counted, never raised.
        """
        claim_started, claim_seconds = claim
        release_started, release_seconds = release
        for record in records:
            info = trace.trace_context_from_extras(record.extras)
            if info is None:
                continue
            trace_id, root = info["id"], info["root"]
            spans = []
            if record.submitted_at and claim_started > record.submitted_at:
                spans.append(trace.make_span(
                    trace_id, root, "repro.queue.wait",
                    start=record.submitted_at,
                    duration=claim_started - record.submitted_at,
                ))
            if claim_started:
                spans.append(trace.make_span(
                    trace_id, root, "repro.claim",
                    start=claim_started, duration=claim_seconds,
                    worker=self.worker_id,
                ))
            outcome = outcomes.get(record.job_id)
            if outcome is not None:
                spans.extend(outcome.trace_spans)
            spans.append(trace.make_span(
                trace_id, root, "repro.release",
                start=release_started, duration=release_seconds,
                worker=self.worker_id,
            ))
            # Re-read so the root span carries the post-run status (the
            # sampling override keys off "failed"); fall back to the
            # claimed-time record, counted, if the store read fails.
            try:
                current = self.store.get(record.job_id)
            except Exception:  # noqa: BLE001 - telemetry only
                get_registry().inc("repro_errors_total",
                                   event="trace_reread_error")
                current = record
            trace.flush_job_trace(
                self.store, current, spans,
                end=release_started + release_seconds,
            )

    def process(
        self, records: JobRecord | list[JobRecord], on_skipped=None
    ) -> list[JobOutcome] | JobOutcome | None:
        """Claim exactly ``records`` and execute the wins as one batch.

        One claim pass over the given records (see :func:`claim_queued`;
        ``on_skipped(record, reason)`` hears about each one passed over),
        then one :meth:`run_claimed` call, so a ``process`` backend fans
        the batch out.  Returns the settled outcomes of the
        records this worker won, in order.  Given a single
        :class:`JobRecord` instead of a list, returns its outcome, or
        ``None`` when another worker holds the job or it stopped being
        queued before the claim landed.
        """
        single = isinstance(records, JobRecord)
        mine = self._claim_batch(0, candidates=[records] if single else records,
                                 on_skipped=on_skipped)
        outcomes = self.run_claimed(mine) if mine else []
        if single:
            return outcomes[0] if outcomes else None
        return outcomes

    def run_once(self, max_jobs: int = 0) -> list[JobOutcome]:
        """Drain the queue: claim and run batches until none are claimable.

        Jobs claimed by other workers are left alone; the loop exits
        when a full pass over the queue wins no claim, or — with
        ``max_jobs`` set — as soon as that many jobs have run.  Stale
        claims are recovered first, so jobs abandoned by a crashed
        worker re-enter this very drain.

        Parked island jobs neither count toward ``max_jobs`` (they are
        yields, not finishes) nor keep the drain alive on their own:
        once *every* queued job has re-parked at an unchanged exchange
        boundary since the last real progress, the missing migrants
        must come from outside this worker, so spinning here cannot
        help — the drain returns and the poll loop (or a peer worker)
        takes over.  The every-queued-job bar matters because the
        store's claim order is oldest first: one stalled island must
        not mask runnable peers queued behind it.

        Winning an island member also claims the group's still-queued
        siblings, so a group takes one slot and runs in lockstep on this
        worker; only ``max_jobs`` bounds them.  Not so inside
        :meth:`run`, whose drains leave the siblings to a fleet's other
        workers.
        """
        self.store.recover_stale_claims(self.stale_after)
        outcomes: list[JobOutcome] = []
        finished = 0
        parked_sigs: dict[str, tuple[int, int]] = {}
        stalled: set[str] = set()
        bypass_stalled = False
        while True:
            limit = self.capacity
            if max_jobs:
                limit = min(limit, max_jobs - finished)
                if limit <= 0:
                    return outcomes
            if bypass_stalled:
                # The store's oldest-first claim_batch would hand the
                # stalled job straight back; claim around it from the
                # explicit queue walk.
                pool = [record for record in self.store.queued()
                        if record.job_id not in stalled]
                if not pool:
                    return outcomes
                batch = self._claim_batch(limit, candidates=pool)
            else:
                batch = self._claim_batch(limit)
                # A stalled drain's walk around parked records (above)
                # claims no siblings: they would hand it the stalled
                # members straight back.
                room = max_jobs - finished - len(batch) if max_jobs else None
                if not self._polling and batch and (room is None or room > 0):
                    batch += self._claim_siblings(batch, room)
            if not batch:
                return outcomes
            for record in batch:
                # A record parked by an earlier drain carries its last
                # park signature; seeding it here makes an immediate
                # re-park read as "no progress" on the first pass.
                prior = record.extras.get("island_parked")
                if isinstance(prior, dict) and record.job_id not in parked_sigs:
                    parked_sigs[record.job_id] = parked_signature(prior)
            settled = self.run_claimed(batch)
            outcomes.extend(settled)
            progressed = False
            for outcome in settled:
                if outcome.parked is None:
                    finished += 1
                    progressed = True
                    continue
                signature = parked_signature(outcome.parked)
                if parked_sigs.get(outcome.job_id) != signature:
                    progressed = True
                else:
                    stalled.add(outcome.job_id)
                parked_sigs[outcome.job_id] = signature
            if progressed:
                stalled.clear()
                bypass_stalled = False
                continue
            queued_now = {record.job_id for record in self.store.queued()}
            if queued_now <= stalled:
                return outcomes
            bypass_stalled = True

    def run(
        self,
        poll_seconds: float = 2.0,
        max_jobs: int = 0,
        idle_exit: int = 0,
        poll_max: float | None = None,
    ) -> list[JobOutcome]:
        """Poll-and-drain loop for a long-lived worker process.

        Drains the queue, sleeps, repeats.  ``max_jobs`` stops after
        that many executed jobs and ``idle_exit`` after that many
        consecutive empty polls; both default to 0, meaning "no limit"
        — the loop then only ends by external termination.

        With ``poll_max`` set, an idle worker backs off: each
        consecutive empty poll doubles the sleep, from ``poll_seconds``
        up to ``poll_max``, and the first successful claim resets it —
        so an idle fleet stops hammering the shared server or database
        while a busy one still polls at full cadence.

        Each drain claims island members one slot each (see
        :meth:`run_once`): the workers of a fleet split a group and run
        its members in parallel, which one worker holding the whole
        group in lockstep would serialize.
        """
        if poll_seconds <= 0:
            raise WorkerError(f"poll_seconds must be positive, got {poll_seconds}")
        if poll_max is not None and poll_max < poll_seconds:
            raise WorkerError(
                f"poll_max ({poll_max}) must be >= poll_seconds ({poll_seconds})"
            )
        registry = get_registry()
        outcomes: list[JobOutcome] = []
        finished = 0
        idle_polls = 0
        delay = float(poll_seconds)
        self._polling = True
        try:
            while True:
                remaining = max_jobs - finished if max_jobs else 0
                batch = self.run_once(max_jobs=remaining)
                outcomes.extend(batch)
                # Parked island yields are scheduling, not work done: only
                # finished (completed/failed) jobs count toward max_jobs.
                finished += sum(1 for o in batch if o.parked is None)
                self._maybe_push_telemetry(force=bool(batch))
                if max_jobs and finished >= max_jobs:
                    return outcomes
                if batch:
                    idle_polls = 0
                    delay = float(poll_seconds)
                else:
                    idle_polls += 1
                registry.set_gauge("repro_worker_idle_polls", idle_polls)
                registry.set_gauge("repro_worker_poll_delay_seconds", delay)
                if idle_exit and idle_polls >= idle_exit:
                    return outcomes
                time.sleep(delay)
                if not batch and poll_max is not None:
                    widened = min(delay * 2.0, float(poll_max))
                    if widened != delay:
                        emit_event("worker_backoff", worker=self.worker_id,
                                   delay_seconds=widened, idle_polls=idle_polls)
                    delay = widened
        finally:
            self._polling = False

    def _maybe_push_telemetry(self, force: bool = False,
                              min_interval: float = 5.0) -> None:
        """Push this worker's registry snapshot to the store, throttled.

        Only fires when telemetry is enabled and the store exposes the
        push side-channel (:class:`~repro.service.netstore.RemoteJobStore`
        against a ``repro serve`` endpoint); local stores have nothing to
        aggregate into.  ``force`` (after a drained batch) bypasses the
        idle throttle so completed work shows up on the server promptly.
        A failed push is telemetry about telemetry: counted, never raised.
        """
        registry = get_registry()
        if not registry.enabled:
            return
        push = getattr(self.store, "push_telemetry", None)
        if not callable(push):
            return
        now = time.monotonic()
        if not force and now - self._last_telemetry_push < min_interval:
            return
        self._last_telemetry_push = now
        try:
            push(self.worker_id, registry.snapshot())
        except Exception:  # noqa: BLE001 - telemetry must never kill the worker
            registry.inc("repro_errors_total", event="telemetry_push_error")

    def __repr__(self) -> str:
        return f"Worker({self.worker_id!r}, store={self.store!r})"
