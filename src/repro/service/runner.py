"""The job runner: queue of protection jobs, fanned out over a backend.

:class:`JobRunner` is the execution heart of the service layer.  It takes
:class:`~repro.service.job.ProtectionJob` values and runs them through a
pluggable :mod:`execution backend <repro.service.backends>` — serially
or on a process pool — while threading the shared
persistent evaluation cache and the job store (every job's checkpoints
live there) through every worker.  Two fan-out shapes cover the
workloads the experiments need:

* :meth:`JobRunner.run` / :meth:`JobRunner.run_replicates` — multi-seed
  experiment replicates;
* :meth:`JobRunner.run_grid` — method-comparison grids over datasets,
  score functions and seeds.

Every job but an island merge runs on :func:`execute_group`, the one
job executor, which steps a list of jobs together through the engine's
one generation loop.  A plain job is a group of one whose
per-generation hook saves its checkpoint; an island member, alone or
with its whole group, has the exchange step of
:mod:`repro.service.islands` as its hook.

Because the GA is deterministic per seed and cache hits return exactly
the stored computation, every backend produces byte-identical scores for
the same job list.
"""

from __future__ import annotations

import pickle
import time
from collections.abc import Iterator, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace

from repro.core.engine import EvolutionResult, RunState, run_lockstep
from repro.core.stopping import MaxGenerations
from repro.exceptions import ServiceError
from repro.experiments.runner import (
    ExperimentConfig,
    build_engine,
    build_evaluator,
    closing_pool,
    score_initial_population,
)
from repro.obs import emit_event, trace
from repro.service.backends import create_backend
from repro.service.cache import EvaluationCache
from repro.service.checkpoint import CheckpointManager, checkpoint_from_dict, is_resumable
from repro.service.islands import (
    IslandParked,
    _execute_merge_job,
    _member_extras,
    exchange_hook,
    lockstep_groups,
    member_rng,
)
from repro.service.job import JobResult, ProtectionJob

# -- worker functions (module-level so the process backend can pickle them) --


def _job_result(
    job: ProtectionJob, run: RunState | EvolutionResult, stats: dict, wall_seconds: float,
) -> JobResult:
    """``job``'s result from its finished ``run``; ``stats`` are its evaluation counts."""
    best = run.population.best()
    initial_mean, final_mean, percent = run.history.improvement("mean")
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=len(run.history),
        best_score=float(best.score),
        best_information_loss=float(best.information_loss),
        best_disclosure_risk=float(best.disclosure_risk),
        final_scores=tuple(float(ind.score) for ind in run.population),
        mean_improvement_percent=float(percent),
        fresh_evaluations=stats["evaluations"],
        memo_hits=stats["memo_hits"],
        persistent_hits=stats["persistent_hits"],
        wall_seconds=wall_seconds,
        extras={
            "evaluator_stats": stats,
            # The run's history, in the checkpoint's record encoding,
            # rides with the result; ``repro status --job ID`` renders it.
            "history": [r.to_dict() for r in run.history.records],
        },
    )


@contextmanager
def _evaluation_cache(payload: dict) -> Iterator[EvaluationCache | None]:
    """The payload's persistent evaluation cache, open for one run."""
    cache_path = payload.get("cache_path") or ""
    if not cache_path:
        yield None
        return
    cache = EvaluationCache(cache_path,
                            max_entries=payload.get("cache_max_entries") or None)
    try:
        yield cache
    finally:
        cache.close()


def _trace_scope(payload: dict) -> trace.TraceScope | None:
    """The span scope of a job that arrived with trace context, else ``None``.

    Entering it turns span recording on, so a fresh process-pool worker
    records the spans of a job the submit side opted in.
    """
    info = payload.get("trace")
    if not (isinstance(info, dict) and info.get("id")):
        return None
    return trace.TraceScope(str(info["id"]), str(info.get("root") or ""))


def _resume_blob(job: ProtectionJob, payload: dict, store) -> dict | None:
    """The checkpoint blob ``job`` resumes from, or ``None`` to start fresh.

    The payload's ``resume`` is ``True`` (``store`` must hold a
    checkpoint), ``None`` (resume a resumable one, see
    :func:`~repro.service.checkpoint.is_resumable`) or ``False``; an
    island member always reads as ``None``, so it picks its segment up.
    A blob the caller already read (``payload["checkpoint"]``) is not
    fetched again.
    """
    resume = payload.get("resume") if job.islands < 2 else None
    if resume is False:
        return None
    if store is None:
        if resume:
            raise ServiceError("cannot resume without a job store")
        return None
    blob = payload.get("checkpoint")
    if blob is None:
        blob = store.get_checkpoint(job.job_id)
        if blob is None and resume:
            raise ServiceError(
                f"no checkpoint for {job.job_id} in {CheckpointManager(store, job.job_id).path}")
    # Decoding a blob ``resume=True`` insists on raises what is wrong with it.
    return blob if resume or is_resumable(blob, job.checkpoint_fingerprint()) else None


def _cadence(payload: dict) -> int:
    """The payload's ``checkpoint_every``: generations between saves (0 without one)."""
    every = payload.get("checkpoint_every", 0)
    if isinstance(every, bool) or not isinstance(every, int) or every < 0:
        raise ServiceError(f"checkpoint_every must be >= 0, got {every!r}")
    return every


def _execute(payloads: list[dict], spans: list[list[dict]]) -> list[JobResult]:
    """The results of one backend task: a job on its own, or a whole island group.

    Every job's cadence is checked first, so a bad one fails its task
    before anything is scored.  A job on its own goes through
    :func:`_resume_blob`; a whole group's blobs were read and checked
    when it qualified (see
    :func:`~repro.service.islands.lockstep_groups`).  ``spans[i]``
    receives job ``i``'s trace spans, also when it fails or parks.
    """
    for payload in payloads:
        _cadence(payload)
    job, store = payloads[0]["job"], payloads[0].get("store")
    if job.islands >= 2 and store is None:
        raise ServiceError(
            f"island job {job.job_id} needs a job store to exchange through; "
            "run it through a store-connected worker or runner")
    if job.islands >= 2 and job.island_index == job.islands:
        scope = _trace_scope(payloads[0])
        try:
            with trace.entered(scope):
                return [_execute_merge_job(job, payloads[0])]
        finally:
            if scope is not None:
                spans[0].extend(scope.drain())
    if len(payloads) == 1:
        payloads = [{**payloads[0], "checkpoint": _resume_blob(job, payloads[0], store)}]
    return execute_group(payloads, spans)


def _execute_job(payload: dict) -> JobResult:
    """Run one job end to end on its own; raises when it fails or parks.

    ``payload`` is one :meth:`JobRunner._payload`: the
    :class:`~repro.service.job.ProtectionJob` (``"job"``), the job store
    (``"store"``, or ``None``) and the cache / checkpoint / resume
    directives.
    """
    (result,) = _execute([payload], [[]])
    return result


def _execute_settled(payloads: list[dict]) -> list[JobOutcome]:
    """One backend task, each job's outcome captured instead of raised.

    Returns one :class:`JobOutcome` per job, so one bad job cannot
    poison a whole fan-out: siblings keep their results and the caller
    records each job's true outcome.  Trace spans ride back on the
    outcome, in the failure case too, so the spans of a dying run still
    reach the durable trace (failed jobs always flush).  A parked island
    job is a third outcome: ``parked`` carries the yield details so the
    worker requeues the record instead of marking it failed.

    If a whole island group raises, every member runs again on its own,
    through :func:`_execute_job_settled`, from its last durable exchange
    checkpoint: an error then fails only the member it belongs to, and
    its peers park or degrade to solo as in a split group.  Each member
    keeps the spans of both attempts.
    """
    spans: list[list[dict]] = [[] for _ in payloads]
    try:
        results = _execute(payloads, spans)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        if len(payloads) > 1:
            emit_event("island_lockstep_fallback", members=len(payloads),
                       error=f"{type(exc).__name__}: {exc}")
            reruns = [_execute_job_settled({**payload, "checkpoint": None})
                      for payload in payloads]
            return [replace(outcome, trace_spans=(*collected, *outcome.trace_spans))
                    for outcome, collected in zip(reruns, spans)]
        job_id = payloads[0]["job"].job_id
        if isinstance(exc, IslandParked):
            return [JobOutcome(job_id, parked=exc.to_dict(), trace_spans=tuple(spans[0]))]
        return [JobOutcome(job_id, error=f"{type(exc).__name__}: {exc}",
                           trace_spans=tuple(spans[0]))]
    return [JobOutcome(result.job_id, result=result, trace_spans=tuple(collected))
            for result, collected in zip(results, spans)]


def _execute_job_settled(payload: dict) -> JobOutcome:
    """:func:`_execute_settled` of one job on its own."""
    (outcome,) = _execute_settled([payload])
    return outcome


# -- the one executor ---------------------------------------------------------


#: The :meth:`~repro.metrics.evaluation.ProtectionEvaluator.stats` key each
#: ``evaluate_many`` source is counted under.
_CHARGED = {"fresh": "evaluations", "memo": "memo_hits",
            "persistent": "persistent_hits", "dedup": "batch_dedup"}


class _Run:
    """One job of an executor group: engine, run state, trace scope, stats."""

    def __init__(self, job: ProtectionJob, payload: dict, engine) -> None:
        self.job = job
        self.engine = engine
        #: The checkpoint blob the run resumes from; ``None`` starts fresh.
        self.blob: dict | None = payload.get("checkpoint")
        self.state: RunState | None = None
        #: An island member's exchange state, set by its exchange hook.
        self.island: dict | None = None
        # This job's share of the shared evaluator's stats: each
        # distinct candidate is charged to the lowest-index job that
        # submitted it, so the jobs' counts sum to the evaluator's.
        self.stats = {"evaluations": 0, "memo_hits": 0, "persistent_hits": 0,
                      "batch_dedup": 0, "batches": 0, "max_batch_size": 0,
                      "fresh_seconds": 0.0}
        self.scope = _trace_scope(payload)

    def span(self, name: str, **attrs):
        """A span of this job's trace (a no-op one when it is untraced)."""
        with trace.entered(self.scope):
            return trace.span(name, **attrs)

    def mirror(self, spans: list[dict]) -> None:
        """Copy another job's spans of work done for the whole group.

        The copies get fresh ids in this job's trace; a span whose
        parent is not among ``spans`` hangs under this job's open span.
        """
        if self.scope is None or not spans:
            return
        parent = self.scope.stack[-1].span_id if self.scope.stack else self.scope.root_id
        ids = {item["span_id"]: trace.new_span_id() for item in spans}
        for item in spans:
            self.scope.record({**item, "trace_id": self.scope.trace_id,
                               "span_id": ids[item["span_id"]],
                               "parent_id": ids.get(item["parent_id"], parent)})


def execute_group(payloads: list[dict], spans: list[list[dict]]) -> list[JobResult]:
    """Step the jobs of ``payloads`` together; results in payload order.

    The one job executor: ``payloads`` are one job, or every member of
    an island group in island order (see
    :func:`~repro.service.islands.lockstep_groups`), each carrying the
    checkpoint blob it resumes from (``None`` to start fresh).  The
    jobs' engines share one evaluator, and each generation's offspring
    go through it as one pooled batch.  After each generation a hook
    runs: an island group's exchange step
    (:func:`~repro.service.islands.exchange_hook`, which also settles a
    round a resumed member parked on), or a plain job's checkpoint save
    every ``checkpoint_every`` generations and at the last one; both
    write to the payload's job ``store`` (``None`` runs a plain job
    uncheckpointed).  ``spans[i]`` receives job ``i``'s trace spans,
    also when the run fails or parks.  The evaluator's scoring pool is
    shut down when the jobs end.
    """
    jobs = [payload["job"] for payload in payloads]
    head, store = jobs[0], payloads[0].get("store")
    config = head.to_config()
    resumed = payloads[0].get("checkpoint") is not None
    start = time.perf_counter()
    with (_evaluation_cache(payloads[0]) as cache,
          closing_pool(build_evaluator(config, cache)) as evaluator):
        runs = [_Run(job, payload, build_engine(
                    config, evaluator, member_rng(job) if job.islands >= 2 else None))
                for job, payload in zip(jobs, payloads)]
        try:
            with ExitStack() as open_spans:
                for run in runs:
                    island = {"island": run.job.island_index} if run.job.islands >= 2 else {}
                    open_spans.enter_context(run.span(
                        "repro.run", dataset=head.dataset, seed=head.seed, **island,
                        resume=resumed or None))
                _start(runs, config, evaluator)
                hook = exchange_hook if head.islands >= 2 else _checkpoint_hook
                run_lockstep([(run.engine, run.state) for run in runs],
                             MaxGenerations(config.generations),
                             lambda proposals: _evaluate_pooled(runs, evaluator, proposals),
                             hook(runs, payloads[0], store, evaluator.original),
                             lambda index: trace.entered(runs[index].scope))
        finally:
            for run, collected in zip(runs, spans):
                if run.scope is not None:
                    collected.extend(run.scope.drain())
    wall_seconds = time.perf_counter() - start
    results = []
    for run in runs:
        result = _job_result(run.job, run.state, run.stats, wall_seconds)
        if run.island is not None:
            result.extras["island"] = _member_extras(run.job, run.island, run.state.population)
        results.append(result)
    return results


def _start(runs: list[_Run], config: ExperimentConfig, evaluator) -> None:
    """Restore every run from its checkpoint blob, or score the initial population once."""
    if runs[0].blob is not None:
        for run in runs:
            with trace.entered(run.scope):
                checkpoint = checkpoint_from_dict(
                    run.blob, evaluator.original,
                    expected_fingerprint=run.job.checkpoint_fingerprint())
            run.state = run.engine.restore(checkpoint)
        return
    # Every run starts from the same scored population: score it once,
    # charged to the first run.
    lead = runs[0]
    mark = len(lead.scope.spans) if lead.scope is not None else 0
    with trace.entered(lead.scope):
        kept, _ = score_initial_population(config, lead.engine)
    lead.stats = evaluator.stats()
    shared = lead.scope.spans[mark:] if lead.scope is not None else []
    for run in runs[1:]:
        run.mirror(shared)
    for run in runs:
        run.state = run.engine.start(kept)


def _checkpoint_hook(runs: list[_Run], payload: dict, store, reference):
    """A plain job's hook: a save every ``checkpoint_every`` generations and
    at the last one, so a finished job's checkpoint matches its result.

    ``None`` (no hook) without a cadence or a job store.  Saves are gated
    on the payload's claim ``owner``.
    """
    every = _cadence(payload)
    if not every or store is None:
        return None
    (run,) = runs
    manager = CheckpointManager(store, run.job.job_id,
                                fingerprint=run.job.checkpoint_fingerprint(),
                                owner=payload.get("owner"))

    def save(generation: int) -> None:
        if generation % every == 0 or generation == run.job.generations:
            with trace.entered(run.scope):
                manager.save(run.engine.capture(run.state))

    return save


def _evaluate_pooled(runs: list[_Run], evaluator, proposals: list) -> list:
    """Score every run's proposal as one batch, charging each run its share.

    Each distinct candidate counts for the lowest-index run that
    submitted it, and each run's trace gets the batch's
    ``repro.eval.batch`` span under its open generation span.
    """
    batch = [child for proposal in proposals for child in proposal.offspring]
    sources: list[str] = []
    fresh_before = evaluator.fresh_seconds
    started, wall_started = time.perf_counter(), time.time()
    with trace.entered(None):
        scores = evaluator.evaluate_many(batch, sources=sources)
    elapsed = time.perf_counter() - started
    fresh_seconds = evaluator.fresh_seconds - fresh_before
    fresh_total = sources.count("fresh")
    offset = 0
    for run, proposal in zip(runs, proposals):
        end = offset + len(proposal.offspring)
        mine = sources[offset:end]
        fresh = mine.count("fresh")
        stats = run.stats
        for kind in mine:
            stats[_CHARGED[kind]] += 1
        stats["batches"] += 1
        stats["max_batch_size"] = max(stats["max_batch_size"], len(batch))
        if fresh:
            stats["fresh_seconds"] = round(
                stats["fresh_seconds"] + fresh_seconds * fresh / fresh_total, 6)
        with trace.entered(run.scope):
            trace.record_span("repro.eval.batch", elapsed, start=wall_started,
                              size=len(batch), fresh=fresh)
        offset = end
    return scores


@dataclass(frozen=True)
class JobOutcome:
    """Settled outcome of one job: a result, an error, or a park.

    ``trace_spans`` carries the run-side spans (run / generations /
    evaluation batches) back to whoever flushes the job's durable trace
    — populated only for jobs that arrived with trace context.

    ``parked`` (island jobs only) means the job yielded its claim at an
    exchange boundary — checkpointed, not failed; the worker requeues
    it (see :func:`repro.service.islands.park_record`).
    """

    job_id: str
    result: JobResult | None = None
    error: str = ""
    trace_spans: tuple = ()
    parked: dict | None = None

    @property
    def ok(self) -> bool:
        """True when the job produced a result."""
        return self.result is not None


# -- the runner -------------------------------------------------------------


class JobRunner:
    """Runs protection jobs over an execution backend with shared caching.

    Parameters
    ----------
    backend:
        Job-level backend name: ``serial`` or ``process`` (see
        :func:`~repro.service.backends.create_backend`).
    max_workers:
        Pool-size cap for the ``process`` backend.
    cache_path:
        Location of the shared persistent evaluation cache; ``None``
        disables persistent caching (the in-process memo cache of each
        evaluator still applies).
    cache_max_entries:
        LRU bound applied by every worker-opened cache handle; ``None``
        keeps the cache unbounded.  Eviction never changes scores — an
        evicted entry is recomputed, raising only ``fresh_evaluations``.
    checkpoint_every:
        Generations between checkpoint saves into ``store`` for jobs
        whose extras set no ``checkpoint_every`` of their own; 0 (or no
        store) disables.
    eval_workers:
        Default in-run parallel-evaluation setting applied to jobs that
        did not pin their own: with ``eval_workers >= 2``, each run's
        evaluator fans fresh evaluation batches out over that many
        threads.  Evaluation is pure — it changes throughput, never
        results.
    store:
        The job store every checkpoint is saved to and resumed from, and
        the one island-group jobs exchange migrants through.  It rides
        in every task: the serial backend hands the jobs this very
        object, and the ``process`` backend pickles it, so each pool
        worker opens its own connection (a store that cannot be
        pickled is refused here).  Without it jobs run uncheckpointed;
        island jobs fail with a clear error.
    owner:
        The claim owner the caller holds the jobs under.  The store
        refuses (and the runner drops) checkpoint saves once a job's
        claim belongs to someone else; ``None`` saves unconditionally.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        cache_path: str | None = None,
        cache_max_entries: int | None = None,
        checkpoint_every: int = 0,
        eval_workers: int = 0,
        store: object | None = None,
        owner: str | None = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ServiceError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
        if cache_max_entries is not None and cache_max_entries < 1:
            raise ServiceError(
                f"cache_max_entries must be >= 1, got {cache_max_entries}"
            )
        if eval_workers < 0:
            raise ServiceError(f"eval_workers must be >= 0, got {eval_workers}")
        self.backend = create_backend(backend, max_workers)
        self.cache_path = str(cache_path) if cache_path else ""
        self.cache_max_entries = cache_max_entries
        self.checkpoint_every = checkpoint_every
        self.eval_workers = int(eval_workers)
        if store is not None and self.backend.name == "process":
            # A pool worker gets the store by pickle: refuse one it
            # cannot ship now, before any job is claimed.
            try:
                pickle.dumps(store)
            except Exception as exc:  # noqa: BLE001 - any pickling failure
                raise ServiceError(
                    f"the process backend cannot ship job store {store!r} to its "
                    f"workers: {type(exc).__name__}: {exc}") from exc
        self.store = store
        self.owner = owner

    # -- payload plumbing ---------------------------------------------------

    def _payload(
        self, job: ProtectionJob, resume: bool | None, extras: dict,
        checkpoint: dict | None,
    ) -> dict:
        if self.eval_workers and not job.eval_workers:
            # The runner's default for a job that pinned none: a
            # throughput knob outside the fingerprint, so no id moves.
            job = replace(job, eval_workers=self.eval_workers)
        return {
            "job": job,
            "cache_path": self.cache_path,
            "cache_max_entries": self.cache_max_entries,
            # The job's own cadence, checked by its task; the runner's
            # is the default.
            "checkpoint_every": extras.get("checkpoint_every", self.checkpoint_every),
            "resume": resume,
            # A checkpoint blob the caller already read (``repro
            # resume``), so the job does not fetch it again.
            "checkpoint": checkpoint,
            # Trace context crosses the (possibly process) backend
            # boundary inside the payload; None for untraced jobs.
            "trace": trace.trace_context_from_extras(extras),
            # The job store checkpoints and island exchanges go to, and
            # the claim owner saves are gated on.
            "store": self.store,
            "owner": self.owner,
        }

    # -- fan-out entry points ----------------------------------------------

    def run(self, jobs: Sequence[ProtectionJob], resume: bool | None = False) -> list[JobResult]:
        """Execute ``jobs`` over the backend; results in submission order.

        :meth:`run_settled`, raising a :class:`ServiceError` that names
        the first job that failed (or parked) instead of returning its
        outcome.
        """
        outcomes = self.run_settled(jobs, resume=resume)
        for outcome in outcomes:
            if not outcome.ok:
                reason = outcome.error or f"parked at {outcome.parked}"
                raise ServiceError(f"job {outcome.job_id} failed: {reason}")
        return [outcome.result for outcome in outcomes]

    def run_settled(
        self,
        jobs: Sequence[ProtectionJob],
        resume: bool | None = False,
        extras: Sequence[dict | None] | None = None,
        checkpoints: Sequence[dict | None] | None = None,
    ) -> list[JobOutcome]:
        """Execute ``jobs``, settling each one's outcome individually.

        A failing job does not abort the fan-out: every job returns
        either its result or its error, in submission order.  This is
        what :class:`~repro.service.worker.Worker` runs its claims
        through, so completed replicates are never discarded because a
        sibling failed.

        With ``resume=True`` every job must have a checkpoint in the
        runner's ``store``, and execution continues from it instead of
        re-scoring an initial population.  ``resume=None`` (how a worker
        runs its claims) continues each job whose stored checkpoint is
        resumable (see :func:`~repro.service.checkpoint.is_resumable`)
        and starts the others fresh, fetching each blob once.
        ``extras`` (one record's extras or None per job) carries each
        job's ``checkpoint_every`` (the runner's when unset) and trace
        context (``extras["trace"]``), which makes the run record the
        spans each outcome carries back.  ``checkpoints`` (one blob or
        None per job) hands over blobs the caller already read from the
        store.

        Every task is a list of jobs :func:`execute_group` steps
        together: all the members of an island group that can step in
        lockstep (see :func:`~repro.service.islands.lockstep_groups`),
        or one job on its own.
        """
        if not jobs:
            return []
        extras = list(extras) if extras is not None else [None] * len(jobs)
        blobs = list(checkpoints) if checkpoints is not None else [None] * len(jobs)
        groups = (lockstep_groups(list(jobs), blobs, self.store)
                  if self.store is not None else [])
        payloads = [
            self._payload(job, resume, job_extras or {}, blob)
            for job, job_extras, blob in zip(jobs, extras, blobs)
        ]
        # Tasks in batch order: a group at its first member's position.
        grouped = {i: group for group in groups for i in group}
        units = [grouped.get(i, [i]) for i in range(len(jobs))
                 if i == min(grouped.get(i, [i]))]
        tasks = [[payloads[i] for i in unit] for unit in units]
        settled: list[JobOutcome] = [None] * len(jobs)  # type: ignore[list-item]
        for unit, outcomes in zip(units, self.backend.map(_execute_settled, tasks)):
            for i, outcome in zip(unit, outcomes):
                settled[i] = outcome
        return settled

    def run_replicates(self, job: ProtectionJob, seeds: Sequence[int]) -> list[JobResult]:
        """Fan one job out across run seeds (experiment replicates)."""
        if not seeds:
            raise ServiceError("run_replicates needs at least one seed")
        return self.run([job.with_seed(int(seed)) for seed in seeds])

    def grid(
        self,
        datasets: Sequence[str],
        scores: Sequence[str] = ("max",),
        seeds: Sequence[int] = (42,),
        **params: object,
    ) -> list[ProtectionJob]:
        """The method-comparison grid: datasets x score functions x seeds."""
        return [
            ProtectionJob(dataset=dataset, score=score, seed=int(seed), **params)  # type: ignore[arg-type]
            for dataset in datasets
            for score in scores
            for seed in seeds
        ]

    def run_grid(
        self,
        datasets: Sequence[str],
        scores: Sequence[str] = ("max",),
        seeds: Sequence[int] = (42,),
        **params: object,
    ) -> list[JobResult]:
        """Build and execute a comparison grid in one call."""
        return self.run(self.grid(datasets, scores, seeds, **params))

    def __repr__(self) -> str:
        return (
            f"JobRunner(backend={self.backend.name!r}, cache={self.cache_path!r}, "
            f"checkpoint_every={self.checkpoint_every})"
        )
