"""The job runner: queue of protection jobs, fanned out over a backend.

:class:`JobRunner` is the execution heart of the service layer.  It takes
:class:`~repro.service.job.ProtectionJob` values and runs them through a
pluggable :mod:`execution backend <repro.service.backends>` — serially,
on a thread pool, or on a process pool — while threading the shared
persistent evaluation cache and the job store (every job's checkpoints
live there) through every worker.  Two fan-out shapes cover the
workloads the experiments need:

* :meth:`JobRunner.run` / :meth:`JobRunner.run_replicates` — multi-seed
  experiment replicates;
* :meth:`JobRunner.run_grid` — method-comparison grids over datasets,
  score functions and seeds.

Because the GA is deterministic per seed and cache hits return exactly
the stored computation, every backend produces byte-identical scores for
the same job list.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.datasets.registry import load_dataset
from repro.exceptions import ServiceError
from repro.experiments.runner import ExperimentConfig, ExperimentResult, run_experiment
from repro.obs import emit_event, trace
from repro.service.backends import ExecutionBackend, create_backend
from repro.service.cache import EvaluationCache
from repro.service.checkpoint import CheckpointManager
from repro.service.islands import (
    IslandParked,
    lockstep_groups,
    register_store,
    resolve_store,
    store_spec_of,
)
from repro.service.job import JobResult, ProtectionJob

# -- worker functions (module-level so the process backend can pickle them) --


def _job_result(
    job: ProtectionJob, outcome: ExperimentResult, wall_seconds: float,
    stats: dict | None = None,
) -> JobResult:
    """``job``'s result; ``stats`` (default: the evaluator's) are its evaluation counts."""
    best = outcome.result.best
    initial_mean, final_mean, percent = outcome.history.improvement("mean")
    stats = outcome.evaluator.stats() if stats is None else stats
    return JobResult(
        job_id=job.job_id,
        dataset=job.dataset,
        seed=job.seed,
        generations=len(outcome.history),
        best_score=float(best.score),
        best_information_loss=float(best.information_loss),
        best_disclosure_risk=float(best.disclosure_risk),
        final_scores=tuple(float(ind.score) for ind in outcome.result.population),
        mean_improvement_percent=float(percent),
        fresh_evaluations=stats["evaluations"],
        memo_hits=stats["memo_hits"],
        persistent_hits=stats["persistent_hits"],
        wall_seconds=wall_seconds,
        extras={
            "evaluator_stats": stats,
            # The run's history, in the checkpoint's record encoding,
            # rides with the result; ``repro status --job ID`` renders it.
            "history": [r.to_dict() for r in outcome.history.records],
        },
    )


def _run_config(job: ProtectionJob, payload: dict) -> ExperimentConfig:
    """``job``'s run configuration under the payload's ``eval_workers``.

    A runner-level ``eval_workers`` is the worker's default for jobs
    that did not pin their own — evaluation is pure, so the override
    can never change the job's results (or its identity).
    """
    config = job.to_config()
    runner_eval_workers = int(payload.get("eval_workers") or 0)
    if config.eval_workers == 0 and runner_eval_workers:
        config = replace(
            config,
            eval_workers=runner_eval_workers,
            eval_backend=str(payload.get("eval_backend") or "thread"),
        )
    return config


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


def _traced(payload: dict, execute: Callable[[], JobResult]) -> JobResult:
    """``execute()`` inside the payload's trace context, when it has one.

    Arriving trace context re-enables span recording here: a fresh
    process-pool worker starts with tracing off, but the submit side
    already opted this job in.  The spans ride back in the result's
    ``extras["trace_spans"]``; those of a failed or parked attempt stay
    recoverable through ``trace.take_stray_spans()`` in the settled
    wrapper.
    """
    trace_ctx = payload.get("trace")
    if not (isinstance(trace_ctx, dict) and trace_ctx.get("id")):
        return execute()
    with trace.activated(str(trace_ctx["id"]),
                         str(trace_ctx.get("root") or "")) as scope:
        result = execute()
    result.extras["trace_spans"] = scope.collected
    return result


def _execute_job(payload: dict) -> JobResult:
    """Run one job end to end inside the current worker.

    ``payload`` is a plain dict (picklable for the process backend):
    the job's own dict plus cache / checkpoint / resume directives.
    Checkpoints go to the job store the payload names, gated on the
    caller's claim ``owner``.
    """
    job = ProtectionJob.from_dict(payload["job"])
    if job.islands >= 2:
        # Island-group jobs have their own executor: they need the job
        # store (migrant buffers, durable segment checkpoints) and can
        # yield mid-run (IslandParked) — neither fits the plain path.
        from repro.service.islands import execute_island_job

        return execute_island_job(payload)
    checkpoint_every = int(payload.get("checkpoint_every") or 0)
    # True: must resume; None: resume when the stored checkpoint is
    # resumable (see JobRunner.run); False: start fresh.
    resume = payload.get("resume")

    has_store = bool(payload.get("store_ref") or payload.get("store_spec"))
    if resume and not has_store:
        raise ServiceError("cannot resume without a job store")
    manager = (
        CheckpointManager(resolve_store(payload), job.job_id,
                          fingerprint=job.checkpoint_fingerprint(),
                          owner=payload.get("owner"))
        if has_store and (checkpoint_every or resume is not False)
        else None
    )
    resume_from = (
        manager.load(load_dataset(job.dataset), required=bool(resume),
                     payload=payload.get("checkpoint"))
        if manager is not None and resume is not False
        else None
    )

    def execute() -> JobResult:
        with _evaluation_cache(payload) as cache:
            start = time.perf_counter()
            with trace.span(
                "repro.run", dataset=job.dataset, seed=job.seed,
                resume=resume_from is not None or None,
            ):
                outcome = run_experiment(
                    _run_config(job, payload),
                    evaluation_cache=cache,
                    checkpoint_every=checkpoint_every if manager is not None else 0,
                    on_checkpoint=manager.save if manager is not None else None,
                    resume_from=resume_from,
                )
        return _job_result(job, outcome, time.perf_counter() - start)

    return _traced(payload, execute)


def _execute_job_settled(payload: dict) -> dict:
    """Like :func:`_execute_job`, but capture failure instead of raising.

    Returns a plain dict (``result`` xor ``error``) so one bad job cannot
    poison a whole fan-out: siblings keep their results and the caller
    records each job's true outcome.  Trace spans ride back as their own
    key — present in the failure case too, so the spans of a dying run
    still reach the durable trace (failed jobs always flush).

    A parked island job (see :mod:`repro.service.islands`) is a third
    outcome — neither result nor error: the ``parked`` key carries the
    yield details so the worker requeues the record instead of marking
    it failed.
    """
    try:
        result = _execute_job(payload)
        spans = result.extras.pop("trace_spans", [])
        return {"result": result.to_dict(), "error": "", "trace_spans": spans}
    except IslandParked as parked:
        return {
            "result": None,
            "error": "",
            "parked": parked.to_dict(),
            "trace_spans": trace.take_stray_spans(),
        }
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return {
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "trace_spans": trace.take_stray_spans(),
        }


def _execute_lockstep_settled(payloads: list[dict]) -> list[dict]:
    """:func:`_execute_job_settled` for one lockstep island group.

    The group runs as one (see
    :func:`~repro.service.islands.execute_lockstep_group`).  If that
    raises, every member runs again alone, through
    :func:`_execute_job_settled` and the same executor, from its last
    durable exchange checkpoint: an error then fails only the member it
    belongs to, and its peers park or degrade to solo as in a split
    group.  Each member keeps the spans of both attempts.
    """
    from repro.service.islands import execute_lockstep_group

    spans: list[list[dict]] = [[] for _ in payloads]
    try:
        results = execute_lockstep_group(payloads, spans)
    except Exception as exc:  # noqa: BLE001 - rerun member by member
        emit_event("island_lockstep_fallback", members=len(payloads),
                   error=f"{type(exc).__name__}: {exc}")
        settled = [_execute_job_settled({**payload, "checkpoint": None})
                   for payload in payloads]
        for out, collected in zip(settled, spans):
            out["trace_spans"] = collected + out["trace_spans"]
        return settled
    return [{"result": result.to_dict(), "error": "", "trace_spans": collected}
            for result, collected in zip(results, spans)]


def _execute_settled(task: dict | list[dict]) -> dict | list[dict]:
    """One backend task: a job's payload, or a lockstep group's payload list."""
    if isinstance(task, list):
        return _execute_lockstep_settled(task)
    return _execute_job_settled(task)


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
        Backend name (``serial`` / ``thread`` / ``process``) or a
        pre-built :class:`~repro.service.backends.ExecutionBackend`.
    max_workers:
        Pool-size cap for the pooled backends.
    cache_path:
        Location of the shared persistent evaluation cache; ``None``
        disables persistent caching (the in-process memo cache of each
        evaluator still applies).
    cache_max_entries:
        LRU bound applied by every worker-opened cache handle; ``None``
        keeps the cache unbounded.  Eviction never changes scores — an
        evicted entry is recomputed, raising only ``fresh_evaluations``.
    checkpoint_every:
        Generations between checkpoint saves into ``store``; 0 (or no
        store) disables.
    eval_workers / eval_backend:
        Default in-run parallel-evaluation setting applied to jobs that
        did not pin their own ``eval_workers``: with ``eval_workers >=
        2``, each run's evaluator fans fresh evaluation batches out
        over that many ``thread`` or ``process`` workers.  Evaluation
        is pure — these change throughput, never results.
    store:
        The job store every checkpoint is saved to and resumed from, and
        the one island-group jobs exchange migrants through.  In-process
        backends reach the exact live object (weak registry); the
        process backend falls back to reopening from the store's spec.
        Without it jobs run uncheckpointed; island jobs fail with a
        clear error.
    owner:
        The claim owner the caller holds the jobs under.  The store
        refuses (and the runner drops) checkpoint saves once a job's
        claim belongs to someone else; ``None`` saves unconditionally.
    """

    def __init__(
        self,
        backend: str | ExecutionBackend = "serial",
        max_workers: int | None = None,
        cache_path: str | None = None,
        cache_max_entries: int | None = None,
        checkpoint_every: int = 0,
        eval_workers: int = 0,
        eval_backend: str = "thread",
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
        if eval_backend not in ("thread", "process"):
            raise ServiceError(
                f"eval_backend must be 'thread' or 'process', got {eval_backend!r}"
            )
        self.backend = create_backend(backend, max_workers)
        self.cache_path = str(cache_path) if cache_path else ""
        self.cache_max_entries = cache_max_entries
        self.checkpoint_every = checkpoint_every
        self.eval_workers = int(eval_workers)
        self.eval_backend = eval_backend
        self.store = store
        self.owner = owner
        self._store_ref = register_store(store) if store is not None else ""
        self._store_spec, self._store_token = (
            store_spec_of(store) if store is not None else ("", "")
        )

    # -- payload plumbing ---------------------------------------------------

    def _payload(
        self, job: ProtectionJob, resume: bool | None, trace_ctx: dict | None = None,
        checkpoint: dict | None = None,
    ) -> dict:
        return {
            "job": job.to_dict(),
            "cache_path": self.cache_path,
            "cache_max_entries": self.cache_max_entries,
            "checkpoint_every": self.checkpoint_every,
            "resume": resume,
            # A checkpoint blob the caller already read (``repro
            # resume``), so the job does not fetch it again.
            "checkpoint": checkpoint,
            "eval_workers": self.eval_workers,
            "eval_backend": self.eval_backend,
            # Trace context crosses the (possibly process) backend
            # boundary inside the payload; None for untraced jobs.
            "trace": trace_ctx,
            # The job store checkpoints and island exchanges go to: a
            # live-object token for in-process backends plus a
            # reopenable spec fallback, and the claim owner saves are
            # gated on.
            "store_ref": self._store_ref,
            "store_spec": self._store_spec,
            "store_token": self._store_token,
            "owner": self.owner,
        }

    # -- fan-out entry points ----------------------------------------------

    def run(
        self,
        jobs: Sequence[ProtectionJob],
        resume: bool | None = False,
        traces: Sequence[dict | None] | None = None,
    ) -> list[JobResult]:
        """Execute ``jobs`` over the backend; results in submission order.

        With ``resume=True`` every job must have a checkpoint in the
        runner's ``store``, and execution continues from it instead
        of re-scoring an initial population.  ``resume=None`` (how a
        worker runs its claims) continues each job whose stored
        checkpoint is resumable (see
        :func:`~repro.service.checkpoint.is_resumable`) and starts the
        others fresh, fetching each blob once.  ``traces`` (one trace
        context or None per job, from the record's ``extras["trace"]``)
        makes the run record spans; they come back in each result's
        ``extras["trace_spans"]`` for the caller to pop and flush.
        """
        if not jobs:
            return []
        if traces is None:
            traces = [None] * len(jobs)
        payloads = [
            self._payload(job, resume, ctx) for job, ctx in zip(jobs, traces)
        ]
        return self.backend.map(_execute_job, payloads)

    def run_settled(
        self,
        jobs: Sequence[ProtectionJob],
        resume: bool | None = False,
        traces: Sequence[dict | None] | None = None,
        checkpoints: Sequence[dict | None] | None = None,
    ) -> list[JobOutcome]:
        """Execute ``jobs``, settling each one's outcome individually.

        Unlike :meth:`run`, a failing job does not abort the fan-out:
        every job returns either its result or its error, in submission
        order.  This is what :class:`~repro.service.worker.Worker` runs
        its claims through, so completed replicates are never discarded
        because a sibling failed.  ``checkpoints`` (one blob or None per
        job) hands over blobs the caller already read from the store.

        Every member of an island group that can step in lockstep (see
        :func:`~repro.service.islands.lockstep_groups`) runs in one
        backend task that steps the group's engines together; every
        other job is a task of its own, in the same backend map.
        """
        if not jobs:
            return []
        if traces is None:
            traces = [None] * len(jobs)
        blobs = list(checkpoints) if checkpoints is not None else [None] * len(jobs)
        groups = (lockstep_groups(list(jobs), blobs, self.store)
                  if self.store is not None else [])
        payloads = [
            self._payload(job, resume, ctx, blob)
            for job, ctx, blob in zip(jobs, traces, blobs)
        ]
        # Tasks in batch order: a group at its first member's position.
        leading = {min(group): group for group in groups}
        grouped = {i for group in groups for i in group}
        units: list[list[int]] = []
        tasks: list[dict | list[dict]] = []
        for i, payload in enumerate(payloads):
            if i in leading:
                units.append(leading[i])
                tasks.append([payloads[j] for j in leading[i]])
            elif i not in grouped:
                units.append([i])
                tasks.append(payload)
        settled: list[dict] = [{}] * len(jobs)
        for unit, out in zip(units, self.backend.map(_execute_settled, tasks)):
            for i, item in zip(unit, out if isinstance(out, list) else [out]):
                settled[i] = item
        return [
            JobOutcome(
                job_id=job.job_id,
                result=JobResult.from_dict(out["result"]) if out["result"] else None,
                error=out["error"],
                trace_spans=tuple(out.get("trace_spans") or ()),
                parked=out.get("parked"),
            )
            for job, out in zip(jobs, settled)
        ]

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
