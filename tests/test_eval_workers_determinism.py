"""Determinism regression: ``--eval-workers`` never changes a run.

Evaluation is pure and the engine's RNG stream is untouched by how
fitness batches are executed, so the same seeded run must produce a
bit-identical history and final population with 1, 2 or 4 evaluation
workers, on the thread and the process pool alike.  This is the
guarantee that makes ``eval_workers`` a pure throughput knob (and keeps
it out of job fingerprints).
"""

from __future__ import annotations

import pytest

from repro.core import EvolutionaryProtector
from repro.metrics import ProtectionEvaluator
from repro.service.backends import create_backend
from repro.service.job import ProtectionJob
from repro.service.runner import JobRunner

ATTRS = ["EDUCATION", "MARITAL-STATUS", "OCCUPATION"]
GENERATIONS = 12
SEED = 17


@pytest.fixture(scope="module")
def population(request):
    adult = request.getfixturevalue("small_adult")
    from repro.methods import Pram, RankSwapping

    protections = [
        Pram(theta=t).protect(adult, ATTRS, seed=i) for i, t in enumerate((0.1, 0.3, 0.5))
    ]
    protections += [RankSwapping(p=p).protect(adult, ATTRS, seed=p) for p in (2, 6)]
    return adult, protections


def run_with_executor(adult, protections, executor):
    evaluator = ProtectionEvaluator(adult, ATTRS, executor=executor)
    engine = EvolutionaryProtector(evaluator, seed=SEED)
    return engine.run(protections, stopping=GENERATIONS)


def run_signature(result):
    """Everything observable about a run except wall-clock timing."""
    history = [
        (r.generation, r.operator, r.max_score, r.mean_score, r.min_score,
         r.evaluations, r.accepted)
        for r in result.history.records
    ]
    population = [
        (ind.dataset.fingerprint(), ind.score, ind.information_loss,
         ind.disclosure_risk)
        for ind in result.population
    ]
    return history, population


class TestEvalWorkersDeterminism:
    def test_thread_workers_bit_identical(self, population):
        adult, protections = population
        serial = run_signature(run_with_executor(adult, protections, None))
        for workers in (1, 2, 4):
            executor = (
                create_backend("thread", max_workers=workers) if workers > 1 else None
            )
            assert run_signature(run_with_executor(adult, protections, executor)) == serial

    def test_process_workers_bit_identical(self, population):
        adult, protections = population
        serial = run_signature(run_with_executor(adult, protections, None))
        executor = create_backend("process", max_workers=2)
        assert run_signature(run_with_executor(adult, protections, executor)) == serial


class TestTelemetryDeterminism:
    """Telemetry is a pure observer: it never moves a seeded run.

    The registry and event log only read clocks and bump numbers — no
    RNG draws, no fingerprint inputs — so the same seeded run must be
    bit-identical with telemetry fully on (registry recording, events
    streaming) and fully off.  This is the contract that lets operators
    flip ``--log-json`` on a production fleet without invalidating
    reproducibility claims.
    """

    def run_pair(self, run):
        """``run("quiet")`` with telemetry off, ``run("loud")`` fully on."""
        import io

        from repro import obs

        obs.disable()
        obs.get_registry().reset()
        obs.configure_events(None)
        try:
            quiet = run("quiet")
            obs.enable()
            obs.configure_events(io.StringIO(), command="test")
            loud = run("loud")
        finally:
            obs.disable()
            obs.get_registry().reset()
            obs.configure_events(None)
        return quiet, loud

    def test_engine_run_bit_identical_with_telemetry(self, population):
        adult, protections = population
        quiet, loud = self.run_pair(
            lambda _: run_signature(run_with_executor(adult, protections, None))
        )
        assert quiet == loud

    def test_worker_run_bit_identical_with_telemetry(self, tmp_path):
        from repro.obs import instrument_store
        from repro.service import SqliteJobStore, Worker

        def run_job(state):
            store = instrument_store(SqliteJobStore(tmp_path / state / "jobs.sqlite"))
            store.submit(ProtectionJob(dataset="flare", generations=4, seed=9))
            (outcome,) = Worker(store, worker_id=f"w-{state}").run_once()
            result = outcome.result
            return (result.final_scores, result.best_score,
                    result.extras["timeline"]["best"],
                    result.extras["timeline"]["evaluations"])

        quiet, loud = self.run_pair(run_job)
        assert quiet == loud


class TestJobLevelWiring:
    def test_job_fingerprint_ignores_eval_workers(self):
        base = ProtectionJob(dataset="flare", seed=1)
        tuned = ProtectionJob(dataset="flare", seed=1, eval_workers=8,
                              eval_backend="process")
        assert base.fingerprint() == tuned.fingerprint()
        assert base.job_id == tuned.job_id

    def test_job_roundtrip_carries_eval_fields(self):
        job = ProtectionJob(dataset="flare", eval_workers=3, eval_backend="process")
        assert ProtectionJob.from_dict(job.to_dict()) == job
        config = job.to_config()
        assert config.eval_workers == 3
        assert config.eval_backend == "process"

    def test_runner_results_identical_across_eval_workers(self):
        job = ProtectionJob(dataset="flare", generations=6, seed=5,
                            population_seed=0)
        serial = JobRunner().run([job])
        threaded = JobRunner(eval_workers=2).run([job.with_seed(5)])
        assert serial[0].final_scores == threaded[0].final_scores
        assert serial[0].best_score == threaded[0].best_score
        stats = threaded[0].extras.get("evaluator_stats")
        assert stats and stats["evaluations"] == serial[0].fresh_evaluations

    def test_runner_rejects_bad_eval_config(self):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError):
            JobRunner(eval_workers=-1)
        with pytest.raises(ServiceError):
            JobRunner(eval_backend="serial")
