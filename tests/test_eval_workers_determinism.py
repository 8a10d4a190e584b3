"""Determinism regression: ``--eval-workers`` never changes a run.

Evaluation is pure and the engine's RNG stream is untouched by how
fitness batches are executed, so the same seeded run must produce a
bit-identical history and final population with 1, 2 or 4 evaluation
workers, on a thread pool or on any other executor handed to the
evaluator (a process pool here).  This is the guarantee that makes
``eval_workers`` a pure throughput knob (and keeps it out of job
fingerprints).
"""

from __future__ import annotations

import threading

import pytest

from repro.core import EvolutionaryProtector
from repro.metrics import ProtectionEvaluator
from repro.metrics.evaluation import chunk_plan
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.runner import build_evaluator
from repro.service.backends import ThreadBackend, create_backend
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
    @pytest.fixture(autouse=True)
    def fan_out_every_batch(self, monkeypatch):
        # These runs' batches are smaller than a chunk's minimum; split
        # them anyway, so the pooled path is the one compared.
        from repro.metrics import evaluation

        monkeypatch.setattr(evaluation, "MIN_CHUNK", 1)

    def test_thread_workers_bit_identical(self, population):
        adult, protections = population
        serial = run_signature(run_with_executor(adult, protections, None))
        for workers in (1, 2, 4):
            executor = ThreadBackend(max_workers=workers) if workers > 1 else None
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
                    [(r["min_score"], r["evaluations"])
                     for r in result.extras["history"]])

        quiet, loud = self.run_pair(run_job)
        assert quiet == loud


class TestJobLevelWiring:
    def test_job_fingerprint_ignores_eval_workers(self):
        base = ProtectionJob(dataset="flare", seed=1)
        tuned = ProtectionJob(dataset="flare", seed=1, eval_workers=8)
        assert base.fingerprint() == tuned.fingerprint()
        assert base.job_id == tuned.job_id

    def test_job_roundtrip_carries_eval_fields(self):
        job = ProtectionJob(dataset="flare", eval_workers=3)
        assert ProtectionJob.from_dict(job.to_dict()) == job
        assert job.to_config().eval_workers == 3

    def test_a_record_naming_an_eval_backend_still_loads_and_runs(self):
        """Records queued while ``eval_backend`` chose the in-run pool
        type keep their identity and result: the key is dropped."""
        legacy = ProtectionJob(dataset="flare", generations=3, seed=7,
                               eval_workers=2).to_dict()
        legacy["eval_backend"] = "process"
        job = ProtectionJob.from_dict(legacy)
        assert "eval_backend" not in job.to_dict()
        # Computed by the code that still had the field.
        assert job.job_id == "flare-s7-edd8227293"
        assert job.checkpoint_fingerprint() == (
            "bbbbf7ff6fa32ec4e46530d4fa4883ca9e60d9dd49c52a38a6a034274bb7903b")
        (loaded,) = JobRunner().run([job])
        (plain,) = JobRunner().run([ProtectionJob(dataset="flare", generations=3, seed=7)])
        assert loaded.job_id == plain.job_id
        assert loaded.final_scores == plain.final_scores

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


class TestEvalPoolLifetime:
    """A run's scoring pool is shut down when the run ends, so a worker
    draining many jobs does not leave one idle pool behind per job."""

    def test_run_experiment_closes_its_pool(self):
        before = threading.active_count()
        run = run_experiment(ExperimentConfig(dataset="flare", generations=3,
                                              eval_workers=2))
        assert threading.active_count() == before
        # The closed pool comes back on the evaluator's next batch.
        from repro.methods import Pram

        original = run.evaluator.original
        candidates = [Pram(theta=0.2).protect(original, list(run.evaluator.attributes),
                                              seed=1000 + i) for i in range(16)]
        scores = run.evaluator.evaluate_many(candidates)
        assert threading.active_count() == before + 2
        run.evaluator.executor.close()
        assert scores == build_evaluator(
            ExperimentConfig(dataset="flare")).evaluate_many(candidates)

    def test_a_service_job_closes_its_pool(self, monkeypatch):
        from repro.service import runner

        built = []

        def recording(*args):
            built.append(build_evaluator(*args))
            return built[-1]

        monkeypatch.setattr(runner, "build_evaluator", recording)
        before = threading.active_count()
        JobRunner(eval_workers=2).run(
            [ProtectionJob(dataset="flare", generations=3, seed=seed) for seed in (1, 2)])
        # Still referenced here, yet each job's pool is down.
        assert len(built) == 2
        assert all(evaluator.executor._pool is None for evaluator in built)
        assert threading.active_count() == before


class TestChunkPlan:
    """A batch is split only into chunks of at least ``MIN_CHUNK`` (8) candidates."""

    @pytest.mark.parametrize(("size", "workers", "plan"), [
        (0, 4, []),
        (1, 4, [(0, 1)]),
        (7, 4, [(0, 7)]),
        (15, 4, [(0, 15)]),
        (16, 4, [(0, 8), (8, 16)]),
        (17, 4, [(0, 9), (9, 17)]),
        (40, 4, [(0, 10), (10, 20), (20, 30), (30, 40)]),
        (40, 2, [(0, 20), (20, 40)]),
        (100, 1, [(0, 100)]),
    ])
    def test_plan(self, size, workers, plan):
        assert chunk_plan(size, workers) == plan

    def test_one_chunk_scores_in_process_and_more_fan_out(self, small_adult):
        from repro.methods import Pram

        candidates = [Pram(theta=0.05 * (1 + i % 5)).protect(small_adult, ATTRS, seed=i)
                      for i in range(16)]
        serial = ProtectionEvaluator(small_adult, ATTRS).evaluate_many(candidates)

        class Recording:
            max_workers = 4

            def __init__(self) -> None:
                self.chunks: list[int] = []

            def map(self, fn, payloads):
                self.chunks += [len(payload[-1]) for payload in payloads]
                return [fn(payload) for payload in payloads]

        executor = Recording()
        evaluator = ProtectionEvaluator(small_adult, ATTRS, executor=executor)
        assert evaluator.evaluate_many(candidates[:7]) == serial[:7]
        assert executor.chunks == []
        assert evaluator.evaluate_many(candidates[7:] + candidates[:7]) == (
            serial[7:] + serial[:7])
        # The 7 already scored are memo hits; the 9 fresh make one chunk.
        assert executor.chunks == []
        fresh = ProtectionEvaluator(small_adult, ATTRS, executor=executor)
        assert fresh.evaluate_many(candidates) == serial
        assert executor.chunks == [8, 8]
