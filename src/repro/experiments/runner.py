"""One-call experiment runner shared by the paper's three experiments.

An :class:`ExperimentConfig` nails down everything a paper run needs —
dataset, score function, GA parameters, run length, seeds, and the
robustness truncation of experiment 3 — and :func:`run_experiment`
executes it, returning an :class:`ExperimentResult` that carries the
evolution result plus the figure-ready series.

Run lengths default to a laptop-scale budget; set the environment
variable ``REPRO_FULL=1`` (or pass ``generations`` explicitly) for
longer, closer-to-paper runs.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.config import ExperimentConfig
from repro.core.engine import EngineCheckpoint, EvolutionaryProtector, EvolutionResult
from repro.core.individual import Individual
from repro.datasets.registry import load_dataset, protected_attributes
from repro.exceptions import ExperimentError
from repro.experiments.population_builder import build_initial_population
from repro.metrics.evaluation import ProtectionEvaluator, ScoreCache
from repro.metrics.score import score_function_by_name

if TYPE_CHECKING:
    from repro.service.job import JobResult


def default_generations(fallback: int = 300) -> int:
    """Generation budget: ``fallback`` normally, 5x under ``REPRO_FULL=1``."""
    if os.environ.get("REPRO_FULL", "") == "1":
        return fallback * 5
    return fallback


@dataclass(frozen=True)
class ExperimentResult:
    """A finished run plus the context needed to report it."""

    config: ExperimentConfig
    result: EvolutionResult
    evaluator: ProtectionEvaluator
    dropped: list[Individual] = field(default_factory=list)

    @property
    def history(self):
        return self.result.history

    def summary_rows(self) -> list[list[object]]:
        """max/mean/min initial -> final rows, the paper's in-text numbers."""
        rows = []
        for series in ("max", "mean", "min"):
            initial, final, percent = self.history.improvement(series)
            rows.append([series, initial, final, percent])
        return rows


def drop_best(
    individuals: list[Individual], fraction: float
) -> tuple[list[Individual], list[Individual]]:
    """Remove the best ``fraction`` of individuals by score (experiment 3).

    Returns ``(kept, dropped)``.  At least two individuals are always
    kept so the GA remains runnable.
    """
    if not 0 <= fraction < 1:
        raise ExperimentError(f"fraction must be in [0, 1), got {fraction}")
    if fraction == 0:
        return list(individuals), []
    ordered = sorted(individuals, key=lambda ind: ind.score)
    n_drop = min(int(round(len(ordered) * fraction)), max(0, len(ordered) - 2))
    return ordered[n_drop:], ordered[:n_drop]


def run_experiment(
    config: ExperimentConfig,
    evaluation_cache: ScoreCache | None = None,
    checkpoint_every: int = 0,
    on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
    resume_from: EngineCheckpoint | None = None,
    seed: int | np.random.Generator | None = None,
) -> ExperimentResult:
    """Execute one configured paper run end to end.

    ``evaluation_cache`` is handed to the evaluator as its persistent
    score store, so repeated runs skip already-scored candidates.
    ``checkpoint_every`` / ``on_checkpoint`` forward to the engine's
    checkpoint hook, and ``resume_from`` continues a checkpointed run
    instead of building and scoring a fresh initial population (the
    individuals dropped by ``drop_best_fraction`` are not part of a
    checkpoint, so a resumed result reports none).  ``seed`` overrides
    ``config.seed`` as the engine's run seed.  Service jobs, plain and
    island alike, are built through the same construction path
    (:func:`build_evaluator`, :func:`build_engine`,
    :func:`score_initial_population`) and step through the engine's
    generation loop in the job executor,
    :func:`repro.service.runner.execute_group`.
    """
    evaluator = build_evaluator(config, evaluation_cache)
    engine = build_engine(config, evaluator, seed)
    hooks = dict(
        stopping=config.generations,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
    with closing_pool(evaluator):
        if resume_from is not None:
            result, dropped = engine.resume(resume_from, **hooks), []
        else:
            kept, dropped = score_initial_population(config, engine)
            result = engine.run(kept, **hooks)
    return ExperimentResult(config=config, result=result, evaluator=evaluator,
                            dropped=dropped)


# -- the construction path, shared with the service's job executor ---------


def build_evaluator(
    config: ExperimentConfig, evaluation_cache: ScoreCache | None = None
) -> ProtectionEvaluator:
    """The run's fitness stack: the paper's measures on ``config.dataset``."""
    original = load_dataset(config.dataset)
    executor = None
    if config.eval_workers >= 2:
        # Imported lazily: the service layer sits above this module.
        from repro.service.backends import ThreadBackend

        executor = ThreadBackend(max_workers=config.eval_workers)
    return ProtectionEvaluator(
        original,
        protected_attributes(config.dataset),
        score_function=score_function_by_name(config.score),
        persistent_cache=evaluation_cache,
        executor=executor,
    )


@contextmanager
def closing_pool(evaluator: ProtectionEvaluator) -> Iterator[ProtectionEvaluator]:
    """Shut :func:`build_evaluator`'s scoring pool down when the run ends.

    Closing is idempotent and the pool's next map re-creates it, so the
    evaluator stays usable after the run.
    """
    try:
        yield evaluator
    finally:
        if evaluator.executor is not None:
            evaluator.executor.close()


def build_engine(
    config: ExperimentConfig,
    evaluator: ProtectionEvaluator,
    seed: int | np.random.Generator | None = None,
) -> EvolutionaryProtector:
    """The GA over ``evaluator``; ``seed`` overrides ``config.seed``."""
    return EvolutionaryProtector(
        evaluator,
        mutation_probability=config.mutation_probability,
        leader_fraction=config.leader_fraction,
        selection_strategy=config.selection_strategy,
        seed=config.seed if seed is None else seed,
    )


def score_initial_population(
    config: ExperimentConfig, engine: EvolutionaryProtector
) -> tuple[list[Individual], list[Individual]]:
    """Build and score the initial population; ``(kept, dropped)`` per experiment 3."""
    protections = build_initial_population(
        engine.evaluator.original, dataset_name=config.dataset, seed=config.population_seed
    )
    return drop_best(engine.evaluate_initial(protections), config.drop_best_fraction)


def run_replicates(
    config: ExperimentConfig,
    seeds: Sequence[int],
    backend: str = "serial",
    max_workers: int | None = None,
    cache_path: str | None = None,
) -> "list[JobResult]":
    """Run one configuration under several seeds through the job service.

    Routes the replicates through :class:`repro.service.runner.JobRunner`
    (imported lazily — the service layer sits above this module), so the
    fan-out honours the chosen execution backend and, when ``cache_path``
    is given, shares one persistent evaluation cache across replicates.
    """
    from repro.service.job import ProtectionJob
    from repro.service.runner import JobRunner

    runner = JobRunner(backend=backend, max_workers=max_workers, cache_path=cache_path)
    return runner.run_replicates(ProtectionJob.from_config(config), seeds)
