"""The evolutionary protection engine — paper Algorithm 1.

:class:`EvolutionaryProtector` runs the paper's steady-state GA over a
population of protected files:

1. evaluate the initial population;
2. each generation, flip a fair coin between mutation and crossover
   (both rates 0.5, the paper's heuristic choice);
3. **mutation**: select one individual fitness-proportionally, mutate a
   single gene, and keep the better of parent and offspring (elitism);
4. **crossover**: select one parent uniformly from the ``Nb``-best
   leader group and one fitness-proportionally from the whole
   population, apply 2-point category crossover, and let each offspring
   compete with its parent (deterministic crowding);
5. stop per the configured rule and return the final population with the
   full per-generation history.

The engine is deterministic given its seed, and all fitness work goes
through a single :class:`~repro.metrics.evaluation.ProtectionEvaluator`
whose memoization it shares across generations.
"""

from __future__ import annotations

import copy
import time
from collections.abc import Callable, Sequence
from contextlib import AbstractContextManager, ExitStack, nullcontext
from dataclasses import dataclass

import numpy as np

from repro.core.history import EvolutionHistory, GenerationRecord
from repro.core.individual import Individual
from repro.core.operators import crossover, mutate
from repro.core.population import Population
from repro.core.replacement import deterministic_crowding, elitist_survivor
from repro.core.selection import STRATEGIES, select_index, select_leader
from repro.core.stopping import MaxGenerations, StoppingRule
from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_population
from repro.exceptions import EvolutionError
from repro.metrics.evaluation import ProtectionEvaluator, ProtectionScore
from repro.obs import emit_event, get_registry
from repro.obs.trace import span as trace_span
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class EvolutionResult:
    """Everything a run produced: endpoint populations and the history."""

    initial: list[Individual]
    population: Population
    history: EvolutionHistory

    @property
    def best(self) -> Individual:
        """Best individual of the final population."""
        return self.population.best()

    def initial_dispersion(self) -> list[tuple[float, float]]:
        """(IL, DR) cloud of the initial population (dispersion figures)."""
        return [(ind.information_loss, ind.disclosure_risk) for ind in self.initial]

    def final_dispersion(self) -> list[tuple[float, float]]:
        """(IL, DR) cloud of the final population (dispersion figures)."""
        return self.population.dispersion()


@dataclass(frozen=True)
class EngineCheckpoint:
    """Complete mid-run engine state, sufficient to continue the run.

    Captures the population, the initial snapshot, the history so far,
    the generation counter, and the RNG bit-generator state, plus the
    original file the run protects (a saved checkpoint stores each
    protected file as its difference from it).  Resuming
    from a checkpoint with :meth:`EvolutionaryProtector.resume` replays
    the exact stochastic stream the uninterrupted run would have drawn,
    so an interrupted-and-resumed run is bit-identical to a straight one.
    Serialization to disk lives in :mod:`repro.service.checkpoint`.
    """

    generation: int
    initial: list[Individual]
    individuals: list[Individual]
    records: list[GenerationRecord]
    rng_state: dict
    original: CategoricalDataset | None = None


@dataclass
class RunState:
    """A run between generations: what :meth:`EvolutionaryProtector.capture` snapshots."""

    population: Population
    initial: list[Individual]
    history: EvolutionHistory
    generation: int = 0


@dataclass(frozen=True)
class Proposal:
    """One generation's offspring, drawn but not yet scored.

    ``slots`` are the population slots the offspring compete for, in
    offspring order (mutation: the parent's; crossover: the leader's,
    then the mate's).  ``seconds`` is the time the draws took.
    """

    generation: int
    operator: str
    slots: tuple[int, ...]
    offspring: tuple[CategoricalDataset, ...]
    seconds: float


class EvolutionaryProtector:
    """Paper Algorithm 1 with the paper's operators, selection and replacement.

    Parameters
    ----------
    evaluator:
        Bound fitness stack (original file, attributes, measures, score).
    mutation_probability:
        Probability that a generation applies mutation rather than
        crossover; the paper fixes 0.5.
    leader_fraction:
        Size of the crossover leader group ``Nb`` as a fraction of the
        population (at least 1 individual).
    selection_strategy:
        Parent-selection strategy (see :mod:`repro.core.selection`).
    crowding_pairing:
        ``"index"`` (paper) or ``"distance"`` (classical deterministic
        crowding).
    seed:
        Run seed; fixes every stochastic decision of the run.
    """

    def __init__(
        self,
        evaluator: ProtectionEvaluator,
        mutation_probability: float = 0.5,
        leader_fraction: float = 0.1,
        selection_strategy: str = "proportional",
        crowding_pairing: str = "index",
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if not 0 <= mutation_probability <= 1:
            raise EvolutionError(
                f"mutation_probability must be in [0, 1], got {mutation_probability}"
            )
        if not 0 < leader_fraction <= 1:
            raise EvolutionError(f"leader_fraction must be in (0, 1], got {leader_fraction}")
        if selection_strategy not in STRATEGIES:
            raise EvolutionError(
                f"unknown selection strategy {selection_strategy!r}; choose from {STRATEGIES}"
            )
        if crowding_pairing not in ("index", "distance"):
            raise EvolutionError(
                f"crowding_pairing must be 'index' or 'distance', got {crowding_pairing!r}"
            )
        self.evaluator = evaluator
        self.mutation_probability = float(mutation_probability)
        self.leader_fraction = float(leader_fraction)
        self.selection_strategy = selection_strategy
        self.crowding_pairing = crowding_pairing
        self._rng = as_generator(seed)

    # -- public API -------------------------------------------------------

    def evaluate_initial(self, protections: Sequence[CategoricalDataset]) -> list[Individual]:
        """Score an initial population of protected files.

        One evaluation batch: the whole population goes through
        :meth:`~repro.metrics.evaluation.ProtectionEvaluator.evaluate_many`,
        so duplicates are collapsed, caches are consulted in bulk, and
        the fresh remainder is vectorized (and fanned out when the
        evaluator has an executor).
        """
        require_population(self.evaluator.original, protections)
        evaluations = self.evaluator.evaluate_many(protections)
        return [
            Individual(dataset=p, evaluation=evaluation, origin="initial")
            for p, evaluation in zip(protections, evaluations)
        ]

    def run(
        self,
        initial: Sequence[CategoricalDataset] | Sequence[Individual],
        stopping: StoppingRule | int = 200,
        on_generation: Callable[[GenerationRecord], None] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        """Run the GA until ``stopping`` fires; returns the full result.

        ``initial`` may be raw protected files (scored here) or already
        scored :class:`Individual` objects.  ``stopping`` may be a rule
        or an int shorthand for :class:`MaxGenerations`.  When
        ``checkpoint_every`` is positive, ``on_checkpoint`` receives an
        :class:`EngineCheckpoint` after every that-many generations (and
        once more when the run ends), enabling interrupt-safe restarts.
        When ``migration_every`` is positive, ``on_migration`` fires
        after every that-many generations with the live population, the
        generation number, and a zero-argument capture callable that
        snapshots the full engine state: an island-model exchange hook
        for library callers (the service's jobs step through
        :func:`run_lockstep` directly, and its island members exchange
        between generations there, see :mod:`repro.service.islands`).
        The hook may mutate the population in place (elite injection);
        it must not draw from the run RNG, so seeded runs stay
        bit-identical with or without it.
        """
        stopping = _checked_budget(stopping, checkpoint_every, migration_every)
        return self._loop(
            self.start(self._coerce_initial(initial)),
            stopping=stopping,
            on_generation=on_generation,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            migration_every=migration_every,
            on_migration=on_migration,
        )

    def resume(
        self,
        checkpoint: EngineCheckpoint,
        stopping: StoppingRule | int = 200,
        on_generation: Callable[[GenerationRecord], None] | None = None,
        checkpoint_every: int = 0,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None = None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        """Continue a checkpointed run exactly where it left off.

        Restores the population, the history, the generation counter and
        the RNG stream, then keeps stepping until ``stopping`` fires
        (count-based rules see the restored history, so e.g.
        ``MaxGenerations(200)`` means 200 generations *total*).  Given
        the same evaluator configuration, resume is bit-identical to
        never having stopped.  ``migration_every`` / ``on_migration``
        behave exactly as in :meth:`run`; a hook boundary the checkpoint
        already passed does not re-fire.
        """
        stopping = _checked_budget(stopping, checkpoint_every, migration_every)
        return self._loop(
            self.restore(checkpoint),
            stopping=stopping,
            on_generation=on_generation,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            migration_every=migration_every,
            on_migration=on_migration,
        )

    # -- the generation step, in parts ------------------------------------
    #
    # :func:`run_lockstep` steps engines through these parts: ``run`` /
    # ``resume`` (the Pareto GA's too, whose engine replaces ``propose``
    # and ``survive``) as a list of one, and the service's job executor
    # (:func:`repro.service.runner.execute_group`) a plain job or lone
    # island member as a list of one, a whole island group as a list of
    # ``P`` whose offspring are pooled into one evaluation batch.

    def start(self, individuals: Sequence[Individual]) -> RunState:
        """The state of a fresh run over already scored ``individuals``."""
        if len(individuals) < 2:
            raise EvolutionError("the GA needs a population of at least 2 protections")
        population = Population(individuals)
        return RunState(population, population.snapshot(), EvolutionHistory())

    def restore(self, checkpoint: EngineCheckpoint) -> RunState:
        """The state a checkpoint captured; also restores the RNG stream."""
        if not checkpoint.individuals:
            raise EvolutionError("checkpoint holds an empty population")
        self._rng.bit_generator.state = copy.deepcopy(checkpoint.rng_state)
        return RunState(
            Population(checkpoint.individuals),
            list(checkpoint.initial),
            EvolutionHistory(list(checkpoint.records)),
            checkpoint.generation,
        )

    def capture(self, state: RunState) -> EngineCheckpoint:
        """Snapshot ``state`` and the RNG stream into a checkpoint."""
        return EngineCheckpoint(
            generation=state.generation,
            initial=list(state.initial),
            individuals=state.population.snapshot(),
            records=list(state.history.records),
            rng_state=copy.deepcopy(self._rng.bit_generator.state),
            original=self.evaluator.original,
        )

    def propose(self, population: Population, generation: int) -> Proposal:
        """Draw one generation's offspring: every RNG draw of the generation.

        Flips the operator coin, selects the parent(s) and applies the
        operator.  Scoring and survival are left to :meth:`commit`.
        """
        start = time.perf_counter()
        if self._rng.random() < self.mutation_probability:
            operator = "mutation"
            parent_index = select_index(population, self.selection_strategy, self._rng)
            parent = population[parent_index].dataset
            slots: tuple[int, ...] = (parent_index,)
            offspring: tuple[CategoricalDataset, ...] = (mutate(
                parent,
                self.evaluator.attributes,
                seed=self._rng,
                name=f"gen{generation}:mut({parent.name})",
            ),)
        else:
            operator = "crossover"
            leader_index = select_leader(population, self._leader_count(population), self._rng)
            mate_index = select_index(population, self.selection_strategy, self._rng)
            slots = (leader_index, mate_index)
            offspring = crossover(
                population[leader_index].dataset,
                population[mate_index].dataset,
                self.evaluator.attributes,
                seed=self._rng,
                names=(
                    f"gen{generation}:crossA",
                    f"gen{generation}:crossB",
                ),
            )
        return Proposal(generation, operator, slots, tuple(offspring),
                        time.perf_counter() - start)

    def commit(
        self,
        population: Population,
        proposal: Proposal,
        evaluations: Sequence[ProtectionScore],
        fitness_seconds: float,
    ) -> GenerationRecord:
        """Apply :meth:`survive` to scored offspring; the generation's record.

        Draws nothing from the RNG.
        """
        start = time.perf_counter()
        generation = proposal.generation
        children = tuple(
            Individual(dataset, evaluation, origin=proposal.operator,
                       birth_generation=generation)
            for dataset, evaluation in zip(proposal.offspring, evaluations)
        )
        accepted = self.survive(population, proposal, children)
        max_score, mean_score, min_score = population.score_summary()
        return GenerationRecord(
            generation=generation,
            operator=proposal.operator,
            max_score=max_score,
            mean_score=mean_score,
            min_score=min_score,
            evaluations=len(children),
            fitness_seconds=fitness_seconds,
            other_seconds=proposal.seconds + time.perf_counter() - start,
            accepted=accepted,
        )

    def survive(self, population: Population, proposal: Proposal,
                children: Sequence[Individual]) -> bool:
        """The survivor rule; whether any child entered the population.

        Mutation keeps the better of parent and child (elitism);
        crossover lets each child compete with its parent (deterministic
        crowding).
        """
        parents = tuple(population[slot] for slot in proposal.slots)
        if proposal.operator == "mutation":
            survivors = (elitist_survivor(parents[0], children[0]),)
        else:
            survivors = deterministic_crowding(parents, children, self.crowding_pairing)
        accepted = False
        for slot, survivor, child in zip(proposal.slots, survivors, children):
            if survivor is child:
                population.replace(slot, child)
                accepted = True
        return accepted

    # -- internals ----------------------------------------------------------

    def _loop(
        self,
        state: RunState,
        stopping: StoppingRule,
        on_generation: Callable[[GenerationRecord], None] | None,
        checkpoint_every: int,
        on_checkpoint: Callable[[EngineCheckpoint], None] | None,
        migration_every: int = 0,
        on_migration: Callable[[Population, int, Callable[[], EngineCheckpoint]], None] | None = None,
    ) -> EvolutionResult:
        emit = on_checkpoint if checkpoint_every else None
        migrate = on_migration if migration_every else None
        first = state.generation

        def after(generation: int) -> None:
            if on_generation is not None:
                on_generation(state.history.records[-1])
            if migrate is not None and generation % migration_every == 0:
                # The hook runs before the checkpoint emit so a
                # checkpoint at an exchange boundary captures the
                # post-injection population (resume-consistent).
                migrate(state.population, generation, lambda: self.capture(state))
            if emit is not None and generation % checkpoint_every == 0:
                emit(self.capture(state))

        # The generation's offspring are one evaluation batch (a
        # crossover's two children share intermediates and one PRL fit
        # call).
        run_lockstep([(self, state)], stopping,
                     lambda proposals: self.evaluator.evaluate_many(proposals[0].offspring),
                     after)
        if emit is not None and state.generation > first and state.generation % checkpoint_every != 0:
            # Final partial interval, so a completed run's last checkpoint
            # always matches its returned result.
            emit(self.capture(state))
        return EvolutionResult(initial=state.initial, population=state.population,
                               history=state.history)

    def _coerce_initial(
        self, initial: Sequence[CategoricalDataset] | Sequence[Individual]
    ) -> list[Individual]:
        if not initial:
            raise EvolutionError("initial population must not be empty")
        if isinstance(initial[0], Individual):
            return list(initial)  # type: ignore[arg-type]
        return self.evaluate_initial(initial)  # type: ignore[arg-type]

    def _leader_count(self, population: Population) -> int:
        return max(1, int(round(self.leader_fraction * len(population))))


def _checked_budget(
    stopping: StoppingRule | int, checkpoint_every: int, migration_every: int
) -> StoppingRule:
    """The run's stopping rule, once the budget and both cadences are valid.

    :meth:`EvolutionaryProtector.run` and :meth:`~EvolutionaryProtector.resume`
    call it before any scoring, so a bad argument costs no evaluation.
    """
    if isinstance(stopping, int):
        stopping = MaxGenerations(stopping)
    if checkpoint_every < 0:
        raise EvolutionError(f"checkpoint_every must be >= 0, got {checkpoint_every}")
    if migration_every < 0:
        raise EvolutionError(f"migration_every must be >= 0, got {migration_every}")
    return stopping


def run_lockstep(
    runs: Sequence[tuple[EvolutionaryProtector, RunState]],
    stopping: StoppingRule,
    evaluate: Callable[[list[Proposal]], Sequence[ProtectionScore]],
    after: Callable[[int], None] | None = None,
    enter: Callable[[int], AbstractContextManager] | None = None,
) -> None:
    """The generation loop: step every ``(engine, state)`` together until ``stopping`` fires.

    A solo run (:meth:`EvolutionaryProtector.run` / ``resume``, the
    Pareto GA's too), a service job or an island member running alone is
    a list of one; an island group run whole in one process is a list of ``P``.
    Each generation every engine proposes its offspring, ``evaluate``
    scores all the proposals as one batch (one score per offspring, in
    proposal order), and every engine commits its share; a record's
    ``fitness_seconds`` is its share, by candidate count, of the
    batch's time.  ``stopping`` reads the first run's history (every
    run holds as many records).  ``after(generation)`` fires once every
    run committed the generation; ``enter(i)`` is the trace context run
    ``i``'s ``repro.engine.generation`` span opens in (default: the
    current one).
    """
    while not stopping.should_stop(runs[0][1].history):
        generation = runs[0][1].generation + 1
        with ExitStack() as open_spans:
            spans = []
            proposals = []
            for index, (engine, state) in enumerate(runs):
                # Pure observer: the span reads clocks only when a traced
                # job is active, and never touches the run's RNG streams.
                with enter(index) if enter is not None else nullcontext():
                    spans.append(open_spans.enter_context(
                        trace_span("repro.engine.generation", generation=generation)))
                proposals.append(engine.propose(state.population, generation))
            start = time.perf_counter()
            # Evaluation is pure, so the RNG streams are untouched.
            scores = evaluate(proposals)
            elapsed = time.perf_counter() - start
            offset = 0
            for (engine, state), proposal, span in zip(runs, proposals, spans):
                end = offset + len(proposal.offspring)
                record = engine.commit(state.population, proposal, scores[offset:end],
                                       elapsed * (end - offset) / len(scores))
                _publish(record, span)
                state.history.append(record)
                state.generation = generation
                offset = end
        if after is not None:
            after(generation)


def _publish(record: GenerationRecord, span) -> None:
    """The one telemetry point of a generation, derived from its record.

    Fills the ``repro.engine.generation`` span and, when the registry is
    on, the two engine series and the ``generation`` event.  Pure
    observation of already-computed values: no clock reads and no RNG
    access, so seeded runs stay bit-identical with telemetry on or off.
    """
    span.set(operator=record.operator, evaluations=record.evaluations,
             accepted=record.accepted)
    registry = get_registry()
    if not registry.enabled:
        return
    total_seconds = record.fitness_seconds + record.other_seconds
    registry.observe("repro_engine_generation_seconds", total_seconds,
                     operator=record.operator)
    registry.inc("repro_engine_evaluations_total", record.evaluations,
                 operator=record.operator)
    emit_event(
        "generation",
        generation=record.generation,
        operator=record.operator,
        best=record.min_score,
        mean=record.mean_score,
        evaluations=record.evaluations,
        fitness_seconds=round(record.fitness_seconds, 6),
        total_seconds=round(total_seconds, 6),
        accepted=record.accepted,
    )
