"""Pareto-front multi-objective optimization (paper future-work extension).

The paper scalarizes (IL, DR) into one score and notes in its
conclusions that other aggregations are worth exploring.  The natural
end point of that line is to drop scalarization entirely and optimize
the two objectives as a Pareto problem: a protection dominates another
when it is no worse on both IL and DR and strictly better on one.

This module supplies the standard machinery — fast non-dominated sorting
and crowding distance (the NSGA-II components) — plus
:class:`ParetoEvolutionaryProtector`, a steady-state engine that reuses
the paper's operators and selection flavour but replaces elitist
replacement with dominance-based acceptance: an offspring enters the
population by replacing the most crowded individual of the worst front
whenever it is not dominated by its parent.  It is the paper engine
with its own draws and survivor rule, so it runs on the one generation
loop (:func:`~repro.core.engine.run_lockstep`) and its generations emit
the standard records, spans and ``generation`` events.

The result of a run is the full Pareto front of protections, from which
an agency can pick its preferred IL/DR trade-off after the fact.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.engine import EvolutionaryProtector, Proposal
from repro.core.individual import Individual
from repro.core.operators import crossover, mutate
from repro.core.population import Population
from repro.data.dataset import CategoricalDataset
from repro.exceptions import EvolutionError
from repro.metrics.evaluation import ProtectionEvaluator
from repro.obs import emit_event, get_registry


def dominates(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Pareto dominance for minimization: a no worse everywhere, better somewhere."""
    return a[0] <= b[0] and a[1] <= b[1] and (a[0] < b[0] or a[1] < b[1])


def non_dominated_sort(objectives: np.ndarray) -> list[np.ndarray]:
    """Fast non-dominated sorting; returns fronts as index arrays.

    ``objectives`` is an ``(n, m)`` matrix, minimized component-wise.
    Front 0 is the Pareto-optimal set; each later front is optimal once
    earlier fronts are removed.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EvolutionError("objectives must be a non-empty (n, m) matrix")
    n = points.shape[0]
    # dominated[i, j] = i dominates j.
    no_worse = (points[:, None, :] <= points[None, :, :]).all(axis=2)
    strictly_better = (points[:, None, :] < points[None, :, :]).any(axis=2)
    domination = no_worse & strictly_better

    fronts: list[np.ndarray] = []
    remaining = np.ones(n, dtype=bool)
    counts = domination.sum(axis=0)
    while remaining.any():
        # Dominance is a strict partial order (NaN points dominate and
        # are dominated by nothing), so some remaining point is minimal.
        current = np.where(remaining & (counts == 0))[0]
        fronts.append(current)
        remaining[current] = False
        counts -= domination[current].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of each point within one front.

    Boundary points get infinite distance; interior points get the sum of
    normalized neighbour gaps per objective.  Larger = less crowded.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise EvolutionError("objectives must be a non-empty (n, m) matrix")
    n, m = points.shape
    distance = np.zeros(n)
    if n <= 2:
        return np.full(n, np.inf)
    for objective in range(m):
        order = np.argsort(points[:, objective], kind="stable")
        lo = points[order[0], objective]
        hi = points[order[-1], objective]
        distance[order[0]] = np.inf
        distance[order[-1]] = np.inf
        span = hi - lo
        if span <= 0:
            continue
        gaps = (points[order[2:], objective] - points[order[:-2], objective]) / span
        distance[order[1:-1]] += gaps
    return distance


@dataclass(frozen=True)
class ParetoResult:
    """Outcome of a Pareto run: final population and its first front."""

    population: list[Individual]
    front: list[Individual]
    generations: int
    front_sizes: list[int]

    def front_objectives(self) -> list[tuple[float, float]]:
        """(IL, DR) pairs of the Pareto front, sorted by IL."""
        return sorted(_pair(ind) for ind in self.front)


class ParetoEvolutionaryProtector(EvolutionaryProtector):
    """Steady-state Pareto GA over protections, reusing the paper's operators.

    Each generation mutates or crosses (probability ``mutation_probability``)
    parents drawn randomly, preferring the first front; offspring are
    accepted if they are not dominated by their parent, replacing the
    most crowded member of the last front.  Only the draws
    (:meth:`propose`) and the survivor rule (:meth:`survive`) differ
    from the paper engine: a run steps the one generation loop,
    :func:`~repro.core.engine.run_lockstep`, so every generation commits
    a standard record and opens a ``repro.engine.generation`` span.
    """

    def __init__(
        self,
        evaluator: ProtectionEvaluator,
        mutation_probability: float = 0.5,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__(evaluator, mutation_probability=mutation_probability, seed=seed)
        self._front_sizes: list[int] = []

    def run(  # type: ignore[override]
        self,
        initial: Sequence[CategoricalDataset],
        generations: int = 200,
    ) -> ParetoResult:
        """Evolve ``initial`` for ``generations`` steady-state steps."""
        self._front_sizes = []
        population = super().run(initial, generations).population.snapshot()
        front = non_dominated_sort(_objectives(population))[0]
        return ParetoResult(
            population=population,
            front=[population[int(i)] for i in front],
            generations=generations,
            front_sizes=self._front_sizes,
        )

    def propose(self, population: Population, generation: int) -> Proposal:
        """Draw one generation's offspring from front-preferring parents."""
        start = time.perf_counter()
        fronts = non_dominated_sort(_objectives(population))
        front_size = int(fronts[0].size)
        self._front_sizes.append(front_size)
        registry = get_registry()
        if registry.enabled:
            registry.set_gauge("repro_pareto_front_size", front_size)
            emit_event("pareto_generation", generation=generation, front_size=front_size)

        parent_index = self._select_parent_index(fronts)
        parent = population[parent_index].dataset
        attributes = self.evaluator.attributes
        if self._rng.random() < self.mutation_probability:
            operator = "mutation"
            slots: tuple[int, ...] = (parent_index,)
            offspring: tuple[CategoricalDataset, ...] = (mutate(
                parent, attributes, seed=self._rng, name=f"pareto:gen{generation}:mut"),)
        else:
            operator = "crossover"
            mate_index = self._select_parent_index(fronts)
            slots = (parent_index, mate_index)
            offspring = crossover(
                parent, population[mate_index].dataset, attributes, seed=self._rng,
                names=(f"pareto:gen{generation}:xA", f"pareto:gen{generation}:xB"),
            )
        return Proposal(generation, operator, slots, tuple(offspring),
                        time.perf_counter() - start)

    def survive(self, population: Population, proposal: Proposal,
                children: Sequence[Individual]) -> bool:
        """Dominance acceptance; whether any child entered the population.

        A child its parent dominates dies; every other child replaces
        the most crowded member of the then-worst front.
        """
        parent = population[proposal.slots[0]]
        accepted = False
        for child in children:
            if not dominates(_pair(parent), _pair(child)):
                population.replace(_replacement_index(population), child)
                accepted = True
        return accepted

    def _select_parent_index(self, fronts: list[np.ndarray]) -> int:
        # Prefer the first front with probability 1/2, else uniform overall.
        if self._rng.random() < 0.5:
            front = fronts[0]
            return int(front[self._rng.integers(front.size)])
        total = sum(front.size for front in fronts)
        return int(self._rng.integers(total))


def _pair(individual: Individual) -> tuple[float, float]:
    return individual.information_loss, individual.disclosure_risk


def _objectives(population: Iterable[Individual]) -> np.ndarray:
    return np.array([_pair(ind) for ind in population], dtype=np.float64)


def _replacement_index(population: Population) -> int:
    """The most crowded member of the worst front."""
    objectives = _objectives(population)
    last = non_dominated_sort(objectives)[-1]
    distances = crowding_distance(objectives[last])
    return int(last[int(np.argmin(distances))])
