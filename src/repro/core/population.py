"""The GA population: a fixed-size collection of scored protections.

The population size never changes during a run (the paper's replacement
is strictly one-for-one: elitism for mutation, deterministic crowding
for crossover), so :class:`Population` is a thin mutable container with
score-ordered views and the summary statistics the paper's figures plot.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from repro.core.individual import Individual
from repro.exceptions import EvolutionError


class Population:
    """Fixed-size, index-addressable collection of individuals."""

    def __init__(self, individuals: Sequence[Individual]) -> None:
        if not individuals:
            raise EvolutionError("population must not be empty")
        self._individuals = list(individuals)
        # Kept in step with the members by ``replace``, the only mutator.
        self._scores = np.array([ind.score for ind in self._individuals], dtype=np.float64)

    # -- container protocol --------------------------------------------

    def __len__(self) -> int:
        return len(self._individuals)

    def __iter__(self) -> Iterator[Individual]:
        return iter(self._individuals)

    def __getitem__(self, index: int) -> Individual:
        return self._individuals[index]

    def replace(self, index: int, individual: Individual) -> None:
        """One-for-one replacement at ``index`` (size is invariant)."""
        if not 0 <= index < len(self._individuals):
            raise EvolutionError(f"index {index} out of range for population of {len(self)}")
        self._individuals[index] = individual
        self._scores[index] = individual.score

    # -- score views ----------------------------------------------------

    def scores(self) -> np.ndarray:
        """Vector of aggregated scores, population order (a copy)."""
        return self._scores.copy()

    def sorted_indices(self) -> np.ndarray:
        """Population indices ordered best (lowest score) first."""
        return np.argsort(self._scores, kind="stable")

    def best(self) -> Individual:
        """The individual with the lowest score."""
        return self._individuals[int(self.sorted_indices()[0])]

    def worst(self) -> Individual:
        """The individual with the highest score."""
        return self._individuals[int(self.sorted_indices()[-1])]

    def leaders(self, count: int) -> list[int]:
        """Indices of the ``count`` best individuals (the paper's leader group)."""
        if count < 1:
            raise EvolutionError(f"leader group size must be >= 1, got {count}")
        return [int(i) for i in self.sorted_indices()[:count]]

    # -- statistics for the paper's figures -----------------------------

    def score_summary(self) -> tuple[float, float, float]:
        """(max, mean, min) of the population scores — one evolution-figure row."""
        scores = self._scores
        return float(scores.max()), float(scores.mean()), float(scores.min())

    def dispersion(self) -> list[tuple[float, float]]:
        """(IL, DR) pairs of all individuals — one dispersion-figure cloud."""
        return [(ind.information_loss, ind.disclosure_risk) for ind in self._individuals]

    def mean_imbalance(self) -> float:
        """Mean |IL - DR| across the population (balance diagnostic, §3.2)."""
        return float(np.mean([ind.evaluation.imbalance() for ind in self._individuals]))

    def snapshot(self) -> list[Individual]:
        """Shallow copy of the member list (individuals are immutable)."""
        return list(self._individuals)
