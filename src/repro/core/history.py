"""Per-generation run history — the data behind the paper's figures.

The evolution figures (paper Figs 2, 4, 6, 8, 10, 12, 14, 16, 19, 20)
plot the max, mean and min population score per generation; the
dispersion figures plot the (IL, DR) cloud of the initial and final
populations.  :class:`EvolutionHistory` records exactly those series
while the engine runs, plus which operator fired and how long fitness
evaluation took, so every figure and in-text number is reproducible from
one object.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class GenerationRecord:
    """Statistics of the population after one generation."""

    generation: int
    operator: str
    max_score: float
    mean_score: float
    min_score: float
    evaluations: int
    fitness_seconds: float
    other_seconds: float
    accepted: bool

    def to_dict(self) -> dict:
        """The record's one JSON encoding: every field, in declaration order.

        Checkpoints (every format) store their records in exactly
        this form, and finished jobs carry their history in it.
        """
        # The instance dict holds the fields in declaration order, and
        # copying it is far cheaper than ``dataclasses.asdict``.
        return dict(vars(self))

    @classmethod
    def from_dict(cls, payload: dict) -> GenerationRecord:
        """Rebuild a record from :meth:`to_dict`."""
        return cls(**payload)


@dataclass
class EvolutionHistory:
    """Chronological per-generation records plus endpoint summaries."""

    records: list[GenerationRecord] = field(default_factory=list)

    def append(self, record: GenerationRecord) -> None:
        """Add the record of a completed generation."""
        self.records.append(record)

    # -- series for the evolution figures --------------------------------

    @property
    def generations(self) -> list[int]:
        return [r.generation for r in self.records]

    @property
    def max_scores(self) -> list[float]:
        return [r.max_score for r in self.records]

    @property
    def mean_scores(self) -> list[float]:
        return [r.mean_score for r in self.records]

    @property
    def min_scores(self) -> list[float]:
        return [r.min_score for r in self.records]

    def __len__(self) -> int:
        return len(self.records)

    # -- summaries -------------------------------------------------------

    def improvement(self, series: str = "mean") -> tuple[float, float, float]:
        """(initial, final, percent improvement) of one score series.

        ``series`` is ``"max"``, ``"mean"`` or ``"min"``.  Percent
        improvement is the relative decrease, the number the paper
        reports in §3.1/§3.2 (positive = the series went down).
        """
        values = {"max": self.max_scores, "mean": self.mean_scores, "min": self.min_scores}[series]
        if not values:
            raise ValueError("history is empty")
        initial, final = values[0], values[-1]
        percent = 100.0 * (initial - final) / initial if initial else 0.0
        return initial, final, percent

    def operator_timing(self) -> dict[str, dict[str, float]]:
        """Mean per-generation seconds split by operator and phase.

        Reproduces the paper's §3.2 timing observation: fitness seconds
        dominate and crossover generations cost about twice mutation
        generations (4 vs 2 fitness evaluations).
        """
        summary: dict[str, dict[str, float]] = {}
        for operator in ("mutation", "crossover"):
            rows = [r for r in self.records if r.operator == operator]
            if not rows:
                continue
            fitness = float(np.mean([r.fitness_seconds for r in rows]))
            other = float(np.mean([r.other_seconds for r in rows]))
            summary[operator] = {
                "generations": float(len(rows)),
                "fitness_seconds": fitness,
                "other_seconds": other,
                "total_seconds": fitness + other,
            }
        return summary

    def acceptance_rate(self) -> float:
        """Fraction of generations whose offspring entered the population."""
        if not self.records:
            return 0.0
        return float(np.mean([r.accepted for r in self.records]))
