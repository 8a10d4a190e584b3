"""Fitness score aggregation — the paper's Equations 1 and 2.

Information loss and disclosure risk are competing objectives; the GA
needs one scalar.  The paper studies two aggregations:

* :class:`MeanScore` (Eq. 1) — ``(IL + DR) / 2``.  Permits a perfect
  trade-off: (IL=0, DR=40) scores the same as (IL=20, DR=20).
* :class:`MaxScore` (Eq. 2) — ``max(IL, DR)``.  Penalizes unbalanced
  protections: one bad component means a bad score, which the paper
  shows drives final populations toward balanced (IL, DR) pairs.

:class:`WeightedScore` generalizes Eq. 1 to arbitrary convex weights
(used by the score-function ablation benchmark), and
:class:`PowerMeanScore` interpolates continuously between the mean
(``exponent=1``) and the max (``exponent -> inf``).
Lower scores are always better.

:class:`ProtectionScore` is what the evaluator returns for one
candidate.  It lives here, re-exported by :mod:`repro.metrics.evaluation`,
because this module imports no numpy: the persistent cache
(:mod:`repro.service.cache`) and ``repro cache`` read and write scores
without the measure stack.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.exceptions import MetricError


@dataclass(frozen=True)
class ProtectionScore:
    """Full evaluation of one masked candidate."""

    information_loss: float
    disclosure_risk: float
    score: float
    il_components: dict[str, float] = field(default_factory=dict)
    dr_components: dict[str, float] = field(default_factory=dict)

    def is_better_than(self, other: "ProtectionScore") -> bool:
        """Strictly better (lower) aggregated score than ``other``."""
        return self.score < other.score

    def imbalance(self) -> float:
        """Absolute gap between IL and DR — the balance the paper optimizes."""
        return abs(self.information_loss - self.disclosure_risk)

    def __str__(self) -> str:
        return (
            f"score={self.score:.2f} (IL={self.information_loss:.2f}, "
            f"DR={self.disclosure_risk:.2f})"
        )


class ScoreFunction(ABC):
    """Scalarization of an (information loss, disclosure risk) pair."""

    #: Short name used in reports (e.g. ``"mean"``).
    score_name: str = "abstract"

    @abstractmethod
    def combine(self, information_loss: float, disclosure_risk: float) -> float:
        """Aggregate the pair into a single score (lower is better)."""

    def __call__(self, information_loss: float, disclosure_risk: float) -> float:
        return self.combine(information_loss, disclosure_risk)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MeanScore(ScoreFunction):
    """Paper Eq. 1: the arithmetic mean of IL and DR."""

    score_name = "mean"

    def combine(self, information_loss: float, disclosure_risk: float) -> float:
        return (information_loss + disclosure_risk) / 2.0


class MaxScore(ScoreFunction):
    """Paper Eq. 2: the maximum of IL and DR."""

    score_name = "max"

    def combine(self, information_loss: float, disclosure_risk: float) -> float:
        return max(information_loss, disclosure_risk)


class WeightedScore(ScoreFunction):
    """Convex combination ``w * IL + (1 - w) * DR``."""

    score_name = "weighted"

    def __init__(self, information_loss_weight: float = 0.5) -> None:
        if not 0 <= information_loss_weight <= 1:
            raise MetricError(
                f"information_loss_weight must be in [0, 1], got {information_loss_weight}"
            )
        self.information_loss_weight = float(information_loss_weight)

    def combine(self, information_loss: float, disclosure_risk: float) -> float:
        w = self.information_loss_weight
        return w * information_loss + (1.0 - w) * disclosure_risk

    def __repr__(self) -> str:
        return f"WeightedScore(information_loss_weight={self.information_loss_weight})"


class PowerMeanScore(ScoreFunction):
    """Power mean of IL and DR: mean at exponent 1, max as exponent grows."""

    score_name = "power_mean"

    def __init__(self, exponent: float = 4.0) -> None:
        if exponent < 1:
            raise MetricError(f"exponent must be >= 1, got {exponent}")
        self.exponent = float(exponent)

    def combine(self, information_loss: float, disclosure_risk: float) -> float:
        p = self.exponent
        return ((information_loss**p + disclosure_risk**p) / 2.0) ** (1.0 / p)

    def __repr__(self) -> str:
        return f"PowerMeanScore(exponent={self.exponent})"


def score_function_by_name(name: str) -> ScoreFunction:
    """Build a default-parameterized score function from its short name."""
    functions = {
        "mean": MeanScore,
        "max": MaxScore,
        "weighted": WeightedScore,
        "power_mean": PowerMeanScore,
    }
    try:
        return functions[name]()
    except KeyError:
        raise MetricError(f"unknown score function {name!r}; choose from {sorted(functions)}") from None
