"""Measure interfaces.

A *bound measure* is constructed once against the original file and the
quasi-identifier attributes, precomputing whatever geometry it needs
(contingency subsets, rank positions, frequency tables), and is then
evaluated against many masked candidates — exactly the access pattern of
the GA, which scores thousands of protected files of the same original.

All measures return percentages in ``[0, 100]``: 0 is the identity
masking for information loss and "no record re-identified / no value
leaked" for disclosure risk.

The protocol is *batch-first*: :meth:`BoundMeasure.compute_many` scores
a whole sequence of masked candidates in one call, and vectorized
measures implement :meth:`BoundMeasure._compute_many` to share per-batch
intermediates (rank tables, stacked code tensors, one PRL fit call)
instead of recomputing them per candidate.  The scalar
:meth:`BoundMeasure.compute` remains the convenience form; a measure
that only implements the scalar ``_compute`` gets a looping batch
fallback, and a batch-first measure may implement ``_compute`` as a
one-line delegation to its batch kernel.  Either way the contract is
exact equality: ``compute_many(batch)[i] == compute(batch[i])``, bit
for bit — batching changes throughput, never results.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import MetricError


class BoundMeasure(ABC):
    """A measure bound to one original file and attribute set."""

    #: Short name used in component breakdowns (e.g. ``"ctbil"``).
    measure_name: str = "abstract"

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        if not attributes:
            raise MetricError(f"{self.measure_name}: needs at least one attribute")
        self.original = original
        self.attributes = tuple(attributes)
        self.columns = tuple(require_attributes(original, attributes))

    @abstractmethod
    def _compute(self, masked: CategoricalDataset) -> float:
        """Measure value for ``masked`` (already validated); in [0, 100]."""

    def _compute_many(self, batch: Sequence[CategoricalDataset]) -> np.ndarray:
        """Measure values for a validated batch; default loops ``_compute``.

        Vectorized measures override this to compute shared intermediates
        once per batch.  Implementations must be candidate-independent:
        element ``i`` must equal ``_compute(batch[i])`` exactly.
        """
        return np.array([float(self._compute(masked)) for masked in batch],
                        dtype=np.float64)

    def _clamp(self, value: float) -> float:
        # Clamp floating-point drift; genuinely out-of-range or non-finite
        # values are bugs in the measure and must not leak into fitness.
        if not math.isfinite(value) or value < -1e-6 or value > 100.0 + 1e-6:
            raise MetricError(f"{self.measure_name}: value {value} outside [0, 100]")
        return min(100.0, max(0.0, value))

    def compute(self, masked: CategoricalDataset) -> float:
        """Measure value in ``[0, 100]`` for a masked pair of the original."""
        require_masked_pair(self.original, masked)
        return self._clamp(float(self._compute(masked)))

    def compute_many(self, batch: Sequence[CategoricalDataset]) -> np.ndarray:
        """Measure values in ``[0, 100]`` for a batch of masked pairs.

        Element ``i`` equals ``compute(batch[i])`` exactly; an empty
        batch returns an empty array.
        """
        candidates = list(batch)
        for masked in candidates:
            require_masked_pair(self.original, masked)
        if not candidates:
            return np.empty(0, dtype=np.float64)
        values = np.asarray(self._compute_many(candidates), dtype=np.float64)
        if values.shape != (len(candidates),):
            raise MetricError(
                f"{self.measure_name}: batch kernel returned shape {values.shape} "
                f"for {len(candidates)} candidates"
            )
        return np.array([self._clamp(float(v)) for v in values], dtype=np.float64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(attributes={list(self.attributes)})"


class InformationLossMeasure(BoundMeasure):
    """Marker base class: how much analytic utility the masking destroyed."""


class DisclosureRiskMeasure(BoundMeasure):
    """Marker base class: how much an intruder learns from the masked file."""
