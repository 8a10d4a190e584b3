"""Distance-based information loss — DBIL.

The most direct utility measure (Domingo-Ferrer & Torra, 2001 — paper
reference [8]): the average distance between each record and its masked
version.  Per-attribute distances are categorical (0/1 nominal,
normalized code difference for ordinal — see
:mod:`repro.linkage.distance`), averaged over attributes and records and
reported as a percentage.  The identity masking scores exactly 0; a
masking that moves every nominal value (or every ordinal value across
the full domain) scores 100.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.linkage.distance import attribute_distance_columns
from repro.metrics.base import CandidateBatch, InformationLossMeasure, batch_chunks


class DistanceBasedLoss(InformationLossMeasure):
    """Mean per-record masking distance, as a percentage."""

    measure_name = "dbil"

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        super().__init__(original, attributes)

    def _compute(self, masked: CategoricalDataset) -> float:
        distances = attribute_distance_columns(self.original, masked, self.attributes)
        return 100.0 * float(distances.mean())

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        """Batched DBIL over a ``(B, n, a)`` distance tensor, chunk by chunk.

        Each candidate's mean is taken over its own contiguous ``(n, a)``
        block — the very array the scalar path computes — so the values
        match it bit for bit.
        """
        codes = batch.codes(self.columns)
        n = self.original.n_records
        means = np.empty(len(batch), dtype=np.float64)
        for chunk in batch_chunks(len(batch), n * len(self.columns)):
            part = codes[:, chunk]
            tensor = np.empty((part.shape[1], n, len(self.columns)), dtype=np.float64)
            for slot, column in enumerate(self.columns):
                domain = self.original.schema.domain(column)
                x = self.original.column(column)[None, :]
                if domain.ordinal and domain.size > 1:
                    tensor[:, :, slot] = np.abs(x - part[slot]) / (domain.size - 1)
                else:
                    tensor[:, :, slot] = (x != part[slot]).astype(np.float64)
            means[chunk] = tensor.reshape(part.shape[1], -1).mean(axis=-1)
        return 100.0 * means
