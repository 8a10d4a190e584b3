"""Entropy-based information loss — EBIL (Kooiman et al., 1998).

EBIL views the masking as a noisy channel from original to published
categories.  From the (original, masked) pair we estimate the empirical
joint distribution of each protected attribute and measure the
*conditional entropy of the original value given the published value*:

    EBIL_attr = sum_j  n_j * H( X_orig | X_masked = j )

where ``n_j`` counts records published with category ``j``.  When the
published value determines the original (identity masking, or any
deterministic bijective recoding) the conditional entropy is 0; when the
published value carries no information the entropy reaches ``log2 k``
per record.  We normalize by ``n * log2 k`` and average over attributes,
reporting a percentage.

Attributes with a single category carry no information to lose and
contribute 0.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.metrics.base import CandidateBatch, InformationLossMeasure, batch_chunks


def conditional_entropy_bits(joint_counts: np.ndarray) -> float:
    """Total conditional entropy ``sum_j n_j H(row | col=j)`` in bits.

    ``joint_counts[i, j]`` counts records with original category ``i``
    published as ``j``.  Returns the *total* over records (not the mean).
    """
    counts = np.asarray(joint_counts, dtype=np.float64)
    column_totals = counts.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(column_totals > 0, counts / column_totals, 0.0)
        log_terms = np.where(conditional > 0, np.log2(conditional), 0.0)
    per_column_entropy = -(conditional * log_terms).sum(axis=0)
    return float((column_totals * per_column_entropy).sum())


def _conditional_entropy_bits_many(joint_counts: np.ndarray) -> np.ndarray:
    """:func:`conditional_entropy_bits` of each ``(k, k)`` table of a ``(B, k, k)`` stack.

    The same elementwise operations over the same reduction axes, so
    element ``b`` equals the scalar function of ``joint_counts[b]``.
    """
    counts = np.asarray(joint_counts, dtype=np.float64)
    column_totals = counts.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        conditional = np.where(column_totals[:, None, :] > 0,
                               counts / column_totals[:, None, :], 0.0)
        log_terms = np.where(conditional > 0, np.log2(conditional), 0.0)
    per_column_entropy = -(conditional * log_terms).sum(axis=1)
    return (column_totals * per_column_entropy).sum(axis=-1)


class EntropyBasedLoss(InformationLossMeasure):
    """Normalized conditional entropy of original given masked, as a percentage."""

    measure_name = "ebil"

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        super().__init__(original, attributes)
        #: ``(slot, k, original codes * k, n log2 k)`` of each column with ``k >= 2``.
        self._informative = []
        for slot, column in enumerate(self.columns):
            size = original.schema.domain(column).size
            if size >= 2:
                self._informative.append((slot, size, original.column(column) * size,
                                          original.n_records * np.log2(size)))

    def _compute(self, masked: CategoricalDataset) -> float:
        n = self.original.n_records
        total = 0.0
        informative = 0
        for column in self.columns:
            size = self.original.schema.domain(column).size
            if size < 2:
                continue
            informative += 1
            x = self.original.column(column)
            y = masked.column(column)
            flat = x * size + y
            joint = np.bincount(flat, minlength=size * size).reshape(size, size)
            entropy_bits = conditional_entropy_bits(joint)
            total += entropy_bits / (n * np.log2(size))
        if informative == 0:
            return 0.0
        return 100.0 * total / informative

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        """Batched EBIL: per attribute, one pooled joint-count bincount.

        Each candidate's entropy is then taken by
        :func:`_conditional_entropy_bits_many`, which repeats the scalar
        path's arithmetic table by table, so batching cannot move a
        result.
        """
        codes = batch.codes(self.columns)
        n = self.original.n_records
        totals = np.zeros(len(batch), dtype=np.float64)
        for slot, size, x, scale in self._informative:
            cells = size * size
            for chunk in batch_chunks(len(batch), max(n, cells)):
                part = codes[slot, chunk]
                offsets = np.arange(part.shape[0], dtype=np.int64)[:, None] * cells
                joints = np.bincount(
                    (x + part + offsets).ravel(), minlength=part.shape[0] * cells
                ).reshape(part.shape[0], size, size)
                totals[chunk] += _conditional_entropy_bits_many(joints) / scale
        if not self._informative:
            return totals
        return 100.0 * totals / len(self._informative)
