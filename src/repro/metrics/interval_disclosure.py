"""Rank-interval disclosure — ID (Domingo-Ferrer & Torra, 2001).

Attribute disclosure risk: even without linking records, an intruder who
reads a masked value learns something about the original value if the
original lies *close in rank* to what was published.  For each protected
cell we check whether the original category falls inside a rank window
around the published category; the measure is the percentage of cells
that do.

Rank geometry comes from :func:`repro.linkage.distance.rank_positions`:
each category occupies its block of the original file's cumulative
frequency order, and the window is ``width`` (fraction of total rank
mass) on each side of the published value's position.  The identity
masking scores 100 (every original value trivially inside its own
window); strong maskings push values outside the window and drive the
measure toward 0.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MetricError
from repro.linkage.distance import rank_positions
from repro.metrics.base import CandidateBatch, DisclosureRiskMeasure


class IntervalDisclosure(DisclosureRiskMeasure):
    """Percentage of cells whose original value sits in the published rank window."""

    measure_name = "interval_disclosure"

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        width: float = 0.1,
    ) -> None:
        super().__init__(original, attributes)
        if not 0 < width <= 1:
            raise MetricError(f"interval width must be in (0, 1], got {width}")
        self.width = float(width)
        self._positions = {
            column: rank_positions(original, original.schema.domain(column).name)
            for column in self.columns
        }
        # The original side never changes: resolve each original cell's
        # rank position once at bind time instead of once per candidate.
        self._original_positions = {
            column: self._positions[column][original.column(column)]
            for column in self.columns
        }
        # The batch kernel's per-column window table: ``inside[i * k + j]``
        # is the scalar test for original code i published as j.
        self._windows = []
        for column in self.columns:
            positions = self._positions[column]
            inside = np.abs(positions[:, None] - positions[None, :]) <= self.width
            self._windows.append((original.column(column) * positions.size, inside.ravel()))

    def _compute(self, masked: CategoricalDataset) -> float:
        inside_total = 0.0
        for column in self.columns:
            positions = self._positions[column]
            x = self._original_positions[column]
            y = positions[masked.column(column)]
            inside_total += float((np.abs(x - y) <= self.width).mean())
        return 100.0 * inside_total / len(self.columns)

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        """Batched ID: one window-table lookup per attribute for all candidates.

        Each cell's verdict is the scalar path's comparison, read off a
        table of every (original, published) code pair, and the
        inside-window shares are counts divided by ``n`` — integer-exact
        — so the batch path reproduces the scalar one bit for bit.
        """
        codes = batch.codes(self.columns)
        n = self.original.n_records
        inside_totals = np.zeros(len(batch), dtype=np.float64)
        for slot, (scaled, inside) in enumerate(self._windows):
            inside_totals += np.count_nonzero(inside.take(scaled + codes[slot]), axis=-1) / n
        return 100.0 * inside_totals / len(self.columns)
