"""Contingency-table-based information loss — CTBIL.

Categorical analyses are built on contingency tables, so the canonical
utility measure for categorical maskings (Domingo-Ferrer & Torra, 2001 —
the paper's reference [8]) compares the original and masked contingency
tables for every attribute subset up to a maximum order and accumulates
the absolute cell differences:

    CTBIL = sum over subsets S, |S| <= K  of  sum over cells |TO_c - TM_c|

We normalize to a percentage: each subset's table can differ by at most
``2n`` in total absolute mass (all records moved cells), so the reported
value is ``100 * CTBIL / (2 n * #subsets)``.

Cell counting uses a mixed-radix encoding of each record's category tuple
followed by a ``bincount``, so a table of any order is one vectorized
pass over the records.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import combinations

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MetricError
from repro.linkage.compressed import BINCOUNT_CELLS, encode_cells
from repro.metrics.base import CandidateBatch, InformationLossMeasure, batch_chunks

#: Refuse to allocate count vectors beyond this many cells per subset.
_MAX_TABLE_CELLS = 5_000_000


def contingency_counts(dataset: CategoricalDataset, columns: Sequence[int]) -> np.ndarray:
    """Flattened contingency table over ``columns`` (mixed-radix bincount)."""
    if not columns:
        raise MetricError("contingency table needs at least one column")
    sizes = [dataset.schema.domain(c).size for c in columns]
    n_cells = 1
    for size in sizes:
        n_cells *= size  # Python ints: no int64 overflow for huge tables
    if n_cells > _MAX_TABLE_CELLS:
        raise MetricError(
            f"contingency table over columns {list(columns)} has {n_cells} cells "
            f"(limit {_MAX_TABLE_CELLS}); lower max_order"
        )
    flat = np.zeros(dataset.n_records, dtype=np.int64)
    for column, size in zip(columns, sizes):
        flat = flat * size + dataset.column(column)
    return np.bincount(flat, minlength=n_cells)


class ContingencyTableLoss(InformationLossMeasure):
    """CTBIL over all attribute subsets of size ``1..max_order``."""

    measure_name = "ctbil"

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        max_order: int = 2,
    ) -> None:
        super().__init__(original, attributes)
        if max_order < 1:
            raise MetricError(f"max_order must be >= 1, got {max_order}")
        self.max_order = min(max_order, len(self.columns))
        slot_subsets = [
            subset
            for order in range(1, self.max_order + 1)
            for subset in combinations(range(len(self.columns)), order)
        ]
        self._subsets = [tuple(self.columns[slot] for slot in subset) for subset in slot_subsets]
        self._original_tables = [
            contingency_counts(original, subset) for subset in self._subsets
        ]
        # The batch kernel counts *blocks*: the joint table of all the
        # columns when it is small, each subset's table read off it by
        # summing out the other axes; otherwise one block per subset.
        sizes = [original.schema.domain(column).size for column in self.columns]
        if math.prod(sizes) <= BINCOUNT_CELLS:
            blocks = [(tuple(range(len(sizes))), slot_subsets)]
        else:
            blocks = [(subset, [subset]) for subset in slot_subsets]
        #: ``(slots, sizes, summed-out axes per table, pooled original tables)``.
        self._blocks = []
        for block, subsets in blocks:
            axes = [tuple(1 + position for position, slot in enumerate(block) if slot not in subset)
                    for subset in subsets]
            pooled = np.concatenate([self._original_tables[slot_subsets.index(subset)]
                                     for subset in subsets])
            self._blocks.append((block, tuple(sizes[slot] for slot in block), axes, pooled))

    def _compute(self, masked: CategoricalDataset) -> float:
        total = 0.0
        for subset, original_table in zip(self._subsets, self._original_tables):
            masked_table = contingency_counts(masked, subset)
            total += float(np.abs(original_table - masked_table).sum())
        ceiling = 2.0 * self.original.n_records * len(self._subsets)
        return 100.0 * total / ceiling

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        """Batched CTBIL: one pooled bincount per block and chunk of candidates.

        Cell counts and their marginal sums are integers, so the only
        float operations are the final per-candidate normalizations —
        identical to the scalar path whatever the batch size.
        """
        n = self.original.n_records
        totals = np.zeros(len(batch), dtype=np.float64)
        codes = batch.codes(self.columns)
        for slots, sizes, axes, pooled in self._blocks:
            n_cells = math.prod(sizes)
            for chunk in batch_chunks(len(batch), n + n_cells):
                if len(self._blocks) == 1:
                    # The cells of all the columns: the linkage measures'
                    # pairs read the same array.
                    cells = batch.cells(self.columns, sizes)[chunk]
                else:
                    cells = encode_cells([codes[slot, chunk] for slot in slots], sizes)
                size = cells.shape[0]
                offsets = np.arange(size, dtype=np.int64)[:, None] * n_cells
                joint = np.bincount((cells + offsets).ravel(), minlength=size * n_cells)
                joint = joint.reshape((size,) + sizes)
                tables = np.concatenate(
                    [joint.sum(axis=summed).reshape(size, -1) for summed in axes], axis=1
                )
                totals[chunk] += np.abs(pooled - tables).sum(axis=-1)
        ceiling = 2.0 * n * len(self._subsets)
        return 100.0 * totals / ceiling
