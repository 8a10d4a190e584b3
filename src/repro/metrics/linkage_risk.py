"""Disclosure-risk measures backed by the record-linkage substrate.

Bound-measure adapters over :mod:`repro.linkage`: distance-based record
linkage (DBRL), probabilistic record linkage (PRL) and rank-swapping
record linkage (RSRL).  Each reports the percentage of records an
intruder re-identifies, with fractional credit on linkage ties (see
:func:`repro.linkage.dbrl.fractional_correct_links`).

All three route through the tuple-compressed fast path of
:mod:`repro.linkage.compressed`, which is exactly equivalent to the
reference ``n^2`` implementations (asserted by the test suite) but
several times faster — fitness evaluation is the paper's acknowledged
bottleneck.  Each measure builds its :class:`OriginalIndex` when it is
bound and owns one :class:`_CellTable`: a row per cell of the
attributes' tuple space, filled by the measure's column kernel the first
time a candidate occupies that cell.  DBRL keeps distance rows, PRL
pattern rows plus their pattern histograms, RSRL rank-score rows at its
window.  A candidate's grid is a gather of its cells' rows, bit for bit
the kernel's output on the same pairs, whichever candidate filled them.

A candidate's side, its :class:`CompressedPair`, comes from the scoring
pass's :class:`~repro.metrics.base.CandidateBatch`, which builds it once
per (original, attributes) and hands the same pair to every measure
bound there; the scalar ``compute`` builds its own.  PRL fits the whole
batch with one call of this module's ``fit_fellegi_sunter_many``.

A table whose rows would exceed :data:`TABLE_BYTES` stores nothing, and
the measure runs its kernel on each candidate's own cells.  Rows are
never filled eagerly and never pickled (a process worker receives an
empty table), and nothing is kept process-wide or per thread.  Threads
may share a bound measure: a cell's row is written before its filled
flag, and two threads filling the same cell write the same bytes.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Callable, Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MetricError
from repro.linkage.compressed import (
    CompressedPair,
    OriginalIndex,
    distance_columns,
    pattern_columns,
    pattern_histogram,
    rank_score_columns,
)
from repro.linkage.distance import rank_positions
from repro.linkage.prl import fit_fellegi_sunter_many
from repro.metrics.base import CandidateBatch, DisclosureRiskMeasure

#: Largest per-cell table a measure keeps (cells x row bytes); housing's
#: DBRL table, the largest of the paper datasets, is 23.7 MB.
TABLE_BYTES = 64 << 20


class _CellTable:
    """Per-cell rows of one linkage measure, each filled on first use.

    The row arrays are allocated when the table is created or unpickled,
    never on first fill, so threads sharing the table always write into
    the same arrays.
    """

    def __init__(self, n_cells: int, empty_rows: tuple[np.ndarray, ...]) -> None:
        self.n_cells = n_cells
        #: ``(width, dtype)`` of each row array, read off the kernel's output.
        self.layout = tuple((rows.shape[1], rows.dtype) for rows in empty_rows)
        self._allocate()

    def _allocate(self) -> None:
        row_bytes = sum(width * dtype.itemsize for width, dtype in self.layout)
        if self.n_cells * row_bytes > TABLE_BYTES:
            self.rows = None
            return
        self.rows = tuple(np.empty((self.n_cells, width), dtype) for width, dtype in self.layout)
        self.filled = np.zeros(self.n_cells, dtype=bool)

    def gather(
        self, pair: CompressedPair, kernel: Callable[[np.ndarray], tuple[np.ndarray, ...]]
    ) -> tuple[np.ndarray, ...]:
        """The rows of ``pair.keys``' cells, filling the cells not yet stored."""
        keys = pair.keys
        if self.rows is None:
            return kernel(pair.index.cell_tuples(keys))
        missing = keys[~self.filled[keys]]
        if missing.size:
            # Rows before flags: a thread that sees a cell's flag reads a
            # complete row, and threads filling one cell write the same bytes.
            for rows, new in zip(self.rows, kernel(pair.index.cell_tuples(missing))):
                rows[missing] = new
            self.filled[missing] = True
        return tuple(rows[keys] for rows in self.rows)

    def __getstate__(self) -> dict:
        return {"n_cells": self.n_cells, "layout": self.layout}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._allocate()


class _LinkageRisk(DisclosureRiskMeasure):
    """A linkage measure: owns its binding's original-side geometry and cell table."""

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        super().__init__(original, attributes)
        self.index = OriginalIndex(original, self.attributes)
        no_cells = np.empty((0, len(self.attributes)), dtype=np.int64)
        self._table = _CellTable(self.index.n_cells, self.cell_rows(no_cells))

    @abstractmethod
    def cell_rows(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        """This measure's column kernels on an ``(m, a)`` block of cell tuples."""

    def rows(self, pair: CompressedPair) -> tuple[np.ndarray, ...]:
        """:meth:`cell_rows` of the candidate's cells, gathered from the table."""
        return self._table.gather(pair, self.cell_rows)

    @abstractmethod
    def score_pairs(self, pairs: Sequence[CompressedPair]) -> np.ndarray:
        """Re-identification percentage of each candidate's pair."""

    def _compute(self, masked: CategoricalDataset) -> float:
        return float(self.score_pairs([CompressedPair(self.index, masked)])[0])

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        return self.score_pairs(batch.pairs(self.index))


class DistanceLinkageRisk(_LinkageRisk):
    """Percentage of records re-identified by nearest-record linkage."""

    measure_name = "dbrl"

    def cell_rows(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        return (distance_columns(self.index, cells),)

    def score_pairs(self, pairs: Sequence[CompressedPair]) -> np.ndarray:
        return np.array([pair.reidentified(self.rows(pair)[0], best_is_max=False)
                         for pair in pairs], dtype=np.float64)


class ProbabilisticLinkageRisk(_LinkageRisk):
    """Percentage of records re-identified by Fellegi–Sunter linkage."""

    measure_name = "prl"

    def cell_rows(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        patterns = pattern_columns(self.index, cells)
        return patterns, pattern_histogram(self.index, patterns)

    def score_pairs(self, pairs: Sequence[CompressedPair]) -> np.ndarray:
        """Batched PRL: one Fellegi–Sunter fit call over all the pairs.

        :func:`fit_fellegi_sunter_many` gives each certified candidate
        its closed-form fit and runs the remaining candidates' capped EM
        iterations through one set of batch-wide numpy calls.  Each row
        is computed from its own counts alone, so results are identical
        to the scalar fit.  The pairs are read twice, for their counts
        and then for their grids, so at most one candidate's pattern grid
        is held at a time.
        """
        counts = np.stack([pair.pattern_counts(self.rows(pair)[1]) for pair in pairs])
        model = fit_fellegi_sunter_many(counts, len(self.attributes))
        # ``reidentified`` reads only each column's maximum and its ties,
        # so a candidate's dense weight rank (uint8 for up to 8
        # attributes) re-identifies exactly the records its float64
        # weights do — provided no weight is NaN, which the weights'
        # _EPS terms rule out.
        weights = model.pattern_weights
        if not np.isfinite(weights).all():
            raise MetricError("PRL pattern weights must be finite")
        rank_dtype = np.min_scalar_type(weights.shape[1] - 1)
        return np.array(
            [
                pair.reidentified(
                    np.take(np.unique(row, return_inverse=True)[1].astype(rank_dtype),
                            self.rows(pair)[0]),
                    best_is_max=True,
                )
                for pair, row in zip(pairs, weights)
            ],
            dtype=np.float64,
        )


class RankSwappingLinkageRisk(_LinkageRisk):
    """Percentage of records re-identified by rank-window linkage."""

    measure_name = "rsrl"

    def __init__(
        self,
        original: CategoricalDataset,
        attributes: Sequence[str],
        window: float = 0.1,
    ) -> None:
        if not 0 < window <= 1:
            raise MetricError(f"rank window must be in (0, 1], got {window}")
        self.window = float(window)
        # Set before binding: the base class runs cell_rows to lay out the table.
        #: Rank-position table per attribute; only RSRL reads rank geometry.
        self.positions = [rank_positions(original, name) for name in attributes]
        super().__init__(original, attributes)

    def cell_rows(self, cells: np.ndarray) -> tuple[np.ndarray, ...]:
        return (rank_score_columns(self.index, self.positions, cells, self.window),)

    def score_pairs(self, pairs: Sequence[CompressedPair]) -> np.ndarray:
        return np.array([pair.reidentified(self.rows(pair)[0], best_is_max=True)
                         for pair in pairs], dtype=np.float64)
