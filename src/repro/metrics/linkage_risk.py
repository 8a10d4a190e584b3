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
bound and one :class:`CompressedPair` per candidate; it keeps no
process-wide or per-thread state, so threads may share a bound measure
read-only and a process worker receives the index in the pickle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.exceptions import MetricError
from repro.linkage.compressed import CompressedPair, OriginalIndex
from repro.linkage.prl import fit_fellegi_sunter_many
from repro.metrics.base import DisclosureRiskMeasure


class _LinkageRisk(DisclosureRiskMeasure):
    """A linkage measure: owns the original-side geometry of its binding."""

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        super().__init__(original, attributes)
        self.index = OriginalIndex(original, self.attributes)


class DistanceLinkageRisk(_LinkageRisk):
    """Percentage of records re-identified by nearest-record linkage."""

    measure_name = "dbrl"

    def _compute(self, masked: CategoricalDataset) -> float:
        return CompressedPair(self.index, masked).distance_linkage()


class ProbabilisticLinkageRisk(_LinkageRisk):
    """Percentage of records re-identified by Fellegi–Sunter linkage."""

    measure_name = "prl"

    def _compute(self, masked: CategoricalDataset) -> float:
        return float(self._compute_many([masked])[0])

    def _compute_many(self, batch: Sequence[CategoricalDataset]) -> np.ndarray:
        """Batched PRL: one Fellegi–Sunter fit call over the whole batch.

        :func:`fit_fellegi_sunter_many` gives each certified candidate
        its closed-form fit and runs the remaining candidates' capped EM
        iterations through one set of batch-wide numpy calls.  Each row
        is computed from its own counts alone, so results are identical
        to the scalar fit.
        """
        pairs = [CompressedPair(self.index, masked) for masked in batch]
        grids = [pair.pattern_grid() for pair in pairs]
        counts = np.stack([pair.pattern_counts(grid) for pair, grid in zip(pairs, grids)])
        model = fit_fellegi_sunter_many(counts, len(self.attributes))
        return np.array(
            [
                pair.probabilistic_linkage_from_weights(grid, weights)
                for pair, grid, weights in zip(pairs, grids, model.pattern_weights)
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
        super().__init__(original, attributes)
        if not 0 < window <= 1:
            raise MetricError(f"rank window must be in (0, 1], got {window}")
        self.window = float(window)

    def _compute(self, masked: CategoricalDataset) -> float:
        return CompressedPair(self.index, masked).rank_linkage(window=self.window)
