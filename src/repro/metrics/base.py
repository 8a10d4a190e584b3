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
intermediates instead of recomputing them per candidate.  The scalar
:meth:`BoundMeasure.compute` remains the convenience form and the
independent reference; a measure that only implements the scalar
``_compute`` gets a looping batch fallback.  Either way the contract is
exact equality: ``compute_many(batch)[i] == compute(batch[i])``, bit
for bit — batching changes throughput, never results.

A :class:`CandidateBatch` carries what the measures of one scoring pass
share: the candidates, validated once per distinct original; their code
tensor over a set of columns; and one
:class:`~repro.linkage.compressed.CompressedPair` per candidate and
linkage geometry.  The evaluator builds one per fresh batch and hands
it to every measure, so a candidate is checked, stacked and encoded
once however many measures read it.  Each is computed on first use and
lives only as long as the batch: nothing is kept on the datasets or
process-wide.  ``compute_many`` also accepts a plain sequence, which it
wraps in a batch of its own.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterator, Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import MetricError
from repro.linkage.compressed import CompressedPair, OriginalIndex, encode_cells

#: Most elements a batch kernel allocates per scratch array; kernels walk
#: a larger batch in chunks of candidates (see :func:`batch_chunks`).
BATCH_SCRATCH_CELLS = 1 << 19


def batch_chunks(size: int, cells_per_candidate: int) -> list[slice]:
    """Slices of a ``size``-candidate batch, each within :data:`BATCH_SCRATCH_CELLS`."""
    step = max(1, BATCH_SCRATCH_CELLS // max(1, cells_per_candidate))
    return [slice(start, min(start + step, size)) for start in range(0, size, step)]


class CandidateBatch(Sequence[CategoricalDataset]):
    """One scoring pass's candidates and the intermediates its measures share."""

    def __init__(self, candidates: Sequence[CategoricalDataset]) -> None:
        self.candidates = list(candidates)
        # Keyed by id(); each value keeps its original alive, so no id is reused.
        self._validated: dict[int, CategoricalDataset] = {}
        self._codes: dict[tuple[int, ...], np.ndarray] = {}
        self._cells: dict[tuple[tuple[int, ...], tuple[int, ...]], np.ndarray] = {}
        self._pairs: dict[tuple[int, tuple[int, ...]], list[CompressedPair]] = {}

    def __len__(self) -> int:
        return len(self.candidates)

    def __getitem__(self, index):  # type: ignore[override]
        return self.candidates[index]

    def __iter__(self) -> Iterator[CategoricalDataset]:
        return iter(self.candidates)

    def validate(self, original: CategoricalDataset) -> None:
        """Check every candidate pairs with ``original``, once per original."""
        if id(original) in self._validated:
            return
        for masked in self.candidates:
            require_masked_pair(original, masked)
        self._validated[id(original)] = original

    def codes(self, columns: Sequence[int]) -> np.ndarray:
        """``(len(columns), B, n)`` int64 codes; ``[slot]`` is one column's ``(B, n)``."""
        key = tuple(columns)
        tensor = self._codes.get(key)
        if tensor is None:
            tensor = np.empty((len(key), len(self.candidates), self.candidates[0].n_records),
                              dtype=np.int64)
            for position, masked in enumerate(self.candidates):
                tensor[:, position] = masked.narrow_codes[:, key].T
            self._codes[key] = tensor
        return tensor

    def cells(self, columns: Sequence[int], sizes: Sequence[int]) -> np.ndarray:
        """``(B, n)`` :func:`~repro.linkage.compressed.encode_cells` numbers over ``columns``."""
        key = (tuple(columns), tuple(sizes))
        cells = self._cells.get(key)
        if cells is None:
            cells = self._cells[key] = encode_cells(self.codes(columns), sizes)
        return cells

    def pairs(self, index: OriginalIndex) -> list[CompressedPair]:
        """One :class:`CompressedPair` per candidate against ``index``'s geometry.

        Keyed by the index's original and columns, so measures bound to
        the same (original, attributes) share the pairs and no others do.
        """
        key = (id(index.original), index.columns)
        pairs = self._pairs.get(key)
        if pairs is None:
            self.validate(index.original)
            cells = self.cells(index.columns, index.sizes)
            pairs = [CompressedPair.of_cells(index, row) for row in cells]
            self._pairs[key] = pairs
        return pairs


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

    def _compute_many(self, batch: CandidateBatch) -> np.ndarray:
        """Measure values for a validated batch; default loops ``_compute``.

        Vectorized measures override this to read the batch's shared
        intermediates.  Implementations must be candidate-independent:
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

        ``batch`` is a :class:`CandidateBatch` shared with other measures
        or any sequence of candidates.  Element ``i`` equals
        ``compute(batch[i])`` exactly; an empty batch returns an empty
        array.
        """
        shared = batch if isinstance(batch, CandidateBatch) else CandidateBatch(batch)
        shared.validate(self.original)
        if not shared.candidates:
            return np.empty(0, dtype=np.float64)
        values = np.asarray(self._compute_many(shared), dtype=np.float64)
        if values.shape != (len(shared),):
            raise MetricError(
                f"{self.measure_name}: batch kernel returned shape {values.shape} "
                f"for {len(shared)} candidates"
            )
        return np.array([self._clamp(v) for v in values.tolist()], dtype=np.float64)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(attributes={list(self.attributes)})"


class InformationLossMeasure(BoundMeasure):
    """Marker base class: how much analytic utility the masking destroyed."""


class DisclosureRiskMeasure(BoundMeasure):
    """Marker base class: how much an intruder learns from the masked file."""
