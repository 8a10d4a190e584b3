"""Tuple-compressed record linkage.

All three linkage attacks compare records only through their
quasi-identifier *value tuples*: the distance, agreement pattern and
rank compatibility of a pair ``(i, j)`` depend solely on the category
tuples of original record ``i`` and masked record ``j``.  With three
protected attributes, a 1000-record file typically holds just a few
hundred distinct tuples, so linkage over the distinct-tuple grid plus
per-record lookups is several times cheaper than the naive ``n x n``
pair sweep — and produces *identical* results, which the test suite
asserts against the reference implementations in
:mod:`repro.linkage.dbrl` / :mod:`~repro.linkage.prl` /
:mod:`~repro.linkage.rsrl`.

The paper singles out fitness evaluation as the dominant cost of the
whole approach (its §3.2 timing paragraph and §4 "major drawback").
This module answers it for the linkage grids, and the closed-form PRL
fit of :mod:`repro.linkage.prl` for the Fellegi–Sunter model; the
measures in :mod:`repro.metrics.linkage_risk` route through both.

A **cell** is one point of the attributes' tuple space: one combination
of their category codes, numbered by mixed-radix encoding (flare has 280
cells, adult 1568, german 180, housing 4200).  A grid entry depends only
on the pair (distinct original tuple, cell), never on the candidate, so
the grids are built from three *column kernels* —
:func:`distance_columns`, :func:`pattern_columns` and
:func:`rank_score_columns` — that map cell tuples to one row per cell,
``u_o`` wide: row ``j`` is the grid column of cell ``j`` against every
distinct original tuple.  The linkage measures keep those rows in
per-cell tables filled on first use and gather a candidate's grid from
them; the kernels are the only place the arithmetic lives.

An :class:`OriginalIndex` holds everything that depends only on the
original file and the attribute set — the distinct original tuples, the
per-record inverse and per-tuple record counts.  A
:class:`CompressedPair` holds a candidate's side: the cells its records
occupy, each record's cell, and the records per cell.  Neither keeps
process-wide or per-thread state, so a score depends only on (original,
candidate, measure configuration), never on what the process scored
before.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.dataset import CategoricalDataset
from repro.data.validation import require_attributes, require_masked_pair
from repro.exceptions import LinkageError

#: Tuple spaces up to this many cells find a candidate's distinct cells
#: with one ``bincount`` over the space; larger ones use ``np.unique``,
#: whose cost does not grow with the space.
BINCOUNT_CELLS = 1 << 16


def encode_cells(columns: Sequence[np.ndarray], sizes: Sequence[int]) -> np.ndarray:
    """Mixed-radix cell numbers of per-attribute code arrays, as int64.

    ``columns[slot]`` holds attribute ``slot``'s codes, any shape (one
    file's ``(n,)`` or a batch's ``(B, n)``) and any integer width (a
    dataset's narrow matrix is summed into the ``int64`` result); the
    result has that shape.
    """
    n_cells = 1
    for size in sizes:
        n_cells *= int(size)
    if n_cells > 2**62:
        raise LinkageError("attribute domains too large for tuple encoding")
    flat = np.zeros(np.shape(columns[0]), dtype=np.int64)
    for column, size in zip(columns, sizes):
        flat = flat * size + column
    return flat


def _decode_tuples(keys: np.ndarray, sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`encode_cells`: int64 keys back to code tuples."""
    out = np.empty((keys.shape[0], len(sizes)), dtype=np.int64)
    remaining = keys.copy()
    for column in range(len(sizes) - 1, -1, -1):
        out[:, column] = remaining % sizes[column]
        remaining //= sizes[column]
    return out


class OriginalIndex:
    """Original-side linkage geometry of one (original, attributes) binding.

    Everything here depends only on the original file: the distinct
    quasi-identifier tuples, each record's tuple index, how many records
    carry each tuple, and the size of the attributes' tuple space.  The
    GA evaluates thousands of candidates against one original, so each
    linkage measure computes this once, when it is bound, instead of
    once per candidate.
    """

    def __init__(self, original: CategoricalDataset, attributes: Sequence[str]) -> None:
        columns = require_attributes(original, attributes)
        if not columns:
            raise LinkageError("linkage needs at least one attribute")
        self.original = original
        self.attributes = tuple(attributes)
        self.columns = tuple(columns)
        self.domains = [original.schema.domain(c) for c in columns]
        self.sizes = [d.size for d in self.domains]
        keys_original = encode_cells(original.narrow_codes[:, columns].T, self.sizes)
        self.n_cells = int(np.prod(self.sizes, dtype=np.int64))
        unique_keys_o, self.inverse_original = np.unique(keys_original, return_inverse=True)
        self.unique_original = self.cell_tuples(unique_keys_o)
        #: Records per distinct original tuple (PRL's pattern weighting).
        self.counts_original = np.bincount(self.inverse_original).astype(np.float64)

    def cell_tuples(self, cells: np.ndarray) -> np.ndarray:
        """Code tuples ``(len(cells), a)`` of the given cell numbers."""
        return _decode_tuples(cells, self.sizes)


class CompressedPair:
    """A masked candidate's cells, against the original side of ``index``.

    Attributes
    ----------
    keys:
        The cells the masked records occupy, ascending: the candidate's
        distinct quasi-identifier tuples, as cell numbers.
    inverse_masked:
        Per-record index into ``keys``.
    counts_masked:
        Number of masked records in each of ``keys``' cells.
    own_entries:
        Per-record flat index of its (own cell, own original tuple)
        entry in a ``(len(keys), u_o)`` grid.
    """

    def __init__(self, index: OriginalIndex, masked: CategoricalDataset) -> None:
        require_masked_pair(index.original, masked)
        self._occupy(index, encode_cells(masked.narrow_codes[:, list(index.columns)].T,
                                         index.sizes))

    @classmethod
    def of_cells(cls, index: OriginalIndex, cells: np.ndarray) -> "CompressedPair":
        """The pair of an already validated candidate whose records lie in ``cells``.

        ``cells`` is the candidate's :func:`encode_cells` row over
        ``index``'s columns; the pair equals the one built from the file.
        """
        pair = cls.__new__(cls)
        pair._occupy(index, cells)
        return pair

    def _occupy(self, index: OriginalIndex, cells: np.ndarray) -> None:
        self.index = index
        if index.n_cells <= BINCOUNT_CELLS:
            counts = np.bincount(cells, minlength=index.n_cells)
            self.keys = np.flatnonzero(counts)
            position = np.empty(index.n_cells, dtype=np.intp)
            position[self.keys] = np.arange(self.keys.size)
            self.inverse_masked = position[cells]
            counts = counts[self.keys]
        else:
            self.keys, self.inverse_masked, counts = np.unique(
                cells, return_inverse=True, return_counts=True
            )
        self.counts_masked = counts.astype(np.float64)
        self.own_entries = (self.inverse_masked * index.unique_original.shape[0]
                            + index.inverse_original)

    @property
    def n_records(self) -> int:
        return self.index.original.n_records

    def pattern_counts(self, histogram: np.ndarray) -> np.ndarray:
        """Aggregated agreement-pattern counts over all record pairs.

        ``histogram`` holds the :func:`pattern_histogram` row of each of
        ``keys``' cells.  Every term is an integer-valued float64 below
        2^53, so the sum is exact in any order.
        """
        return (histogram * self.counts_masked[:, None]).sum(axis=0)

    def reidentified(self, grid: np.ndarray, best_is_max: bool) -> float:
        """Re-identification percentage for a per-cell score grid.

        ``grid`` has one row per cell of ``keys`` and one column per
        distinct original tuple.  Mirrors
        :func:`repro.linkage.dbrl.fractional_correct_links` on the
        compressed representation: for each original record, the tie set
        size is the number of masked *records* (not tuples) achieving
        the optimum of its column, and the record scores ``1/ties`` if
        its own masked tuple is in the tie set.
        """
        best = grid.max(axis=0) if best_is_max else grid.min(axis=0)
        at_best = grid == best
        tie_counts = np.einsum("k,ko->o", self.counts_masked, at_best)
        hits = at_best.ravel().take(self.own_entries)
        credits = hits / tie_counts[self.index.inverse_original]
        return 100.0 * float(credits.sum()) / self.n_records


# -- column kernels: one row per cell tuple, one column per original tuple --


def distance_columns(index: OriginalIndex, cells: np.ndarray) -> np.ndarray:
    """Mean categorical distance of each cell tuple to each original tuple."""
    total = np.zeros((cells.shape[0], index.unique_original.shape[0]))
    for slot, domain in enumerate(index.domains):
        x = index.unique_original[:, slot][None, :]
        y = cells[:, slot][:, None]
        if domain.ordinal and domain.size > 1:
            total += np.abs(x - y) / (domain.size - 1)
        else:
            total += (x != y).astype(np.float64)
    total /= len(index.domains)
    return total


def pattern_columns(index: OriginalIndex, cells: np.ndarray) -> np.ndarray:
    """Agreement-pattern index of each cell tuple against each original tuple.

    Bit ``b`` is set when the two tuples agree on attribute ``b``; the
    dtype is the narrowest unsigned type that holds ``2^a - 1``.
    """
    dtype = np.min_scalar_type(2 ** len(index.domains) - 1)
    patterns = np.zeros((cells.shape[0], index.unique_original.shape[0]), dtype=dtype)
    for bit in range(len(index.domains)):
        agree = index.unique_original[:, bit][None, :] == cells[:, bit][:, None]
        patterns |= agree.astype(dtype) << dtype.type(bit)
    return patterns


def pattern_histogram(index: OriginalIndex, patterns: np.ndarray) -> np.ndarray:
    """Original records per agreement pattern, one ``2^a`` row per cell.

    ``H[c, p] = Σ_o counts_original[o]·[patterns[c, o] = p]`` for the
    :func:`pattern_columns` rows ``patterns``.
    """
    width = 2 ** len(index.domains)
    offsets = np.arange(patterns.shape[0], dtype=np.int64)[:, None] * width
    weights = np.broadcast_to(index.counts_original, patterns.shape)
    flat = np.bincount(
        (offsets + patterns).ravel(), weights=weights.ravel(), minlength=patterns.shape[0] * width
    )
    return flat.reshape(patterns.shape[0], width)


def rank_score_columns(
    index: OriginalIndex, positions: Sequence[np.ndarray], cells: np.ndarray, window: float
) -> np.ndarray:
    """Rank-compatible attribute count of each cell tuple against each original tuple.

    ``positions`` holds each attribute's rank-position table
    (:func:`repro.linkage.distance.rank_positions`), in index order.
    """
    if not 0 < window <= 1:
        raise LinkageError(f"window must be in (0, 1], got {window}")
    dtype = np.min_scalar_type(len(index.domains))
    scores = np.zeros((cells.shape[0], index.unique_original.shape[0]), dtype=dtype)
    for slot, table in enumerate(positions):
        x = table[index.unique_original[:, slot]][None, :]
        y = table[cells[:, slot]][:, None]
        scores += np.abs(x - y) <= window
    return scores
